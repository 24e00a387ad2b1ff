import itertools
import math

import numpy as np
import pytest

from nlsqp.characteristics import ConvolutionSymbols
from nlsqp.lattice import Box, FrequencyVector, linear_solution, make_spec, site
from nlsqp.newton import (
    ConditionGateError,
    ConvergenceError,
    IterationState,
    MIN_AMPLITUDE,
    analytic_q_jacobian,
    diophantine_check,
    excision_sweep,
    first_iteration,
    newton_step,
    q_solve,
    residual_norms,
    residual_series,
    solve,
)

from oracles import _gather, fd_q_jacobian, injected_symbols
from test_characteristics import component_members, tagged_vertices
from test_linop import count_calls


def hand_q_tp2(a1, a2, delta):
    """Hand convolution oracle for the TP2 modulated frequencies."""
    return (1 + delta * (a1 ** 2 + 2 * a2 ** 2),
            4 + delta * (2 * a1 ** 2 + a2 ** 2))


def test_q_solve_tp1(tp1):
    u0, _ = linear_solution(tp1)
    w = q_solve(u0, tp1)
    assert w.omega[0] == pytest.approx(4 + 1e-3 * 0.49, abs=1e-15)


def test_q_solve_tp2_closed_form(tp2):
    u0, _ = linear_solution(tp2)
    w = q_solve(u0, tp2)
    assert w.omega == pytest.approx(hand_q_tp2(0.6, 0.8, 1e-3), abs=1e-14)


def test_q_solve_small_amplitude_limit():
    for eps in (1e-2, 1e-3):
        spec = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2],
                         amplitudes=[eps, eps])
        u0, _ = linear_solution(spec)
        w = q_solve(u0, spec)
        assert max(abs(a - b) for a, b in zip(w.omega, (1, 4))) <= 4e-3 * eps ** 2


def test_q_solve_with_phase():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7],
                     phase_m=0.25)
    u0, _ = linear_solution(spec)
    w = q_solve(u0, spec)
    assert w.omega[0] == pytest.approx(4 + 0.25 + 1e-3 * 0.49)


def test_newton_tp1_one_step(tp1):
    rep = solve(tp1)
    assert rep.steps == 1
    assert rep.residual_history[-1][1] < 1e-12
    assert rep.omega[0] == pytest.approx(4 + 1e-3 * 0.49, abs=1e-12)
    # Plane wave: no off-seed correction at all.
    assert len(rep.state.u) == 1


def test_newton_tp2_residual_cubes(tp2):
    # Post-first-step residual drops like delta^3 (slope fitted over three
    # decades in the acceptance suite; spot ratio here).
    vals = []
    for dl in (1e-2, 1e-3):
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        state, _ = first_iteration(spec)
        vals.append(state.residual_weighted)
    assert vals[0] / vals[1] == pytest.approx(1e3, rel=0.5)


def test_newton_step_anchors_seed_amplitudes(tp2):
    state, _ = first_iteration(tp2)
    for s, (j, a) in zip(tp2.seed_sites(), tp2.modes):
        assert state.u[s] == a  # bit-exact anchoring


def test_newton_step_reality(tp2):
    from nlsqp.lattice import conjugate_flip
    state, _ = first_iteration(tp2)
    flip = conjugate_flip(state.u)
    assert flip.support() == state.v.support()
    for s in state.v.support():
        assert state.v[s] == flip[s]
    assert all(abs(w - round(w, 12)) <= 1 for w in state.omega.omega)  # real by type


def test_first_iteration_jacobian_tp2(tp2):
    _, mod = first_iteration(tp2)
    d = tp2.delta
    expected = d * np.array([[2 * 0.6, 4 * 0.8], [4 * 0.6, 2 * 0.8]])
    jac = analytic_q_jacobian(tp2)
    assert np.allclose(jac, expected, rtol=1e-12)
    assert mod.jac_det == float(np.linalg.det(jac))
    assert mod.jac_det == pytest.approx(-12 * d * d * 0.6 * 0.8, rel=1e-8)
    assert np.max(np.abs(jac - fd_q_jacobian(tp2))) <= 1e-6 * np.max(np.abs(jac))


def test_first_iteration_takes_no_finite_differences(tp2, monkeypatch):
    # The finite-difference Jacobian is a test oracle: the first step
    # reports the analytic one's determinant only, and never re-solves Q
    # at perturbed amplitudes.
    from nlsqp.lattice import ProblemSpec

    def refuse(*args, **kwargs):
        raise AssertionError("first_iteration perturbed the amplitudes")

    monkeypatch.setattr(ProblemSpec, "with_amplitudes", refuse)
    first_iteration(tp2)


def test_no_gate_takes_both_det_and_svd(tp2, tp3, monkeypatch):
    # Each admissibility gate thresholds one block statistic, the smallest
    # singular value: a gate with blocks takes SVDs and no det, one with no
    # block (tp2 and tp3 have none on Lambda (+) -Lambda) takes neither, and
    # so does one at the seed frequency.
    from nlsqp import newton
    from nlsqp.lattice import default_box
    gate = newton.admissibility_gate
    calls, per_gate = count_calls(monkeypatch, "det", "svd"), []

    def counted(*args, **kwargs):
        calls.clear()
        value = gate(*args, **kwargs)
        per_gate.append((value, set(calls)))
        return value

    monkeypatch.setattr(newton, "admissibility_gate", counted)
    for spec, box in ((tp2, None), (tp3, None), (B3, Box(4, 9))):
        solve(spec, box=box)
    u0, v0 = linear_solution(tp2)
    assert counted(tp2.omega0(), tp2, default_box(tp2),
                   ConvolutionSymbols.from_fields(u0, v0, tp2.p)) == math.inf
    assert len(per_gate) >= 10
    assert [calls for _, calls in per_gate] == \
        [{"svd"} if math.isfinite(value) else set() for value, _ in per_gate]
    assert sum(math.isfinite(value) for value, _ in per_gate) >= 3


def test_a_solve_builds_lambda_in_its_box_once(tp2, tp3, monkeypatch):
    # Lambda (+) -Lambda in the box depends on the spec and the box alone:
    # solve builds it once and hands it to every gate, the final one
    # included, so each solve enumerates Lambda in its box once.
    from nlsqp import characteristics, linop, newton
    from nlsqp.lattice import default_box
    builds, gates = [], []
    build, enumerate_lambda, gate = linop.lattice_box, characteristics.lattice_in_box, \
        newton.admissibility_gate

    def counted_gate(*args):
        gates.append(args[-1])
        return gate(*args)

    monkeypatch.setattr(linop, "lattice_in_box",
                        lambda *args: builds.append(args) or enumerate_lambda(*args))
    monkeypatch.setattr(newton, "admissibility_gate", counted_gate)
    for spec, box in ((tp2, None), (tp3, None), (B3, Box(4, 9))):
        builds.clear()
        gates.clear()
        report = solve(spec, box=box)
        assert len(builds) == 1 and len(gates) == report.steps + 1
        assert all(lat is gates[0] and isinstance(lat, linop.LatticeBox) for lat in gates)
    # tp2's vertices are its seed equations alone, so its gates link nothing.
    assert build(tp2, default_box(tp2)).seeds.all()


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-8])
def test_gate_value_means_one_thing_at_every_delta(delta):
    # The gate reads sigma_min at every delta, however close the modulated
    # frequency lies to omega0: the smallest block value of b = 3 on
    # Box(4, 9), whose Lambda (+) -Lambda holds two blocks off the seed
    # equations, scales as delta.
    spec = make_spec(d=1, b=3, p=1, delta=delta, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])
    report = solve(spec, box=Box(4, 9))
    assert report.converged
    assert 0.419 <= report.min_block_value / delta <= 0.421


@pytest.mark.parametrize("name", ["tp2", "tp3"])
@pytest.mark.parametrize("m", [0.25, 0.5])
def test_a_phase_shifts_the_frequencies_and_nothing_else(name, m, request):
    # On Lambda a diagonal's mass term m (sum n + 1) vanishes, so a phase m
    # moves each frequency by m and leaves the gate and the step as they
    # are: the solve converges and omega - m is the m = 0 omega.
    spec = request.getfixturevalue(name)
    shifted = make_spec(d=spec.d, b=spec.b, p=spec.p, delta=spec.delta,
                        j_list=list(spec.j_list), amplitudes=list(spec.amplitudes), phase_m=m)
    plain, report = solve(spec), solve(shifted)
    assert report.converged and report.steps == plain.steps
    assert np.max(np.abs(np.array(report.omega) - m - np.array(plain.omega))) <= 1e-15


def test_jacobian_fd_matches_analytic(tp1, tp2):
    for spec in (tp1, tp2):
        ja = analytic_q_jacobian(spec)
        jf = fd_q_jacobian(spec)
        assert np.max(np.abs(ja - jf)) <= 1e-6 * np.max(np.abs(ja))


def test_first_iteration_delta_omega_exact(tp2):
    _, mod = first_iteration(tp2)
    expected = (1e-3 * (0.36 + 2 * 0.64), 1e-3 * (2 * 0.36 + 0.64))
    assert mod.delta_omega == pytest.approx(expected, abs=1e-10)


def test_first_iteration_refuses_failed_condition(tp2):
    from nlsqp.conditions import ConditionReport
    bad = {"i": ConditionReport(name="non_intersection", verdict="fail")}
    with pytest.raises(ConditionGateError):
        first_iteration(tp2, condition_reports=bad)


def test_first_iteration_checks_a_missing_condition_report():
    # Three corners of a rectangle pump the fourth: the error term resonates
    # off the seed support.  A passing report for condition (ii) alone does
    # not let the seed through; condition (i) is checked for it.
    from nlsqp.conditions import ConditionReport
    spec = make_spec(d=2, b=3, p=1, delta=1e-3, j_list=[(-2, -2), (-2, 2), (2, 2)],
                     amplitudes=[0.5] * 3)
    passed = {"ii": ConditionReport(name="non_spiral", verdict="pass")}
    with pytest.raises(ConditionGateError, match=r"condition \(i\) verdict is fail"):
        first_iteration(spec, box=Box(2, 3), condition_reports=passed)


def test_solve_refuses_an_inadmissible_seed_before_a_box_too_large(tp2):
    # solve refuses a box whose sites of Lambda pass the site cap (tp2's
    # Box(1 100 000, 1 100 000) holds 2 199 999) only once the seed is
    # admissible, so a failed verdict wins over it, as in first_iteration.
    from nlsqp.conditions import ConditionReport
    from nlsqp.lattice import BoxTooLarge
    unknown = {"i": ConditionReport(name="non_intersection", verdict="pass"),
               "ii": ConditionReport(name="non_spiral", verdict="unknown_at_depth")}
    with pytest.raises(ConditionGateError, match=r"condition \(ii\) verdict is unknown"):
        solve(tp2, box=Box(1_100_000, 1_100_000), condition_reports=unknown)
    with pytest.raises(BoxTooLarge):
        solve(tp2, box=Box(1_100_000, 1_100_000),
              condition_reports={**unknown, "ii": unknown["i"]})


def test_first_iteration_refuses_tiny_amplitude():
    spec = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2],
                     amplitudes=[0.5, MIN_AMPLITUDE / 2])
    with pytest.raises(ConditionGateError, match="fewer frequencies"):
        first_iteration(spec)


def test_delta_omega_slope_one():
    norms, deltas = [], (1e-2, 1e-3, 1e-4)
    for dl in deltas:
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        u0, _ = linear_solution(spec)
        w1 = q_solve(u0, spec)
        norms.append(np.linalg.norm(np.array(w1.omega) - np.array((1.0, 4.0))))
    slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.15)


def test_q_solve_rejects_non_real_bracket(tp2):
    # A lone complex off-seed term breaks the flip symmetry of the cubic
    # bracket, so the frequency would come out complex.
    from nlsqp.lattice import SparseSeries
    from nlsqp.newton import NonRealFrequency
    u0, _ = linear_solution(tp2)
    terms = {s: u0[s] for s in u0.support()}
    # (-2,1|0) + (0,-1|2) - (-1,0|1) = (-1,0|1): the phase of this term
    # survives into the first seed bracket.
    terms[site((-2, 1), (0,))] = 0.3j
    u_bad = SparseSeries(2, 1, terms, drop_tol=0.0)
    with pytest.raises(NonRealFrequency):
        q_solve(u_bad, tp2)


def test_assemble_box_must_hold_seed(tp2):
    # The seed mode j = 2 lies outside Box(1, 1): the gate has no seed
    # equations to set aside.
    from nlsqp.linop import LinopError, admissibility_gate
    u0, v0 = linear_solution(tp2)
    box = Box(1, 1)
    with pytest.raises(LinopError, match="seed"):
        admissibility_gate(tp2.omega0(), tp2, box, ConvolutionSymbols.from_fields(u0, v0, tp2.p))


# -- Diophantine -------------------------------------------------------------


def test_diophantine_integral_frequency_fails(tp2):
    rep = diophantine_check(tp2.omega0(), 1e-3, 1e-2, 6.0, 5)
    assert not rep.passed
    assert rep.worst_margin == 0.0
    assert rep.worst_n == (1, 0)


def test_diophantine_tp2_modulated_passes(tp2):
    u0, _ = linear_solution(tp2)
    w1 = q_solve(u0, tp2)
    rep = diophantine_check(w1, 1e-3, 1e-2, 6.0, 20)
    assert rep.passed
    # The minimizer realizes the fitted kappa.
    n = rep.worst_n
    x = w1.dot(n)
    margin = abs(x - round(x))
    assert rep.fitted_kappa == pytest.approx(
        margin * max(abs(c) for c in n) ** 6.0 / 1e-3)


def test_resonance_kill(tp2):
    u0, _ = linear_solution(tp2)
    w0, w1 = tp2.omega0(), q_solve(u0, tp2)
    n = (4, -1)
    assert w0.dot(n) == 0.0
    killed = w1.dot(n)
    assert abs(killed - 1e-3 * (2 * 0.36 + 7 * 0.64)) <= 1e-10


# -- Full solve --------------------------------------------------------------


def test_solve_tp2(tp2):
    rep = solve(tp2, tol=1e-12)
    assert rep.converged and rep.steps <= 6
    assert rep.quad_ratios  # quadratic-convergence constants recorded
    assert rep.cs_mass <= 1e-11
    assert rep.amplitudes_physical == pytest.approx(
        tuple(math.sqrt(1e-3) * a for a in (0.6, 0.8)))


def test_quad_constant_leaves_out_steps_that_land_at_the_roundoff_floor():
    # tp2 at delta = 3e-2 takes two Newton steps: 1.5e-5 -> 5.9e-10 (ratio
    # 2.66) and 5.9e-10 -> 5.4e-13, a residual at the floor over a small
    # square (ratio 1.5e6).  Both are recorded; only the first counts.
    spec = make_spec(d=1, b=2, p=1, delta=3e-2, j_list=[1, 2], amplitudes=[0.6, 0.8])
    rep = solve(spec)
    w = [wk for _, wk in rep.residual_history]
    assert len(w) == 4 and w[3] < 1e-11 < w[2]
    assert rep.quad_ratios == [w[2] / w[1] ** 2, w[3] / w[2] ** 2]
    assert rep.quad_constant == rep.quad_ratios[0]
    assert rep.quad_ratios[1] > 1e5 * rep.quad_constant
    # tp2 at delta = 1e-3 takes one step, which lands at the floor.
    rep = solve(make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.6, 0.8]))
    assert len(rep.quad_ratios) == 1 and rep.quad_constant is None


def test_solve_tp3(tp3):
    rep = solve(tp3, box=Box(6, 3))
    assert rep.converged and rep.steps <= 6
    assert rep.residual_history[-1][1] < 1e-11
    assert rep.cs_mass <= 1e-11
    # Physical amplitude scaling delta^(1/2p) with p = 2.
    assert rep.amplitudes_physical[0] == pytest.approx(1e-3 ** 0.25 * 0.9)


def test_solve_computes_each_state_residual_once(tp2, monkeypatch):
    # Each state's residual series is formed once, the seed's in
    # first_iteration; the seed's is formed again at the first step's
    # frequency, and every later step reads the one its state carries.
    from nlsqp import newton
    calls = []
    real = newton.residual_series
    monkeypatch.setattr(newton, "residual_series",
                        lambda *args, **kw: calls.append(args[2]) or real(*args, **kw))
    rep = solve(tp2)
    assert len(calls) == rep.steps + 2 == len(rep.residual_history) + 1
    assert calls[0] == tp2.omega0() != calls[1]
    u0, v0 = linear_solution(tp2)
    assert rep.residual_history[0] == residual_norms(u0, v0, tp2.omega0(), tp2)


def test_a_later_newton_step_reads_the_residual_its_state_carries(tp3, monkeypatch):
    # The first step's state carries its residual at its own omega, which
    # is the frequency the next step works at: that step forms only its new
    # state's residual, and takes the same step, bit for bit, as one from
    # a state that carries none.
    import dataclasses
    from nlsqp import newton
    from nlsqp.lattice import default_box
    box = default_box(tp3)
    state, _ = first_iteration(tp3)
    for got, want in zip(state.residual,
                         residual_series(state.u, state.v, state.omega, tp3, state.symbols)):
        assert_same_bits(got, want)
    calls = []
    real = newton.residual_series
    monkeypatch.setattr(newton, "residual_series",
                        lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    nxt = newton_step(state, tp3, box)
    assert len(calls) == 1 and calls[0] is nxt.u
    bare = newton_step(dataclasses.replace(state, residual=None), tp3, box)
    assert len(calls) == 3 and calls[1] is state.u
    assert_same_bits(nxt.u, bare.u)
    assert (nxt.omega, nxt.residual_plain, nxt.residual_weighted) == \
        (bare.omega, bare.residual_plain, bare.residual_weighted)


@pytest.mark.parametrize("name, radius, sites", [
    ("tp2", 3, 8), ("tp3", 5, 12), ("b3", 3, 48),
])
def test_solve_converges_in_full(name, radius, sites, request):
    # The reported residual is the whole residual, at or below tol; the
    # lattice starts at 2p and grows past it where the residual asks (tp3
    # ends on Lambda_5), and u lives on the final Lambda_R.
    from nlsqp.characteristics import conservation_sites
    spec, box = (B3, Box(4, 9)) if name == "b3" else (request.getfixturevalue(name), None)
    rep = solve(spec, box=box)
    st = rep.state
    assert rep.converged and rep.residual_history[-1][1] <= 1e-11
    assert rep.residual_history[-1] == residual_norms(st.u, st.v, st.omega, spec)
    assert (st.lattice_radius, rep.lattice_sites) == (radius, sites)
    lattice = {site(r[:spec.b], r[spec.b:])
               for r in conservation_sites(spec, radius).tolist()}
    assert set(st.u.support()) <= lattice


def test_first_step_gains_delta_cubed_on_tp3(tp3):
    # The seed residual reaches generation p and the step's coupling p more,
    # so Lambda_{2p} keeps the first step's delta^3 gain; tp3's default box
    # holds only Lambda_2 (p = 2), which gave slope 2.  Criterion 3's bound.
    import dataclasses
    deltas = [1e-2, 1e-3, 1e-4]
    res = [first_iteration(dataclasses.replace(tp3, delta=dl))[0].residual_weighted
           for dl in deltas]
    assert np.polyfit(np.log(deltas), np.log(res), 1)[0] >= 2.8


def test_b3_newton_system_does_not_depend_on_the_box():
    # The box sets what the gate certifies, not the size of Lambda_R: a wide
    # and a tall box give the same system and the same solution.
    small, wide = solve(B3, box=Box(4, 9)), solve(B3, box=Box(14, 5))
    for rep in (small, wide):
        assert (rep.state.lattice_radius, rep.lattice_sites) == (3, 48)
    assert small.omega == wide.omega
    assert wide.inverse_norm == pytest.approx(small.inverse_norm, rel=1e-12)


def test_solve_nonconvergence_reports_history(tp2):
    with pytest.raises(ConvergenceError) as err:
        solve(tp2, tol=1e-30, max_iter=3)
    assert len(err.value.history) >= 3


def test_solve_omega_shift_matches_qsolve(tp1):
    rep = solve(tp1)
    assert rep.omega_shifts[0] == pytest.approx(1e-3 * 0.49, rel=1e-10)


def loop_residual_series(u, v, omega, spec):
    """The residual summed term by term: delta (u*v)^{*p} * u first, then
    the diagonal term of each site of u; the same for v."""
    from nlsqp.lattice import SparseSeries, conv_power, convolve
    uv_p = conv_power(convolve(u, v), spec.p)
    out = []
    for f, sign in ((u, 1), (v, -1)):
        terms = {s: spec.delta * val for s, val in convolve(uv_p, f).items()}
        for s, val in f.items():
            dv = sign * omega.dot(s.n) + s.jsq() + spec.phase_m
            terms[s] = terms.get(s, 0j) + dv * val
        out.append(SparseSeries(u.b, u.d, terms, drop_tol=0.0))
    return out


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_residual_series_matches_termwise_sum(name, request):
    # Bit for bit, at the seed (where the seed diagonals vanish) and at the
    # solution.
    spec = request.getfixturevalue(name)
    u0, v0 = linear_solution(spec)
    rep = solve(spec)
    for u, v, omega in ((u0, v0, spec.omega0()), (rep.state.u, rep.state.v, rep.state.omega)):
        for got, want in zip(residual_series(u, v, omega, spec),
                             loop_residual_series(u, v, omega, spec)):
            assert got.support() == want.support()
            bits = [np.array([val for _, val in f.items()]).view(np.int64) for f in (got, want)]
            assert np.array_equal(*bits)


def assert_same_bits(got, want):
    assert got.support() == want.support()
    bits = [np.array([val for _, val in f.items()], dtype=complex).view(np.int64)
            for f in (got, want)]
    assert np.array_equal(*bits)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3", "p3"])
def test_iterate_products_match_standalone_convolutions(name, request):
    # Bit for bit, at the seed (its products as the checks and the first
    # step read them) and at the solution (those its state carries): the
    # symbols, the Q brackets and the residual at two frequencies equal
    # what separate calls convolve from scratch.
    from nlsqp.characteristics import seed_symbols
    from nlsqp.lattice import SparseSeries, conjugate_flip, conv_power, convolve
    spec, box = {"b3": (B3, Box(4, 9)), "p3": (P3, None)}.get(name) or \
        (request.getfixturevalue(name), None)
    rep = solve(spec, box=box)
    u0, v0 = linear_solution(spec)
    p, m = spec.p, spec.phase_m
    for u, v, symbols in ((u0, v0, seed_symbols(spec)),
                          (rep.state.u, rep.state.v, rep.state.symbols)):
        uv = convolve(u, v)
        uv_pm1 = conv_power(uv, p - 1)
        uu = convolve(uv_pm1, convolve(u, u))
        assert_same_bits(symbols.uv_p, convolve(uv_pm1, uv))
        assert_same_bits(symbols.uu, uu)
        assert_same_bits(symbols.vv, conjugate_flip(uu))

        gu = convolve(conv_power(convolve(u, conjugate_flip(u)), p), u)
        want = [s.jsq() + m + spec.delta * gu[s].real / a
                for s, a in zip(spec.seed_sites(), spec.amplitudes)]
        assert np.array_equal(np.array(q_solve(u, spec, symbols).omega).view(np.int64),
                              np.array(want).view(np.int64))

        uv_p = conv_power(convolve(u, v), p)
        for omega in (spec.omega0(), rep.state.omega):
            for f, sign, got in zip((u, v), (1, -1),
                                    residual_series(u, v, omega, spec, symbols)):
                diagonal = SparseSeries(f.b, f.d, {s: (sign * omega.dot(s.n) + s.jsq() + m) * x
                                                   for s, x in f.items()}, drop_tol=0.0)
                assert_same_bits(got, convolve(uv_p, f).scale(spec.delta).add(diagonal))


# A p = 3 seed (the nonlinearity |u|^6 u).
P3 = make_spec(d=1, b=2, p=3, delta=1e-3, j_list=[1, 3], amplitudes=[0.6, 0.8])


def test_p3_seed_converges_at_the_default_tol():
    # Dropping the entries of u - du below 1e-14 max|u| left this seed a
    # residual floor of 2.07e-11, above tol, after 12 steps.
    rep = solve(P3)
    assert rep.converged and rep.steps == 2
    assert rep.residual_history[-1][1] <= 1e-12
    assert (rep.state.lattice_radius, rep.lattice_sites) == (8, 18)


def test_newton_step_keeps_entries_below_the_drop_tolerance():
    # u - du is kept whole: it holds every site of Lambda_R, two of them
    # below DROP_TOL max|u| after the p = 3 seed's second step.
    from nlsqp.characteristics import conservation_sites
    from nlsqp.lattice import DROP_TOL, default_box
    state, _ = first_iteration(P3)
    nxt = newton_step(state, P3, default_box(P3))
    u, b = nxt.u, P3.b
    assert set(u.support()) == {site(r[:b], r[b:]) for r in
                                conservation_sites(P3, nxt.lattice_radius).tolist()}
    cutoff = DROP_TOL * max(abs(x) for _, x in u.items())
    assert sum(abs(x) < cutoff for _, x in u.items()) == 2


def test_residual_series_flip_symmetry(tp2):
    u0, v0 = linear_solution(tp2)
    fu, fv = residual_series(u0, v0, tp2.omega0(), tp2)
    from nlsqp.lattice import conjugate_flip
    ff = conjugate_flip(fu)
    assert ff.support() == fv.support()
    for s in fv.support():
        assert fv[s] == pytest.approx(ff[s])


# -- Excision sweep ----------------------------------------------------------


def test_excision_sweep_tp1_analytic(tp1):
    # Analytic oracle: the seed 2x2 block determinant is 3 a^4, the isolated
    # blocks are 2 a^2; for the tested epsilons the quartic is binding, so
    # the excised fraction is the measure of {a : 3 a^4 < eps}.
    res = excision_sweep(tp1, [1e-1, 1e-2, 1e-3], n_samples=2000, seed=42,
                         box=Box(4, 3))
    for eps, frac in zip(res.epsilons, res.fractions):
        analytic = min(1.0, (eps / 3.0) ** 0.25)
        sigma = math.sqrt(analytic * (1 - analytic) / res.n_samples)
        assert abs(frac - analytic) <= 2.5 * sigma


def test_excision_sweep_monotone(tp1):
    res = excision_sweep(tp1, [1e-1, 1e-2, 1e-3, 1e-4], n_samples=500,
                         seed=3, box=Box(4, 3))
    assert all(a >= b for a, b in zip(res.fractions, res.fractions[1:]))


def test_excision_sweep_eps_zero(tp1):
    res = excision_sweep(tp1, [0.0], n_samples=200, seed=1, box=Box(4, 3))
    assert res.fractions == [0.0]


def test_excision_sweep_deterministic(tp1):
    r1 = excision_sweep(tp1, [1e-2], n_samples=300, seed=9, box=Box(4, 3))
    r2 = excision_sweep(tp1, [1e-2], n_samples=300, seed=9, box=Box(4, 3))
    assert r1.fractions == r2.fractions
    assert np.array_equal(r1.min_block_values, r2.min_block_values)


def hand_built_min_block_values(spec, samples, box):
    """Reference: every resonance block built entry by entry from the
    symbols, one det per block."""
    from nlsqp.characteristics import CharClass, ConvolutionSymbols, resonance_graph
    graph = resonance_graph(spec, box)
    vertices = tagged_vertices(graph, spec.b)
    p = spec.p
    out = []
    for a in samples:
        spec_a = spec.with_amplitudes(a)
        u0, v0 = linear_solution(spec_a)
        symbols = ConvolutionSymbols.from_fields(u0, v0, p)
        worst = math.inf
        for comp in component_members(graph):
            sites = [vertices[i] for i in comp]
            block = np.zeros((len(sites), len(sites)), dtype=complex)
            for r, (sr, tr) in enumerate(sites):
                for c, (sc, tc) in enumerate(sites):
                    if tr is tc:
                        block[r, c] = (p + 1) * symbols.uv_p[sr - sc]
                    elif tr is CharClass.CPLUS:
                        block[r, c] = p * symbols.uu[sr - sc]
                    else:
                        block[r, c] = p * symbols.vv[sr - sc]
            worst = min(worst, abs(np.linalg.det(block)))
        out.append(worst)
    return np.array(out)


# Three modes in one dimension, cubic, on a box small enough for the
# hand-built oracle (the default box holds 1.46 M sites).
B3 = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])
B3_BOX = Box(3, 5)


def sweep_case(name, request):
    from nlsqp.lattice import default_box
    if name == "b3":
        return B3, B3_BOX
    if name == "p3":
        return P3, default_box(P3)
    spec = request.getfixturevalue(name)
    return spec, default_box(spec)


def sweep_samples(spec, n, seed):
    return 1.0 - np.random.default_rng(seed).random((n, spec.b))


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "p3", "b3"])
def test_excision_sweep_matches_hand_built_blocks(name, request):
    spec, box = sweep_case(name, request)
    res = excision_sweep(spec, [1e-2], n_samples=100, seed=5, box=box)
    expected = hand_built_min_block_values(spec, sweep_samples(spec, 100, 5), box)
    assert np.array_equal(res.min_block_values, expected)


def per_sample_dio_kappas(spec, samples, kappa, gamma, n_radius):
    """Reference: one `q_solve` and one `diophantine_check` per sample."""
    out = []
    for a in samples:
        spec_a = spec.with_amplitudes(a)
        omega = q_solve(linear_solution(spec_a)[0], spec_a)
        out.append(diophantine_check(omega, spec.delta, kappa, gamma,
                                     n_radius).fitted_kappa)
    return np.array(out)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "p3", "b3"])
def test_excision_sweep_dio_kappas_match_per_sample_loop(name, request):
    # 300 samples: two full chunks of the batched pass and a partial one.
    spec, box = sweep_case(name, request)
    res = excision_sweep(spec, [1e-2], n_samples=300, seed=8, box=box, dio_radius=10)
    expected = per_sample_dio_kappas(spec, sweep_samples(spec, 300, 8), 1e-2,
                                     2 * spec.b + 2, 10)
    assert np.array_equal(res.dio_kappas, expected)


def test_excision_sweep_is_one_batched_pass(tp2, monkeypatch):
    # One det per block size per chunk of samples; no per-sample q_solve
    # or diophantine_check.
    from nlsqp import newton
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    monkeypatch.setattr(newton, "q_solve", None)
    monkeypatch.setattr(newton, "diophantine_check", None)
    excision_sweep(tp2, [1e-2], n_samples=300, seed=1)
    n_sizes = len({shape[-1] for shape in calls})
    assert n_sizes >= 2
    assert [shape[0] for shape in calls] == [128] * 2 * n_sizes + [44] * n_sizes


@pytest.mark.parametrize("name, components, classes", [
    ("tp2", {1: 45, 4: 5}, {1: 1, 4: 1}),
    ("tp3", {1: 521, 2: 235, 4: 17}, {1: 1, 2: 3, 4: 1}),
])
def test_excision_sweep_dets_one_block_per_class(name, components, classes, request,
                                                 monkeypatch):
    # Translates with the same kind pattern share one det: the block axis of
    # each det stack is the class count of its size, not the component count.
    from collections import Counter

    from nlsqp.characteristics import resonance_graph
    from nlsqp.lattice import default_box
    spec = request.getfixturevalue(name)
    graph = resonance_graph(spec, default_box(spec))
    assert Counter(np.diff(graph.bounds).tolist()) == components
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    excision_sweep(spec, [1e-2], n_samples=100, seed=1)
    assert calls == [(100, n, k, k) for k, n in sorted(classes.items())]


def test_component_blocks_gather_nothing_and_the_sweep_convolves_no_seed(monkeypatch):
    # The sweep, the gate, `box_inverse` without its decay fit and the
    # theta scan read every block term off the links that found it: the
    # sweep convolves no seed symbols beyond its own batch, and only
    # condition (ii) pairs spirals.
    from nlsqp import characteristics, conditions, linop, newton
    symbols = ConvolutionSymbols.from_fields(*linear_solution(B3), B3.p)
    box = Box(4, 9)
    lattice = linop.lattice_box(B3, box)
    assert not lattice.seeds.all()  # the gate has blocks to build

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for module, name in ((characteristics, "seed_symbols"), (newton, "seed_symbols"),
                         (conditions, "_spiral_pairs")):
        monkeypatch.setattr(module, name, refuse)
    excision_sweep(B3, [1e-2], n_samples=100, seed=1, box=B3_BOX)
    assert linop.admissibility_gate(B3.omega0(), B3, box, symbols, lattice=lattice) < math.inf
    linop.box_inverse(symbols, B3.omega0(), B3, B3_BOX, fit_decay=False)
    linop.theta_spectrum_scan(symbols, B3.omega0(), B3, B3_BOX, [0.0, 0.25])


def component_block(vertices, comp):
    """A component's block as (kind, shift) matrices, built from the vertex
    list entry by entry: kind 0 diagonal symbol, 1 uu, 2 vv."""
    from nlsqp.characteristics import CharClass
    sites = [vertices[i] for i in comp]
    kind = tuple(tuple(0 if tr is tc else 1 if tr is CharClass.CPLUS else 2
                       for _, tc in sites) for _, tr in sites)
    return kind, tuple(tuple(sr - sc for sc, _ in sites) for sr, _ in sites)


def injected_case(tp2):
    # On a seed's own symbols the member offsets of a component fix its kind
    # pattern: diagonal shifts have n-sum 0, uu shifts +2 and vv shifts -2,
    # so n-sum minus tag is constant on a component.  A uu edge at an
    # n-sum-0 shift breaks that, and tp2's box then holds translated size-5
    # components that differ only in their kind pattern.
    from nlsqp.lattice import default_box
    shift = site((-1, 0), (1,))
    return tp2, default_box(tp2), injected_symbols(tp2, {"uu": [shift], "vv": [-shift]})


def sweep_terms(spec):
    """The sweep's (coef, symbol) pairs of uv_p, uu and vv at the spec's own
    amplitudes, and the sorted sites of each symbol, its supports."""
    from nlsqp.newton import _seed_symbols_batch
    uv_p, uu, vv, _ = _seed_symbols_batch(spec, np.array([spec.amplitudes]))
    terms = ((spec.p + 1, uv_p), (spec.p, uu), (spec.p, vv))
    return terms, [sorted(sym) for _, sym in terms]


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3", "tp2-injected"])
def test_sweep_plan_covers_every_component(name, request):
    # The loop-built (kind, shift) matrix of every component, mapped to the
    # position of its term among the supports (-1 for none), is the term
    # matrix of exactly one class.
    from nlsqp.characteristics import resonance_graph
    from nlsqp.newton import _sweep_classes
    if name == "tp2-injected":
        spec, box, symbols = injected_case(request.getfixturevalue("tp2"))
        supports = symbols.supports()
    else:
        spec, box = sweep_case(name, request)
        supports = sweep_terms(spec)[1]
    graph = resonance_graph(spec, box, supports)
    classes = _sweep_classes(graph, supports)
    planned = [tuple(map(tuple, terms)) for _, at in classes for terms in at.tolist()]
    entries = [(kind, s) for kind, sup in enumerate(supports) for s in sup]
    position = {entry: i for i, entry in enumerate(entries)}
    vertices = tagged_vertices(graph, spec.b)
    wanted = set()
    for comp in component_members(graph):
        kinds, shifts = component_block(vertices, comp)
        wanted.add(tuple(tuple(position.get(entry, -1) for entry in zip(kr, sr))
                         for kr, sr in zip(kinds, shifts)))
    assert len(planned) == len(set(planned))  # one block per class
    assert set(planned) == wanted
    if name == "tp2-injected":
        # Two classes of size 5, translates that differ only in their kinds.
        fives = [reps for reps, at in classes if at.shape[1] == 5][0].tolist()
        assert len(fives) == 2
        assert component_block(vertices, fives[0])[1] == component_block(vertices, fives[1])[1]


@pytest.mark.parametrize("name", ["tp2", "tp3"])
def test_sweep_class_blocks_are_dense_blocks_over_delta(name, request):
    # At the spec's own amplitudes each class block of the sweep is F' on
    # the class's first component over delta: the gate's `_dense` of the
    # vertices with their tags as copies, its terms looked up by the
    # `_gather` oracle.  At omega0 with phase_m = 0 the dispersion diagonal
    # vanishes on the variety, so the two differ only by the rounding of
    # delta.
    from nlsqp.characteristics import resonance_graph
    from nlsqp.lattice import default_box
    from nlsqp.linop import _dense
    from nlsqp.newton import _sweep_classes, _term_table
    spec = request.getfixturevalue(name)
    assert spec.phase_m == 0
    u0, v0 = linear_solution(spec)
    graph = resonance_graph(spec, default_box(spec))
    terms, supports = sweep_terms(spec)
    table = _term_table(terms, supports, 1)[0]
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    classes = _sweep_classes(graph, supports)
    assert sum(len(reps) for reps, _ in classes) == {"tp2": 2, "tp3": 5}[name]
    for reps, at in classes:
        gathered = _gather(graph.vertices, graph.tags, reps[:, :, None], reps[:, None, :],
                           symbols.supports())
        dense = _dense(graph.vertices, graph.tags, reps, symbols, spec.omega0(), spec, gathered)
        dense /= spec.delta
        assert np.abs(table[at] - dense).max() <= 1e-12 * np.abs(dense).max()


def test_excision_sweep_memory_does_not_grow_with_samples(tp2):
    # Symbol tables per group of samples: 20x the samples costs well under
    # 2x the peak.
    import tracemalloc

    def peak(n):
        tracemalloc.start()
        try:
            excision_sweep(tp2, [1e-2], n_samples=n, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # fill the caches first
    small, large = peak(1000), peak(20000)
    assert large < 2 * small


@pytest.mark.parametrize("spec", [
    make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.6, 0.8]),
    make_spec(d=2, b=2, p=2, delta=1e-3, j_list=[(1, 0), (0, 1)], amplitudes=[0.9, 0.35]),
    make_spec(d=1, b=2, p=3, delta=1e-3, j_list=[1, 3], amplitudes=[0.6, 0.8]),
    B3,
])
def test_seed_symbols_batch_matches_from_fields(spec):
    # Extreme amplitude ratios make the drop cutoff fire in some samples
    # and not in others of the same batch.
    from nlsqp.characteristics import ConvolutionSymbols
    from nlsqp.lattice import conjugate_flip, conv_power, convolve
    from nlsqp.newton import _seed_symbols_batch
    rng = np.random.default_rng(spec.b + spec.p)
    amps = np.vstack([
        np.full(spec.b, 1.0), np.full(spec.b, 1e-300),
        [1.0] + [1e-9] * (spec.b - 1), [1e-9] + [1.0] * (spec.b - 1),
        [1.0] + [1e-5] * (spec.b - 1), [1e-4] * (spec.b - 1) + [1.0],
        10.0 ** rng.uniform(-12, 0, (20, spec.b)),
        1.0 - rng.random((20, spec.b)),
    ])
    uv_p, uu, vv, bracket = _seed_symbols_batch(spec, amps)
    dropped = 0
    for i, a in enumerate(amps):
        spec_a = spec.with_amplitudes(a)
        u0, v0 = linear_solution(spec_a)
        ref = ConvolutionSymbols.from_fields(u0, v0, spec.p)
        for batch, series in ((uv_p, ref.uv_p), (uu, ref.uu), (vv, ref.vv)):
            assert set(series.support()) <= set(batch)
            for s, vals in batch.items():
                assert vals[i] == series[s]
                dropped += s not in series
        gu = convolve(conv_power(convolve(u0, conjugate_flip(u0)), spec.p), u0)
        assert list(bracket[i]) == [gu[s] for s in spec.seed_sites()]
    assert dropped > 0  # the cutoff fired


def test_diophantine_candidates_built_once():
    from nlsqp.newton import _dio_candidates, _dio_table
    first = _dio_candidates(2, 7)
    assert isinstance(first, tuple)
    assert _dio_candidates(2, 7) is first
    assert _dio_table(2, 7, 6.0) is _dio_table(2, 7, 6.0)


def loop_dio_candidates(b, n_radius):
    """The candidate table by a loop over the box: each nonzero n made
    canonical (first nonzero entry positive), deduplicated, sorted by (sup
    norm, l1 norm, -n)."""
    cands = set()
    for n in itertools.product(range(-n_radius, n_radius + 1), repeat=b):
        if any(n):
            lead = next(x for x in n if x)
            cands.add(n if lead > 0 else tuple(-x for x in n))
    return tuple(sorted(cands, key=lambda n: (max(map(abs, n)), sum(map(abs, n)),
                                              tuple(-x for x in n))))


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_diophantine_candidates_equal_the_loop_table(b):
    from nlsqp.newton import _dio_candidates
    for n_radius in range(0, 5):
        assert _dio_candidates(b, n_radius) == loop_dio_candidates(b, n_radius)


def scalar_diophantine_scan(omega, delta, gamma, n_radius):
    """Per-candidate scan, one `omega.dot(n)` each: the oracle for the
    vectorised scan."""
    from nlsqp.newton import _dio_candidates
    best = None
    for n in _dio_candidates(len(omega), n_radius):
        x = omega.dot(n)
        margin = abs(x - round(x))
        fitted = margin * max(abs(c) for c in n) ** gamma / delta
        if best is None or fitted < best[0]:
            best = (fitted, n, margin)
    return best


@pytest.mark.parametrize("b, n_radius", [(1, 20), (2, 10), (3, 5)])
def test_diophantine_scan_equals_scalar_loop(b, n_radius):
    # Bitwise: same summation order, round-half-even and first minimum.
    rng = np.random.default_rng(b)
    omegas = [tuple(1.0 + 0.01 * rng.random(b)) for _ in range(60)]
    omegas += [(0.5,) * b, (0.25,) * b, (3.0,) * b]  # ties and exact halves
    for i, w in enumerate(omegas):
        omega = FrequencyVector(tuple(float(x) for x in w))
        gamma = (2 * b + 2, 6.0, 3.7)[i % 3]
        rep = diophantine_check(omega, 1e-3, 1e-2, gamma, n_radius)
        fitted, worst_n, margin = scalar_diophantine_scan(omega, 1e-3, gamma,
                                                          n_radius)
        assert type(rep.fitted_kappa) is float
        assert (rep.fitted_kappa, rep.worst_n, rep.worst_margin) == \
            (fitted, worst_n, margin)
        assert rep.passed == (fitted >= 1e-2)


def test_newton_step_factors_once(tp2, monkeypatch):
    # One dense LU per step, on the lattice: nothing else is factored.
    u0, v0 = linear_solution(tp2)
    box = Box(9, 3)
    plain, weighted = residual_norms(u0, v0, tp2.omega0(), tp2)
    state = IterationState(u=u0, v=v0, omega=tp2.omega0(), residual_plain=plain,
                           residual_weighted=weighted, step_index=0, lattice_radius=4)
    calls = []
    dense_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(a.shape) or dense_solve(a, b))
    nxt = newton_step(state, tp2, box)
    # Lambda_4 holds 10 sites: 20 equations, 4 of them the seed equations.
    assert calls == [(16, 16)]
    assert nxt.lattice_radius == 4
    assert nxt.residual_weighted < weighted
