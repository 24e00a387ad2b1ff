import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqp.lattice import (
    Box,
    FrequencyVector,
    SparseSeries,
    SiteIndex,
    linear_solution,
    make_spec,
    site,
)
from nlsqp._intlinalg import lattice_basis
from nlsqp.cli import VerifyCfg
from nlsqp.newton import q_solve, residual_series, solve
from nlsqp.verify import (
    GridTooCoarse,
    IntegratorInstability,
    VerifyError,
    WeightSpec,
    _linear_propagator,
    default_weight,
    evolve_drift,
    pde_residual,
    weighted_norm,
)
from oracles import frozen_evolve_drift


def test_weight_flat_inside_core():
    w = WeightSpec(beta=0.3, x0=4)
    f = SparseSeries(1, 1, {site((2,), (1,)): 0.7})  # l1 = 3 <= x0
    assert weighted_norm(f, w) == pytest.approx(0.7)


def test_weight_exponential_outside():
    w = WeightSpec(beta=0.2, x0=3)
    f = SparseSeries(1, 1, {site((6,), (2,)): 1.0})  # l1 = 8 = x0 + 5
    assert weighted_norm(f, w) == pytest.approx(math.exp(0.2 * 5))


def test_weight_beta_zero_limit_is_plain_l2():
    # beta may not be 0 by contract; a tiny beta approaches plain l2.
    w = WeightSpec(beta=1e-12, x0=0)
    f = SparseSeries(1, 1, {site((3,), (1,)): 1.0, site((0,), (2,)): 2.0})
    assert weighted_norm(f, w) == pytest.approx(math.sqrt(5), rel=1e-9)


def test_weight_large_support_no_overflow():
    w = WeightSpec(beta=0.9, x0=0)
    f = SparseSeries(1, 1, {site((n,), (0,)): 1.0 for n in range(1, 700)})
    out = weighted_norm(f, w)
    assert math.isfinite(out)
    # Geometric-sum oracle: sqrt(sum_{n=1}^{699} e^{1.8 n}).
    expected = math.exp(0.9 * 699) * math.sqrt(1.0 / (1.0 - math.exp(-1.8)))
    assert out == pytest.approx(expected, rel=1e-9)
    # Past the float range the accumulation still cannot raise.
    g = SparseSeries(1, 1, {site((n,), (0,)): 1.0 for n in range(1, 2000)})
    assert weighted_norm(g, w) == math.inf


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.45),
       st.floats(min_value=0.5, max_value=0.95))
def test_weight_monotone_in_beta(b1, b2):
    f = SparseSeries(1, 1, {site((4,), (2,)): 1.0, site((1,), (5,)): 0.5})
    n1 = weighted_norm(f, WeightSpec(beta=b1, x0=1))
    n2 = weighted_norm(f, WeightSpec(beta=b2, x0=1))
    assert n2 >= n1


def test_default_weight_keeps_seed_unweighted(tp2):
    w = default_weight(tp2)
    for s in tp2.seed_sites():
        assert w.log_weight(s) == 0.0


def test_pde_residual_tp1_exact(tp1):
    rep = solve(tp1)
    res = pde_residual(rep.physical_u(), rep.state.omega, tp1)
    assert res.sup <= 1e-12


def test_pde_residual_seed_is_not_a_solution(tp1):
    # The linear seed under the nonlinear flow leaves an O(A^{2p+1}) defect.
    u0, _ = linear_solution(tp1)
    u_phys = u0.scale(math.sqrt(tp1.delta))
    res = pde_residual(u_phys, tp1.omega0(), tp1)
    amp = math.sqrt(tp1.delta) * 0.7
    assert res.sup == pytest.approx(amp ** 3, rel=1e-6)


def test_pde_residual_consistent_with_lattice_residual(tp2):
    rep = solve(tp2)
    u_phys = rep.physical_u()
    res = pde_residual(u_phys, rep.state.omega, tp2, grid=(64, 33))
    fu, fv = residual_series(u_phys.scale(tp2.delta ** -0.5), rep.state.v,
                             rep.state.omega, tp2)
    lattice = math.sqrt(tp2.delta) * fu.norm2()  # back to physical scale
    assert res.mean <= 10 * lattice


def test_pde_residual_nyquist_guard(tp1):
    rep = solve(tp1)
    with pytest.raises(GridTooCoarse):
        pde_residual(rep.physical_u(), rep.state.omega, tp1, grid=(64, 3))


def test_evolve_tp1_plane_wave_exact(tp1):
    rep = solve(tp1)
    drift = evolve_drift(rep.physical_u(), rep.state.omega, tp1, T=10.0, dt=1e-3)
    assert drift.amp_drift <= 1e-8
    assert float(np.abs(drift.phase_error).max()) <= 1e-8


def test_phase_error_does_not_alias_a_seed_faster_than_pi_over_dt():
    # omega = 36 turns the phase by 3.6 > pi per step at dt = 0.1, so an
    # unwrap of the phase itself read 100 turns of error over T = 10.
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[6], amplitudes=[0.7])
    rep = solve(spec)
    drift = evolve_drift(rep.physical_u(), rep.state.omega, spec, T=10.0, dt=0.1)
    omega = rep.state.omega.omega[0]
    assert omega * 0.1 > math.pi
    assert float(np.abs(drift.phase_error).max()) <= 1e-8
    assert np.abs(np.diff(drift.mode_phases[:, 0]) + omega * np.diff(drift.times)).max() <= 1e-8


def test_evolve_mass_conservation(tp2):
    rep = solve(tp2)
    drift = evolve_drift(rep.physical_u(), rep.state.omega, tp2, T=50.0, dt=1e-2)
    assert drift.mass_drift <= 1e-10


def test_evolve_dt_guard(tp1):
    rep = solve(tp1)
    with pytest.raises(IntegratorInstability):
        evolve_drift(rep.physical_u(), rep.state.omega, tp1, T=10.0, dt=0.9)


@pytest.mark.parametrize("T, dt", [(0.04, 0.1), (0.05, 0.1), (1e-9, 1e-2)])
def test_evolve_drift_refuses_a_T_of_no_step(tp2, T, dt):
    # round(T / dt) = 0 steps used to integrate nothing and report zero drift.
    u, _ = linear_solution(tp2)
    with pytest.raises(VerifyError, match=f"T = {T!r} rounds to no step of dt = {dt!r}"):
        evolve_drift(u, tp2.omega0(), tp2, T=T, dt=dt)


def test_evolve_drift_refuses_a_T_over_dt_past_the_floats(tp2):
    # T / dt overflows to inf: round(inf) used to escape as an OverflowError.
    u, _ = linear_solution(tp2)
    with pytest.raises(VerifyError, match=r"T = 1e\+300 over dt = 1e-10 is no finite step count"):
        evolve_drift(u, tp2.omega0(), tp2, T=1e300, dt=1e-10)


def test_evolve_drift_takes_a_T_that_is_no_multiple_of_dt(tp2):
    # T = 0.06 is one step of dt = 0.1, as criterion 8's T = 200 pi is
    # round(T / dt) steps of dt = 1e-2.
    u, _ = linear_solution(tp2)
    drift = evolve_drift(u, tp2.omega0(), tp2, T=0.06, dt=0.1)
    assert drift.times.tolist() == [0.0, 0.1]


def test_pde_residual_and_drift_d2(tp3):
    # In d = 2 the pointwise defect of the lattice-truncated solution is
    # pure truncation tail; it must agree with the full-lattice residual
    # taken in physical scale.  The solution reaches |j| = 6, so the grid
    # has 13 points per axis.
    from nlsqp.lattice import Box
    rep = solve(tp3, box=Box(6, 3))
    u_phys = rep.physical_u()
    res = pde_residual(u_phys, rep.state.omega, tp3, grid=(32, 13))
    fu, _ = residual_series(rep.state.u, rep.state.v, rep.state.omega, tp3)
    lattice = tp3.delta ** (1.0 / (2 * tp3.p)) * fu.norm2()
    assert res.mean <= 10 * lattice
    assert res.sup <= 100 * lattice
    drift = evolve_drift(u_phys, rep.state.omega, tp3, T=5.0, dt=5e-3)
    assert drift.amp_drift <= 1e-5
    assert drift.mass_drift <= 1e-10


def test_collocation_residual_tracks_newton_residual(tp2):
    # The pointwise defect drops hugely across the first Newton step and
    # keeps shrinking (within slack) while the lattice residual shrinks.
    from nlsqp.newton import first_iteration, newton_step
    from nlsqp.lattice import default_box
    scale = math.sqrt(tp2.delta)
    u0, _ = linear_solution(tp2)
    from nlsqp.newton import q_solve
    sups = [pde_residual(u0.scale(scale), q_solve(u0, tp2), tp2).sup]
    state, _ = first_iteration(tp2)
    sups.append(pde_residual(state.u.scale(scale), state.omega, tp2).sup)
    state = newton_step(state, tp2, default_box(tp2))
    sups.append(pde_residual(state.u.scale(scale), state.omega, tp2).sup)
    assert sups[1] <= 1.1 * sups[0]
    assert sups[2] <= 1.1 * sups[1]
    assert sups[1] <= 0.1 * sups[0]


# -- Split-step integrator against the textbook S6 loop ----------------------

# Blanes & Moan's S6 splitting (J. Comput. Appl. Math. 142, 2002), written out
# here apart from the module's table: seven phase-flow coefficients b and six
# free-flow coefficients a, each pair of tables symmetric.
B1, B2, B3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
A1, A2 = 0.209515106613362, -0.143851773179818
S6_B = (B1, B2, B3, 1 - 2 * (B1 + B2 + B3), B3, B2, B1)
S6_A = (A1, A2, 0.5 - A1 - A2, 0.5 - A1 - A2, A2, A1)


def fft_free_flow_phase(m, d, dt):
    """e^{-i |k|^2 dt} on the FFT frequencies of an m^d grid."""
    k1 = np.fft.fftfreq(m, d=1.0 / m)
    grids = np.meshgrid(*([k1] * d), indexing="ij")
    return np.exp(-1j * sum(k ** 2 for k in grids) * dt)


def initial_field(u, spec):
    """psi(0, x) on the m^d x-grid, m sized from max|j| by evolve_drift's
    power-of-two rule."""
    terms = u.items()
    max_j = max((max(abs(c) for c in s.j) for s, _ in terms), default=1)
    m = max(16, 2 ** math.ceil(math.log2(2 * (2 * spec.p + 1) * max_j + 2)))
    psi = np.zeros((m,) * spec.d, dtype=complex)
    for s, val in terms:
        psi[tuple(c % m for c in s.j)] += val
    return np.fft.ifftn(psi) * psi.size


def fft_s6_reference(u, omega, spec, T, dt, n_samples=200):
    """The textbook S6 split-step loop on the x-grid, every stage on its own:
    each phase flow is exp of a complex array and each free flow an FFT pair;
    same grid and sampling rules as evolve_drift.  Returns times, mode
    amplitudes, unwrapped mode phases, the relative l2 mass drift and the
    largest relative l2 gap of psi_hat to sum_n u_{n,j} e^{i (n.omega) t}."""
    psi = initial_field(u, spec)
    m = psi.shape[0]
    lin_phases = [fft_free_flow_phase(m, spec.d, a * dt) for a in S6_A]
    steps = int(round(T / dt))
    max_omega = max(1.0, max(abs(w) for w in omega.omega))
    sample_every = max(1, min(steps // max(1, n_samples),
                              int(0.5 * math.pi / max_omega / dt)))
    bins = [tuple(c % m for c in j) for j in spec.j_list]
    times, amps, phases, gaps = [], [], [], []

    def record(tnow):
        ft = np.fft.fftn(psi) / psi.size
        times.append(tnow)
        amps.append([abs(ft[b]) for b in bins])
        phases.append([math.atan2(ft[b].imag, ft[b].real) for b in bins])
        field = np.zeros_like(ft)
        for s, val in u.items():
            field[tuple(c % m for c in s.j)] += val * np.exp(
                1j * np.dot(s.n, omega.omega) * tnow)
        gaps.append(np.linalg.norm(ft - field) / np.linalg.norm(field))

    def phase_flow(psi, tau):
        return psi * np.exp(-1j * (np.abs(psi) ** (2 * spec.p) + spec.phase_m) * tau)

    mass0 = np.sum(np.abs(psi) ** 2)
    record(0.0)
    for step in range(steps):
        for b, lin_phase in zip(S6_B, lin_phases):
            psi = phase_flow(psi, b * dt)
            psi = np.fft.ifftn(np.fft.fftn(psi) * lin_phase)
        psi = phase_flow(psi, S6_B[-1] * dt)
        if (step + 1) % sample_every == 0 or step == steps - 1:
            record((step + 1) * dt)
    mass_drift = abs(np.sum(np.abs(psi) ** 2) - mass0) / mass0
    return (np.array(times), np.array(amps), np.unwrap(np.array(phases), axis=0),
            float(mass_drift), max(gaps))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", [16, 32, 64])
def test_linear_propagator_unitary_and_matches_fft(d, m):
    dt = 1e-2
    k = np.fft.fftfreq(m, d=1.0 / m)
    prop = _linear_propagator(k ** 2, dt)
    assert np.abs(prop.conj().T @ prop - np.eye(m)).max() <= 1e-13
    lin_phase = fft_free_flow_phase(m, d, dt)
    rng = np.random.default_rng(m + d)
    for _ in range(3):
        f = rng.standard_normal((m,) * d) + 1j * rng.standard_normal((m,) * d)
        ref = np.fft.ifftn(np.fft.fftn(f) * lin_phase)
        got = prop @ f if d == 1 else prop @ f @ prop.T
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(f).max()


@functools.lru_cache(maxsize=None)
def solved(spec):
    return solve(spec)


# Seeds that no fixture covers: tp3 with a mass term, a p = 3 seed (the
# nonlinearity |u|^6 u) and a support of rank 2.  solve refuses tp3 with
# phase_m = 0.25 (an off-characteristic diagonal); these evolve the linear
# seed at its modulated frequency.
LINEAR_SEEDS = {
    "tp3_phase_m": make_spec(d=2, b=2, p=2, delta=1e-3, j_list=[(1, 0), (0, 1)],
                             amplitudes=[0.9, 0.35], phase_m=0.25),
    "p3": make_spec(d=1, b=2, p=3, delta=1e-3, j_list=[1, 3], amplitudes=[0.6, 0.8]),
    "rank_two": make_spec(d=2, b=3, p=1, delta=1e-2, j_list=[(1, 0), (0, 1), (2, 1)],
                          amplitudes=[0.6, 0.8, 0.5]),
}


def evolve_input(name, request):
    """u in physical scaling, omega and spec of a named case."""
    if name in LINEAR_SEEDS:
        spec = LINEAR_SEEDS[name]
        u0, _ = linear_solution(spec)
        return u0.scale(spec.delta ** (1.0 / (2 * spec.p))), q_solve(u0, spec), spec
    spec = request.getfixturevalue(name)
    rep = solved(spec)
    return rep.physical_u(), rep.state.omega, spec


@pytest.mark.parametrize("name, T, dt", [("tp2", 20.0, 1e-2), ("tp3", 10.0, 1e-2),
                                         ("tp2", 20.0, 0.1), ("tp3", 10.0, 0.1),
                                         ("tp3_phase_m", 10.0, 0.1), ("p3", 20.0, 1e-2),
                                         ("p3", 20.0, 0.1)])
def test_evolve_matches_fft_s6_reference(name, T, dt, request):
    # Fusing adjacent phase flows, the dense propagators and the sub-torus
    # change only the rounding: the sampled modes follow the textbook loop,
    # and so does the trajectory error where it is well above rounding.
    u, omega, spec = evolve_input(name, request)
    drift, gap = assert_matches_fft_s6_reference(u, omega, spec, T, dt)
    if dt == 0.1:
        assert drift.trajectory_error > 1e-11
        assert drift.trajectory_error == pytest.approx(gap, rel=1e-2)


def assert_matches_fft_s6_reference(u, omega, spec, T, dt):
    drift = evolve_drift(u, omega, spec, T=T, dt=dt)
    times, amps, phases, _, gap = fft_s6_reference(u, omega, spec, T, dt)
    assert np.array_equal(drift.times, times)
    assert np.abs(drift.mode_amps - amps).max() <= 1e-12
    assert np.abs(drift.mode_phases - phases).max() <= 1e-11
    return drift, gap


def test_evolve_d3_seed_on_its_rank_one_sub_torus_matches_the_x_grid():
    # tp3's modes embedded in d = 3: 64 sub-torus points against the
    # 64^3 x-grid of the textbook loop, at the default dt.
    spec = make_spec(d=3, b=2, p=2, delta=1e-3, j_list=[(1, 0, 0), (0, 1, 0)],
                     amplitudes=[0.9, 0.35])
    rep = solve(spec, box=Box(6, 3))
    drift, gap = assert_matches_fft_s6_reference(
        rep.physical_u(), rep.state.omega, spec, T=2.0, dt=0.1)
    assert (drift.rank, drift.grid) == (1, 64)
    # The truncated solution's own defect (~1e-9) dominates this gap.
    assert drift.trajectory_error == pytest.approx(gap, rel=1e-2)


def test_evolve_rank_two_support_with_cross_terms_matches_the_x_grid():
    # Seed differences (-1, 1) and (1, 1) span an index-2 lattice whose
    # echelon basis has b1.b2 != 0, so the free-flow symbol |j0 + Bc|^2 has a
    # c1 c2 term and does not factor by axis.
    spec = make_spec(d=2, b=3, p=1, delta=1e-2, j_list=[(1, 0), (0, 1), (2, 1)],
                     amplitudes=[0.6, 0.8, 0.5])
    b1, b2 = lattice_basis([(-1, 1), (1, 1)])
    assert np.dot(b1, b2) != 0
    u0, _ = linear_solution(spec)
    drift, _ = assert_matches_fft_s6_reference(
        u0.scale(math.sqrt(spec.delta)), spec.omega0(), spec, T=10.0, dt=1e-2)
    assert drift.rank == 2
    assert drift.amp_drift > 1e-6  # the nonlinearity moves the modes


# amp_drift and mass_drift of the textbook x-grid loop `fft_s6_reference` at
# the default verify run (T = 100, dt = 0.1).  Both are rounding: the fused
# sub-torus loop may differ from them, but not grow past a small multiple.
X_GRID_DRIFT = {
    "tp1": (2.825907474930265e-13, 5.646701926904098e-13),
    "tp2": (1.4134761829217655e-13, 1.235990405549874e-13),
    "tp3": (5.416013189070454e-13, 9.845393320448303e-13),
}


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_evolve_drift_equals_the_x_grid_integrator(name, request):
    spec = request.getfixturevalue(name)
    rep = solved(spec)
    drift = evolve_drift(rep.physical_u(), rep.state.omega, spec, T=100.0, dt=0.1)
    amp, mass = X_GRID_DRIFT[name]
    assert drift.amp_drift <= 3 * amp
    assert drift.mass_drift <= 3 * mass


def batched_transform(monkeypatch, u, omega, spec, T, dt):
    """The drift report, the sampled phi that evolve_drift transforms in one
    batched fftn over the grid axes, and that transform."""
    calls = []
    fftn = np.fft.fftn

    def spy(a, *args, **kw):
        out = fftn(a, *args, **kw)
        if "axes" in kw:
            calls.append((a.copy(), out.copy()))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fftn", spy)
        drift = evolve_drift(u, omega, spec, T=T, dt=dt)
    assert len(calls) == 1 and len(calls[0][0]) == len(drift.times)
    return drift, calls[0][0], calls[0][1]


def captured_final_field(monkeypatch, u, omega, spec, T, dt):
    """phi on the sub-torus grid at t = T: the last sample evolve_drift
    transforms."""
    drift, snaps, _ = batched_transform(monkeypatch, u, omega, spec, T, dt)
    assert drift.rank == 1 and drift.times[-1] == T
    return snaps[-1]


@pytest.mark.parametrize("name", ["tp3", "rank_two"])
def test_batched_sample_transform_equals_one_fftn_per_sample(name, request, monkeypatch):
    # One fftn over the (samples, m^r) stack gives each row the bits of a
    # transform of that sample alone, on a rank-1 and a rank-2 grid.
    u, omega, spec = evolve_input(name, request)
    drift, snaps, batched = batched_transform(monkeypatch, u, omega, spec, T=2.0, dt=0.1)
    assert snaps.ndim == drift.rank + 1
    for snap, row in zip(snaps, batched):
        assert_same_bits(row, np.fft.fftn(snap))


def test_evolve_drift_is_fourth_order(tp2, monkeypatch):
    # S6 is of order 4: each halving of dt divides the error at t = T by
    # about 16.  The error is the relative l2 gap of the field to a run of
    # the same loop at dt / 16.  A wrong coefficient breaks the order
    # conditions and shows as a ratio near 4 or 2.
    rep = solved(tp2)
    u, omega = rep.physical_u(), rep.state.omega
    errs = []
    for dt in (0.25, 0.125, 0.0625):
        phi = captured_final_field(monkeypatch, u, omega, tp2, 10.0, dt)
        ref = captured_final_field(monkeypatch, u, omega, tp2, 10.0, dt / 16)
        errs.append(np.linalg.norm(phi - ref) / np.linalg.norm(ref))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_one_dense_propagator_per_distinct_free_flow_coefficient(tp2, monkeypatch):
    # S6's six free flows take three distinct coefficients.
    from nlsqp import verify
    coeffs = []
    real = verify._linear_propagator
    monkeypatch.setattr(verify, "_linear_propagator",
                        lambda symbol, tau: (coeffs.append(tau), real(symbol, tau))[1])
    rep = solved(tp2)
    evolve_drift(rep.physical_u(), rep.state.omega, tp2, T=1.0, dt=0.1)
    assert sorted(coeffs) == sorted(a * 0.1 for a in set(S6_A))


@pytest.mark.parametrize("name, bound", [("tp2", 1.6e-9), ("tp3", 4.9e-9)])
def test_trajectory_error_at_the_default_dt(name, bound, request):
    # At least 10x below the 1.6e-8 (tp2) and 4.9e-8 (tp3) of a second-order
    # Strang step at dt = 0.01.
    spec = request.getfixturevalue(name)
    rep = solved(spec)
    cfg = VerifyCfg()
    drift = evolve_drift(rep.physical_u(), rep.state.omega, spec, T=cfg.T, dt=cfg.dt)
    assert drift.trajectory_error <= bound


def test_trajectory_error_sees_through_the_b3_beating():
    # Each seed of this b = 3 solution carries three temporal frequencies,
    # so its seed amplitudes beat by ~1.8e-7 whatever the step; the
    # trajectory error compares with the whole predicted field instead.
    # (pde_residual needs t_points = 128 here, so evolve_drift is called
    # directly.)
    spec = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4],
                     amplitudes=[0.6, 0.8, 0.5])
    rep = solve(spec, box=Box(4, 9))
    cfg = VerifyCfg()
    drift = evolve_drift(rep.physical_u(), rep.state.omega, spec, T=cfg.T, dt=cfg.dt)
    assert drift.amp_drift > 1e-7
    assert drift.trajectory_error < 1e-8


def x_grid_residual(u, omega, spec, grid):
    """sup and mean of |i u_t + Lap(u) - |u|^{2p} u - m u| on the full
    t x x^d collocation grid, as `pde_residual` evaluated it before it moved
    to the sub-torus."""
    terms = u.items()
    narr = np.array([s.n for s, _ in terms], dtype=float)
    jarr = np.array([s.j for s, _ in terms], dtype=float)
    amps = np.array([v for _, v in terms], dtype=complex)
    tfreq = narr @ np.array(omega.omega)
    jsq = np.sum(jarr * jarr, axis=1)
    t_points, x_points = grid
    tg = np.linspace(0.0, 2 * math.pi, t_points, endpoint=False)
    xg = np.linspace(0.0, 2 * math.pi, x_points, endpoint=False)
    et = np.exp(1j * np.outer(tfreq, tg))
    ex = np.ones((len(terms), 1), dtype=complex)
    for dim in range(spec.d):
        phase = np.exp(1j * np.outer(jarr[:, dim], xg))
        ex = (ex[:, :, None] * phase[:, None, :]).reshape(len(terms), -1)
    field = np.einsum("kt,kx,k->tx", et, ex, amps)
    lin = np.einsum("kt,kx,k->tx", et, ex, -(tfreq + jsq) * amps)
    resid = np.abs(lin - np.abs(field) ** (2 * spec.p) * field - spec.phase_m * field)
    return float(resid.max()), float(resid.mean())


TP3_IN_D3 = make_spec(d=3, b=2, p=2, delta=1e-3, j_list=[(1, 0, 0), (0, 1, 0)],
                      amplitudes=[0.9, 0.35])


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "tp3_in_d3"])
def test_pde_residual_on_the_sub_torus_matches_the_x_grid(name, request):
    # B^T maps the x-grid onto the sub-torus grid, so sup and mean agree up
    # to rounding: on the solution (residual ~1e-14) and on the solution
    # doubled, which is no solution (residual up to ~1e-2).
    if name == "tp3_in_d3":
        spec, rep = TP3_IN_D3, solve(TP3_IN_D3, box=Box(6, 3))
    else:
        spec = request.getfixturevalue(name)
        rep = solved(spec)
    for scale in (1.0, 2.0):
        u = rep.physical_u().scale(scale)
        res = pde_residual(u, rep.state.omega, spec, grid=(64, 33))
        sup, mean = x_grid_residual(u, rep.state.omega, spec, (64, 33))
        assert (res.t_points, res.x_points) == (64, 33)
        assert res.sup == pytest.approx(sup, rel=1e-12, abs=1e-12)
        assert res.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        if scale == 2.0:
            assert sup > 1e-5


def test_pde_residual_time_grid_message_names_the_least_accepted_count(tp3):
    # The rule is t_points >= 2 max|n.w|; the message rounds that up and
    # names the count it was given beside it.
    rep = solved(tp3)
    u, omega = rep.physical_u(), rep.state.omega
    with pytest.raises(GridTooCoarse, match=r"need at least \d+ time points, got 1$") as exc:
        pde_residual(u, omega, tp3, grid=(1, 33))
    need = int(str(exc.value).split()[3])
    assert need == 3
    with pytest.raises(GridTooCoarse, match=f"need at least {need} time points, got {need - 1}$"):
        pde_residual(u, omega, tp3, grid=(need - 1, 33))
    assert pde_residual(u, omega, tp3, grid=(need, 33)).t_points == need


def test_evolve_non_finite_field_raises(tp3):
    # |psi|^4 overflows, the phase turns NaN, and the mass check must see it
    # at the first step (NaN compares False with any threshold).
    rep = solved(tp3)
    with np.errstate(all="ignore"), \
            pytest.raises(IntegratorInstability, match=r"t=0\.005") as exc:
        evolve_drift(rep.physical_u().scale(1e80), rep.state.omega, tp3,
                     T=1.0, dt=5e-3)
    assert exc.value.suggested_dt == pytest.approx(5e-3 / 4)


def exp_phase(mod2, p, m, tau):
    """The nonlinear rotation as exp of a complex array."""
    return np.exp((mod2 ** p + m) * (-1j * tau))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == complex and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def loop_rotations(u, omega, spec, T, dt, monkeypatch):
    """The rotations evolve_drift's phase flows write (exp in place), each
    asserted bitwise equal to exp_phase of the |phi|^2 its stage read (phi
    conj(phi) into a buffer, as the loop takes it) and of its S6 angle: b1 dt
    first, then per step b2 dt .. b6 dt and 2 b1 dt, or b1 dt where a sample
    is taken.  Returns (rotations, fused phase flows)."""
    sampled = set(np.rint(evolve_drift(u, omega, spec, T=T, dt=dt).times[1:] / dt)
                  .astype(int).tolist())
    steps = int(round(T / dt))
    taus = [S6_B[0] * dt]
    for step in range(1, steps + 1):
        taus += [b * dt for b in S6_B[1:-1]]
        taus.append(S6_B[0] * dt if step in sampled else 2 * (S6_B[0] * dt))
    conj, exp, mod2, rots = np.conjugate, np.exp, [None], []

    def conj_spy(a, *out):
        if out:  # the stage's |phi|^2
            sq = np.empty_like(a)
            np.multiply(a, conj(a, sq), sq)
            mod2[0] = sq.real
        return conj(a, *out)

    def exp_spy(a, *out):
        got = exp(a, *out)
        if out:  # a rotation
            assert_same_bits(got, exp_phase(mod2[0], spec.p, spec.phase_m,
                                            taus[len(rots)]))
            rots.append(got.copy())
        return got

    with monkeypatch.context() as patch:
        patch.setattr(np, "conjugate", conj_spy)
        patch.setattr(np, "exp", exp_spy)
        evolve_drift(u, omega, spec, T=T, dt=dt)
    assert len(rots) == len(taus)
    return rots, steps - len(sampled)


@pytest.mark.parametrize("name", ["tp2", "tp3"])
def test_nonlinear_phase_bitwise_equal_to_complex_exp_on_solutions(name, request, monkeypatch):
    u, omega, spec = evolve_input(name, request)
    for T, dt in ((40.0, 0.1), (4.0, 0.01)):
        assert loop_rotations(u, omega, spec, T, dt, monkeypatch)[1] > 0


# Seeds of rank d = 1 and 2 for the p/m grid.
GRID_SEEDS = {1: ([1, 3], [0.6, 0.8]), 2: ([(1, 0), (0, 1), (2, 1)], [0.6, 0.8, 0.5])}


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("d", [1, 2])
def test_nonlinear_phase_bitwise_equal_to_complex_exp_on_random_fields(p, m, d, monkeypatch):
    # Random amplitudes on the seed sites; at scale 4 the base reaches the
    # hundreds (p = 1) to the millions (p = 3).
    rng = np.random.default_rng(100 * p + 10 * d + int(2 * m))
    js, amps = GRID_SEEDS[d]
    spec = make_spec(d=d, b=len(js), p=p, delta=1e-3, j_list=js, amplitudes=amps, phase_m=m)
    omega = spec.omega0()
    for scale in (1e-3, 1.0, 4.0):
        vals = scale * (rng.standard_normal(len(js)) + 1j * rng.standard_normal(len(js)))
        u = SparseSeries(spec.b, d, dict(zip(spec.seed_sites(), vals)))
        assert loop_rotations(u, omega, spec, 20.0, 0.05, monkeypatch)[1] > 0


def test_nonlinear_phase_at_zero_angle_is_bitwise_the_complex_exp(tp2, tp3, monkeypatch):
    # Scaled by 1e-170, |phi|^2 underflows to 0 at every point, so every
    # phase flow of the loop turns by a zero angle.  As in exp_phase, each
    # rotation is 1 + 0j with an imaginary +0.0 for either sign of tau (a
    # real product -tau base would give -0.0 where tau > 0).
    for spec in (tp2, tp3):
        rep = solved(spec)
        with np.errstate(invalid="ignore"):  # the field's norm underflows too
            rots, _ = loop_rotations(rep.physical_u().scale(1e-170), rep.state.omega,
                                     spec, 1.0, 0.1, monkeypatch)
        assert len(rots) == 61
        for rot in rots:
            assert np.all(rot == 1.0) and not np.any(np.signbit(rot.imag))


def assert_same_report(got, want):
    for f in dataclasses.fields(want):
        a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        assert a.tobytes() == b.tobytes(), f.name


# The pinned CLI digests cover rank 1 with m = 0 and p <= 2 only; these add
# a rank-2 support, p = 3 and a mass term.
@pytest.mark.parametrize("name", ["tp2", "tp3", "rank_two", "p3", "tp3_phase_m"])
@pytest.mark.parametrize("T, dt", [(100.0, 0.1), (10.0, 1e-2)])
def test_evolve_drift_bitwise_equal_to_the_frozen_loop(name, T, dt, request):
    u, omega, spec = evolve_input(name, request)
    assert_same_report(evolve_drift(u, omega, spec, T=T, dt=dt),
                       frozen_evolve_drift(u, omega, spec, T=T, dt=dt))
