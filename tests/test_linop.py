import math

import numpy as np
import pytest

from nlsqp.characteristics import (
    ConvolutionSymbols,
    box_strides,
    conservation_sites,
    members_of_size,
)
from nlsqp.lattice import Box, FrequencyVector, default_box, linear_solution, make_spec, site
from nlsqp.linop import (
    ExcisionError,
    _power_norm,
    assemble,
    block_decompose,
    invert_with_certificates,
    lattice_inverse,
    lattice_operator,
    restricted_solver,
    theta_spectrum_scan,
)
from nlsqp.newton import first_iteration, q_solve, residual_series

# Three modes in one dimension, cubic: Lambda carries small divisors of its
# own.  Box(4, 9) holds 50 of its sites.
B3 = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])


def seed_operator(spec, box=None, theta=0.0):
    u0, v0 = linear_solution(spec)
    return assemble(u0, v0, spec.omega0(), spec, box or Box(9, 3), theta=theta)


def doubled_indices(op, rows, copy):
    """The operator's doubled indices of the rows of a site array, u-copies
    (copy "U") or v-copies ("V")."""
    radii, strides = box_strides(op.spec.b, op.spec.d, op.box)
    return ((np.asarray(rows) + radii) @ strides + (op.n_sites if copy == "V" else 0)).tolist()


def test_assemble_tp1_seed_block_entries(tp1):
    op = seed_operator(tp1)
    a = 0.7
    (iu,) = doubled_indices(op, [[-1, 2]], "U")
    (iv,) = doubled_indices(op, [[1, -2]], "V")
    m = op.matrix
    d = tp1.delta
    assert m[iu, iu] == pytest.approx(d * 2 * a * a)   # diag vanishes on C
    assert m[iu, iv] == pytest.approx(d * a * a)
    assert m[iv, iu] == pytest.approx(d * a * a)
    assert m[iv, iv] == pytest.approx(d * 2 * a * a)


def test_assemble_delta_scaling_leaves_pure_diagonal(tp1):
    # With the coupling scaled out, F' - D has every entry proportional to
    # delta: halving delta halves the off-diagonal part exactly.
    import scipy.sparse as sp
    spec2 = make_spec(d=1, b=1, p=1, delta=5e-4, j_list=[2], amplitudes=[0.7])
    op1, op2 = seed_operator(tp1), seed_operator(spec2)
    a1 = op1.matrix - sp.diags(op1.diag.astype(complex))
    a2 = op2.matrix - sp.diags(op2.diag.astype(complex))
    # Recovering A by subtracting the diagonal costs ~|diag| * eps.
    diff = (a1 - 2 * a2).toarray()
    assert np.max(np.abs(diff)) < 1e-13


def test_assemble_symbol_conjugate_symmetry(tp2):
    op = seed_operator(tp2)
    from nlsqp.lattice import conjugate_flip
    flipped = conjugate_flip(op.symbols.uu)
    assert flipped.support() == op.symbols.vv.support()


def test_assemble_self_adjoint(tp2):
    op = seed_operator(tp2)
    diff = (op.matrix - op.matrix.getH()).toarray()
    assert np.max(np.abs(diff)) == 0.0


def test_assemble_theta_enters_antisymmetrically(tp2):
    op0 = seed_operator(tp2)
    opt = seed_operator(tp2, theta=0.25)
    ns = op0.n_sites
    assert np.allclose(opt.diag[:ns] - op0.diag[:ns], 0.25)
    assert np.allclose(opt.diag[ns:] - op0.diag[ns:], -0.25)


def test_phase_m_enters_both_blocks():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7],
                     phase_m=0.5)
    op = seed_operator(spec)
    ns = op.n_sites
    op0 = seed_operator(make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2],
                                  amplitudes=[0.7]))
    assert np.allclose(op.diag[:ns] - op0.diag[:ns], 0.5)
    assert np.allclose(op.diag[ns:] - op0.diag[ns:], 0.5)


# -- Block decomposition -----------------------------------------------------


def test_block_decompose_tp1(tp1):
    op = seed_operator(tp1)
    dec = block_decompose(op)
    d, a = tp1.delta, 0.7
    two = [i for i, s in enumerate(dec.sizes) if s == 2]
    assert len(two) == 1
    k = two[0]
    eigs = np.sort(np.linalg.eigvalsh(block_lists(dec)[1][k]))
    assert eigs == pytest.approx([d * a * a, 3 * d * a * a])
    assert abs(dec.dets[k]) == pytest.approx(3 * a ** 4 * d * d)


def test_block_dets_delta_invariant_normalized(tp1):
    vals = []
    for dl in (1e-3, 1e-4):
        spec = make_spec(d=1, b=1, p=1, delta=dl, j_list=[2], amplitudes=[0.7])
        dec = block_decompose(seed_operator(spec))
        vals.append(sorted(dec.dets_normalized))
    assert np.allclose(vals[0], vals[1], rtol=1e-12)


def test_block_diag_consistency(tp2):
    # The embedded blocks reproduce P F' P entrywise.
    op = seed_operator(tp2)
    dec = block_decompose(op)
    m = op.matrix
    members, blocks = block_lists(dec)
    for idxs, gamma in zip(members, blocks):
        sub = m[idxs][:, idxs].toarray()
        assert np.array_equal(sub, gamma)
    # and blocks never couple to each other
    for a_idx, idxs_a in enumerate(members):
        for b_idx, idxs_b in enumerate(members):
            if a_idx == b_idx:
                continue
            cross = m[idxs_a][:, idxs_b].toarray()
            assert np.max(np.abs(cross)) == 0.0


def bfs_components(op):
    """Reference: components of the resonant doubled indices found by a
    depth-first walk over the symbol supports, ordered by smallest index."""
    res_idx = [int(i) for i in np.nonzero(op.resonant_mask)[0]]
    res_set = set(res_idx)
    ns = op.n_sites
    diag_shifts = [s for s in op.symbols.uv_p.support() if not s.is_zero()]

    def neighbors(idx):
        comp_u = idx < ns
        s = op.site_at(idx % ns)
        out = []
        for shifts, off in ((diag_shifts, 0 if comp_u else ns),
                            (op.symbols.uu.support() if comp_u
                             else op.symbols.vv.support(), ns if comp_u else 0)):
            for shift in shifts:
                k = op.lin_index(s - shift)
                if k is not None and k + off in res_set:
                    out.append(k + off)
        return out

    seen, comps = set(), []
    for start in res_idx:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nb in neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def block_lists(dec):
    """A decomposition's members and dense blocks, one list entry per block."""
    order, cuts = dec.order.tolist(), dec.bounds.tolist()
    members = [order[a:z] for a, z in zip(cuts[:-1], cuts[1:])]
    blocks = [None] * len(members)
    for k, stack in dec.stacks.items():
        assert stack.shape[1:] == (k, k) and stack.dtype == complex
        assert members_of_size(dec.order, dec.bounds, k).tolist() == \
            [m for m in members if len(m) == k]
        for c, block in zip(np.nonzero(dec.sizes == k)[0].tolist(), stack, strict=True):
            blocks[c] = block
    return members, blocks


def assert_blocks_are_slices(op, dec):
    m = op.matrix
    members, blocks = block_lists(dec)
    assert np.array_equal(dec.sizes, np.diff(dec.bounds))
    assert len(dec.dets) == len(dec.dets_normalized) == len(dec.min_singulars) == len(members)
    for idxs, gamma, det, norm, smin, size in zip(members, blocks, dec.dets,
                                                  dec.dets_normalized, dec.min_singulars,
                                                  dec.sizes):
        sub = m[idxs][:, idxs].toarray()
        assert size == len(idxs)
        assert np.array_equal(gamma, sub)
        assert det == complex(np.linalg.det(sub))
        assert norm == abs(complex(det)) / op.delta ** len(idxs)
        assert smin == float(np.linalg.svd(sub, compute_uv=False)[-1])


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
@pytest.mark.parametrize("drop_seed", [False, True])
def test_block_decompose_matches_reference(name, drop_seed, request):
    spec = request.getfixturevalue(name)
    op = seed_operator(spec)
    exclude = frozenset(op.q_indices()) if drop_seed else frozenset()
    dec = block_decompose(op, exclude=exclude)
    expected = [[i for i in comp if i not in exclude] for comp in bfs_components(op)]
    assert block_lists(dec)[0] == [c for c in expected if c]
    assert_blocks_are_slices(op, dec)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_block_decompose_at_the_modulated_frequency(name, request):
    # Off omega0 the block diagonals carry n.(omega - omega0): still the
    # slices of the assembled matrix, bit for bit.
    spec = request.getfixturevalue(name)
    u0, v0 = linear_solution(spec)
    op = assemble(u0, v0, q_solve(u0, spec), spec, Box(9, 3))
    exclude = frozenset(op.q_indices())
    dec = block_decompose(op, exclude=exclude)
    expected = [[i for i in comp if i not in exclude] for comp in bfs_components(op)]
    assert block_lists(dec)[0] == [c for c in expected if c]
    assert_blocks_are_slices(op, dec)


def test_excision_error_says_whether_the_block_meets_the_lattice(tp1):
    # The seed block holds the u-copy of the seed, a site of Lambda.
    with pytest.raises(ExcisionError) as err:
        invert_with_certificates(seed_operator(tp1), mode="seed", eps_first=0.75)
    assert (err.value.block_index, err.value.site, err.value.meets_lattice) == \
        (1, site((-1,), (2,)), True)
    assert str(err.value).endswith(
        "first member (-1 | 2), the block meets the conservation lattice")


def test_exclude_emptying_a_component_renumbers_later_blocks(tp1):
    # An emptied component is dropped and the later blocks keep their order
    # by smallest original member, so ExcisionError counts without it.
    op = seed_operator(tp1)
    ref = bfs_components(op)
    assert [len(c) for c in ref] == [1, 2, 1, 1, 1]
    dec = block_decompose(op, exclude=frozenset(ref[0]))
    assert block_lists(dec)[0] == ref[1:]
    assert_blocks_are_slices(op, dec)
    # The seed block, second of the full operator and first now, is the only
    # one below 0.75: |P| = 0.7203 against 0.98 for the size-1 blocks.
    with pytest.raises(ExcisionError) as err:
        invert_with_certificates(op, mode="seed", eps_first=0.75, drop_indices=ref[0],
                                 fit_decay=False, power_iters=0)
    assert (err.value.block_index, err.value.size) == (0, 2)
    assert err.value.value == dec.dets_normalized[0]
    assert str(err.value).startswith("block 0 (size 2): |P_k| = 7.203e-01")


def test_block_decompose_batches_determinants(tp3, monkeypatch):
    # One det per distinct block size, not one per block.
    op = seed_operator(tp3)
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a.shape) or det(a))
    dec = block_decompose(op)
    assert len(dec.sizes) > len(set(dec.sizes))
    assert len(calls) == len(set(dec.sizes))


# -- Certified inversion -----------------------------------------------------


def test_invert_tp1_norm(tp1):
    cert = invert_with_certificates(seed_operator(tp1), mode="seed")
    assert cert.norm_bound == pytest.approx(1.0 / (tp1.delta * 0.49), rel=1e-6)


def test_invert_norm_delta_scaling(tp2):
    norms, deltas = [], (1e-2, 1e-3, 1e-4)
    for dl in deltas:
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        cert = invert_with_certificates(seed_operator(spec), mode="seed",
                                        fit_decay=False)
        norms.append(cert.norm_bound)
    slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_invert_decay_certificate(tp2):
    cert = invert_with_certificates(seed_operator(tp2), mode="seed")
    assert cert.decay.beta_hat >= 0.05
    assert cert.decay.bound_ok


def test_invert_excision_error_names_block(tp1):
    op = seed_operator(tp1)
    with pytest.raises(ExcisionError) as err:
        invert_with_certificates(op, mode="seed", eps_first=1e6)
    assert err.value.value >= 0
    assert err.value.threshold == 1e6


def test_power_norm_is_the_spectral_norm_of_a_dense_operator():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    sigma, rounds, settled = _power_norm(lambda x: a @ x, lambda y: a.conj().T @ y,
                                         9, seed=3, max_rounds=500)
    assert settled and 0 < rounds < 500
    exact = np.linalg.norm(a, 2)
    assert abs(sigma - exact) <= 1e-12 * exact


def test_power_norm_with_no_rounds_is_zero_and_unsettled(monkeypatch):
    # A Newton step asks for no rounds: no start vector is drawn.
    def no_rng(seed):
        raise AssertionError("start vector drawn for zero rounds")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    a = np.eye(3)
    assert _power_norm(lambda x: a @ x, lambda y: a @ y, 3, seed=0, max_rounds=0) == \
        (0.0, 0, False)


def test_power_iteration_early_stop_matches_full_run(tp2):
    # At the modulated frequency, as in the final certificate of a solve,
    # the top singular value is well separated and sigma settles early.
    import scipy.sparse.linalg as spla
    u0, v0 = linear_solution(tp2)
    op = assemble(u0, v0, q_solve(u0, tp2), tp2, Box(9, 3))
    cert = invert_with_certificates(op, fit_decay=False,
                                    drop_indices=op.q_indices())
    assert 0 < cert.power_iterations < 60
    # Reference: the same start vector, all 60 rounds, a fresh factor.
    keep = np.setdiff1d(np.arange(op.dim), op.q_indices())
    lu = spla.splu(op.matrix[keep][:, keep].tocsc())
    rng = np.random.default_rng(7)
    x = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
    x /= np.linalg.norm(x)
    for _ in range(60):
        z = lu.solve(lu.solve(x), trans="H")
        sigma = math.sqrt(np.linalg.norm(z))
        x = z / np.linalg.norm(z)
    assert abs(cert.norm_bound - sigma) <= 1e-12 * sigma


def test_power_settled_only_when_sigma_settles(tp2):
    # The tp2 seed operator's top singular values are nearly degenerate:
    # sigma still moves after 60 rounds, so the norm is an estimate.
    cert = invert_with_certificates(seed_operator(tp2), mode="seed", fit_decay=False)
    assert cert.power_iterations == 60
    assert not cert.power_settled
    cert = invert_with_certificates(seed_operator(tp2), mode="seed", fit_decay=False,
                                    power_iters=0)
    assert not cert.power_settled
    # At the modulated frequency, off the seed equations, sigma settles.
    u0, v0 = linear_solution(tp2)
    op = assemble(u0, v0, q_solve(u0, tp2), tp2, Box(9, 3))
    cert = invert_with_certificates(op, fit_decay=False, drop_indices=op.q_indices())
    assert cert.power_settled
    assert cert.power_iterations < 60


def test_restricted_solver_matches_submatrix(tp2):
    op = seed_operator(tp2)
    solve, keep = restricted_solver(op, op.q_indices())
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(len(keep))
    x = solve(rhs)
    sub = op.matrix[keep][:, keep].toarray()
    assert np.linalg.norm(sub @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


# -- The conservation lattice ------------------------------------------------


def lattice_case(name, request):
    if name == "b3":
        return B3, Box(4, 9)
    spec = request.getfixturevalue(name)
    return spec, default_box(spec)


def on_lattice(coords, spec, mass):
    """Rows of a site array with sum n = mass and j = -sum_k n_k j_k."""
    n, j = coords[:, :spec.b], coords[:, spec.b:]
    jmat = np.array(spec.j_list).reshape(spec.b, spec.d)
    return (n.sum(axis=1) == mass) & np.all(j == -(n @ jmat), axis=1)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3"])
def test_lattice_decouples_and_its_step_is_the_box_step(name, request):
    # After the first step u lives on Lambda: nothing couples u on Lambda
    # and v on -Lambda to the rest of the box, so the dense step on
    # Lambda inside the box is the SuperLU step of the whole box.
    spec, box = lattice_case(name, request)
    state, _ = first_iteration(spec, box=box)
    omega = q_solve(state.u, spec)
    op = assemble(state.u, state.v, omega, spec, box)
    inside = np.concatenate([on_lattice(op.coords, spec, -1), on_lattice(op.coords, spec, 1)])
    m = op.matrix
    assert abs(m[inside][:, ~inside]).max() == 0 and abs(m[~inside][:, inside]).max() == 0

    sites = op.coords[inside[:op.n_sites]]
    assert len(sites) == {"tp1": 1, "tp2": 7, "tp3": 6, "b3": 50}[name]
    symbols = ConvolutionSymbols.from_fields(state.u, state.v, spec.p)
    mat, keep = lattice_operator(symbols, omega, spec, sites)
    rows = doubled_indices(op, sites, "U") + doubled_indices(op, -sites, "V")
    assert np.array_equal(mat, m[rows][:, rows].toarray())

    fu, fv = residual_series(state.u, state.v, omega, spec)
    rhs = np.zeros(op.dim, dtype=complex)
    for i in range(op.n_sites):
        rhs[i], rhs[op.n_sites + i] = fu[op.site_at(i)], fv[op.site_at(i)]
    solve, kept = restricted_solver(op, op.q_indices())
    full = np.zeros(op.dim, dtype=complex)
    full[kept] = solve(rhs[kept])
    assert not full[~inside].any()
    step = np.zeros(len(rows), dtype=complex)
    if keep.any():
        step[keep] = np.linalg.solve(mat[np.ix_(keep, keep)], rhs[rows][keep])
    assert np.abs(step - full[rows]).max() <= 1e-12 * max(np.abs(step).max(), 1e-300)


def test_lattice_inverse_is_the_exact_inverse_norm(tp2, tp3):
    # 1/sigma_min of F' on Lambda_R off the seed equations, against the
    # 2-norm of the explicit inverse.
    for spec in (tp2, tp3):
        state, _ = first_iteration(spec)
        symbols = ConvolutionSymbols.from_fields(state.u, state.v, spec.p)
        sites = conservation_sites(spec, state.lattice_radius)
        norm, decay = lattice_inverse(symbols, state.u, state.omega, spec, sites)
        mat, keep = lattice_operator(symbols, state.omega, spec, sites)
        exact = np.linalg.norm(np.linalg.inv(mat[np.ix_(keep, keep)]), 2)
        assert norm == pytest.approx(exact, rel=1e-10)
        assert decay.bound_ok


# -- Theta family ------------------------------------------------------------


def test_theta_zero_reproduces_certificate(tp2):
    u0, v0 = linear_solution(tp2)
    box = Box(6, 3)
    scan = theta_spectrum_scan(u0, v0, tp2.omega0(), tp2, box, [0.0], eps=0.3)
    op = assemble(u0, v0, tp2.omega0(), tp2, box)
    cert = invert_with_certificates(op, mode="seed", fit_decay=False)
    assert scan.points[0].norm == pytest.approx(cert.norm_bound, rel=1e-6)


def test_theta_scan_bad_set_shrinks_with_delta():
    grid = list(np.linspace(-0.5, 0.5, 201))
    fracs = []
    for dl in (1e-2, 1e-3):
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        u0, v0 = linear_solution(spec)
        scan = theta_spectrum_scan(u0, v0, spec.omega0(), spec, Box(4, 3),
                                   grid, eps=0.3)
        fracs.append(scan.bad_fraction)
    assert fracs[1] <= fracs[0]
    assert fracs[1] <= 0.1


def test_theta_decomposition_integral_part():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7])
    u0, v0 = linear_solution(spec)
    scan = theta_spectrum_scan(u0, v0, spec.omega0(), spec, Box(3, 2),
                               [0.4, 1.3, -2.6, 5000.0], eps=0.3)
    assert [p.theta_int for p in scan.points] == [0, 1, -3, 5000]
    for p in scan.points:
        assert -0.5 <= p.theta_frac < 0.5 + 1e-12
    # Within the norm-bound window nothing is restricted; far beyond
    # 2 |log delta|^{2s} + 1 the shift is flagged as outside the analysis.
    assert [p.restricted for p in scan.points] == [False, False, False, True]
