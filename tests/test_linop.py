import numpy as np
import pytest
from types import SimpleNamespace

from nlsqp.characteristics import (
    ConvolutionSymbols,
    box_strides,
    box_variety,
    conservation_sites,
    members_of_size,
)
from nlsqp.lattice import (
    Box,
    SparseSeries,
    default_box,
    linear_solution,
    make_spec,
    site,
)
from nlsqp.linop import (
    ExcisionError,
    LinopError,
    _certify,
    _copy_signs,
    _coset_blocks,
    _dispersion,
    _seed_equations,
    _stacks,
    box_inverse,
    lattice_inverse,
    lattice_operator,
    resonance_blocks,
    theta_spectrum_scan,
)
from nlsqp.newton import first_iteration, q_solve, residual_series

from test_geometry import loop_scatter_matrix

# Three modes in one dimension, cubic: Lambda carries small divisors of its
# own.  Box(4, 9) holds 50 of its sites.
B3 = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])


def box_case(spec, box=None, omega=None, fields=None):
    """F' over a box (Box(9, 3) unless given) at the seed fields unless
    given: the loop-built sparse matrix of the whole box (`matrix`), with
    the box's variety and the symbols that `resonance_blocks` reads."""
    u, v = fields or linear_solution(spec)
    box = box or Box(9, 3)
    omega = omega or spec.omega0()
    return SimpleNamespace(spec=spec, box=box, u=u, v=v, omega=omega,
                           symbols=ConvolutionSymbols.from_fields(u, v, spec.p),
                           variety=box_variety(spec.omega0(), spec.d, box),
                           matrix=loop_scatter_matrix(u, v, omega, spec, box))


def blocks(case, exclude=frozenset()):
    return resonance_blocks(case.symbols, case.omega, case.spec, case.variety,
                            exclude=exclude)


def certify(case, dec, mode="seed", eps_first=0.0, eps_second=50.0):
    """The block and diagonal certificate of the whole box in a mode, on
    the blocks dec."""
    coords = case.variety.coords
    return _certify(dec, coords, _dispersion(coords, case.omega, case.spec).ravel(),
                    case.variety.resonant, case.spec, mode, eps_first, eps_second)


def coset_stacks(spec, box=None):
    """The coset blocks of the seed operator over a box, as `box_inverse`
    builds them, and the dispersion diagonal of each block, by size."""
    u0, v0 = linear_solution(spec)
    box = box or Box(9, 3)
    sites, copies, _, order, bounds = _coset_blocks(u0, v0, spec, box)
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    stacks = _stacks(sites, copies, order, bounds, symbols, spec.omega0(), spec)
    diag = _dispersion(sites[:len(sites) // 2], spec.omega0(), spec).ravel()
    return stacks, {k: diag[members_of_size(order, bounds, k)] for k in stacks}


def lambda_block(spec, box=None):
    """The coset block of Lambda in the seed operator over a box, and its
    members' sites and copies."""
    u0, v0 = linear_solution(spec)
    sites, copies, keys, _, _ = _coset_blocks(u0, v0, spec, box or Box(9, 3))
    lam = np.flatnonzero((keys[:, 0] == -1) & ~keys[:, 1:].any(axis=1))
    stacks = _stacks(sites, copies, lam, np.array([0, len(lam)]),
                     ConvolutionSymbols.from_fields(u0, v0, spec.p), spec.omega0(), spec)
    return stacks[len(lam)][0], sites[lam], copies[lam]


def doubled_indices(spec, box, rows, copy):
    """The box's doubled indices of the rows of a site array, u-copies
    (copy "U") or v-copies ("V")."""
    radii, strides = box_strides(spec.b, spec.d, box)
    return ((np.asarray(rows) + radii) @ strides
            + (box.site_count(spec.b, spec.d) if copy == "V" else 0)).tolist()


def test_assemble_tp1_seed_block_entries(tp1):
    # Lambda holds one site for b = 1: its block is the seed's u-copy and
    # its flip's v-copy.
    block, sites, copies = lambda_block(tp1)
    assert sites.tolist() == [[-1, 2], [1, -2]] and copies.tolist() == [1, -1]
    a = 0.7
    d = tp1.delta
    assert block[0, 0] == pytest.approx(d * 2 * a * a)   # diag vanishes on C
    assert block[0, 1] == pytest.approx(d * a * a)
    assert block[1, 0] == pytest.approx(d * a * a)
    assert block[1, 1] == pytest.approx(d * 2 * a * a)


def test_assemble_delta_scaling_leaves_pure_diagonal(tp1):
    # With the coupling scaled out, F' - D has every entry proportional to
    # delta: halving delta halves the off-diagonal part exactly.
    spec2 = make_spec(d=1, b=1, p=1, delta=5e-4, j_list=[2], amplitudes=[0.7])
    (s1, d1), (s2, d2) = coset_stacks(tp1), coset_stacks(spec2)
    assert sorted(s1) == sorted(s2)
    for k in s1:
        a1 = s1[k] - d1[k][:, :, None] * np.eye(k)
        a2 = s2[k] - d2[k][:, :, None] * np.eye(k)
        # Recovering A by subtracting the diagonal costs ~|diag| * eps.
        assert np.max(np.abs(a1 - 2 * a2)) < 1e-13


def test_assemble_symbol_conjugate_symmetry(tp2):
    from nlsqp.lattice import conjugate_flip
    u0, v0 = linear_solution(tp2)
    symbols = ConvolutionSymbols.from_fields(u0, v0, tp2.p)
    assert conjugate_flip(symbols.uu).support() == symbols.vv.support()


def test_assemble_self_adjoint(tp2):
    # Every coset block is Hermitian, so F' over the box is.
    stacks, _ = coset_stacks(tp2)
    for stack in stacks.values():
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))


def test_assemble_theta_enters_antisymmetrically(tp2):
    # The scan's shift is +theta on the u-copies' diagonal, -theta on the
    # v-copies', and nothing off the diagonal.
    s0, _ = coset_stacks(tp2)
    u0, v0 = linear_solution(tp2)
    _, copies, _, order, bounds = _coset_blocks(u0, v0, tp2, Box(9, 3))
    shift = _copy_signs(copies, order, bounds, s0)
    assert sorted(shift) == sorted(s0)
    for k in s0:
        signs = copies[members_of_size(order, bounds, k)]
        st = s0[k] + 0.25 * shift[k]
        off = ~np.eye(k, dtype=bool)
        assert np.array_equal(st[:, off], s0[k][:, off])
        assert np.array_equal(np.diagonal(shift[k], axis1=1, axis2=2), signs)
        assert np.allclose(np.diagonal(st, axis1=1, axis2=2)
                           - np.diagonal(s0[k], axis1=1, axis2=2), 0.25 * signs)
    # The u and v copies of F' are conjugate flips of each other, so under
    # the antisymmetric shift ||T(theta)^{-1}|| = ||T(-theta)^{-1}||.
    scan = theta_spectrum_scan(u0, v0, tp2.omega0(), tp2, Box(4, 3), [-0.25, 0.25])
    assert scan.points[0].norm == pytest.approx(scan.points[1].norm, rel=1e-10)


def test_phase_m_enters_both_blocks():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7],
                     phase_m=0.5)
    (s, d), (s0, d0) = coset_stacks(spec), coset_stacks(
        make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7]))
    for k in s:
        assert np.allclose(d[k] - d0[k], 0.5)
        assert np.allclose(np.diagonal(s[k], axis1=1, axis2=2)
                           - np.diagonal(s0[k], axis1=1, axis2=2), 0.5)


# -- Block decomposition -----------------------------------------------------


def test_block_decompose_tp1(tp1):
    dec = blocks(box_case(tp1))
    d, a = tp1.delta, 0.7
    two = [i for i, s in enumerate(np.diff(dec.bounds)) if s == 2]
    assert len(two) == 1
    k = two[0]
    block = block_lists(dec)[1][k]
    eigs = np.sort(np.linalg.eigvalsh(block))
    assert eigs == pytest.approx([d * a * a, 3 * d * a * a])
    assert abs(np.linalg.det(block)) == pytest.approx(3 * a ** 4 * d * d)


def test_block_dets_delta_invariant_normalized(tp1):
    vals = []
    for dl in (1e-3, 1e-4):
        spec = make_spec(d=1, b=1, p=1, delta=dl, j_list=[2], amplitudes=[0.7])
        vals.append(sorted(block_values(blocks(box_case(spec)), dl)[0]))
    assert np.allclose(vals[0], vals[1], rtol=1e-12)


def test_block_diag_consistency(tp2):
    # The embedded blocks reproduce P F' P entrywise.
    case = box_case(tp2)
    dec = blocks(case)
    m = case.matrix
    members, stack = block_lists(dec)
    for idxs, gamma in zip(members, stack):
        sub = m[idxs][:, idxs].toarray()
        assert np.array_equal(sub, gamma)
    # and blocks never couple to each other
    for a_idx, idxs_a in enumerate(members):
        for b_idx, idxs_b in enumerate(members):
            if a_idx == b_idx:
                continue
            cross = m[idxs_a][:, idxs_b].toarray()
            assert np.max(np.abs(cross)) == 0.0


def bfs_components(case):
    """Reference: components of the resonant doubled indices found by a
    depth-first walk over the symbol supports, ordered by smallest index."""
    spec, box, coords = case.spec, case.box, case.variety.coords
    res_idx = [int(i) for i in np.nonzero(case.variety.resonant)[0]]
    res_set = set(res_idx)
    ns = len(coords)
    symbols = case.symbols
    diag_shifts = [s for s in symbols.uv_p.support() if not s.is_zero()]

    def neighbors(idx):
        comp_u = idx < ns
        x = coords[idx % ns]
        s = site(x[:spec.b], x[spec.b:])
        out = []
        for shifts, off in ((diag_shifts, 0 if comp_u else ns),
                            (symbols.uu.support() if comp_u
                             else symbols.vv.support(), ns if comp_u else 0)):
            for shift in shifts:
                t = s - shift
                if box.contains(t):
                    k = doubled_indices(spec, box, [t.n + t.j], "U")[0]
                    if k + off in res_set:
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
    dense = [None] * len(members)
    for k, stack in dec.stacks.items():
        assert stack.shape[1:] == (k, k) and stack.dtype == complex
        assert members_of_size(dec.order, dec.bounds, k).tolist() == \
            [m for m in members if len(m) == k]
        for c, block in zip(np.nonzero(np.diff(dec.bounds) == k)[0].tolist(), stack,
                            strict=True):
            dense[c] = block
    return members, dense


def block_values(dec, delta):
    """Per block, one block at a time: the delta-normalized |det(Gamma_k /
    delta^size)| and the smallest singular value."""
    dense = block_lists(dec)[1]
    return ([abs(complex(np.linalg.det(g))) / delta ** len(g) for g in dense],
            [float(np.linalg.svd(g, compute_uv=False)[-1]) for g in dense])


def assert_blocks_are_slices(case, dec):
    """The blocks are the box operator's slices at their members, bit for
    bit, and the certificate's smallest value in either mode is that of the
    per-block values."""
    m = case.matrix
    members, dense = block_lists(dec)
    for idxs, gamma in zip(members, dense):
        assert np.array_equal(gamma, m[idxs][:, idxs].toarray())
    for mode, values in zip(("seed", "modulated"), block_values(dec, case.spec.delta)):
        assert certify(case, dec, mode) == min(values)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
@pytest.mark.parametrize("drop_seed", [False, True])
def test_block_decompose_matches_reference(name, drop_seed, request):
    spec = request.getfixturevalue(name)
    case = box_case(spec)
    exclude = frozenset(_seed_equations(spec, case.box)) if drop_seed else frozenset()
    dec = blocks(case, exclude=exclude)
    expected = [[i for i in comp if i not in exclude] for comp in bfs_components(case)]
    assert block_lists(dec)[0] == [c for c in expected if c]
    assert_blocks_are_slices(case, dec)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_block_decompose_at_the_modulated_frequency(name, request):
    # Off omega0 the block diagonals carry n.(omega - omega0): still the
    # slices of the box operator, bit for bit.
    spec = request.getfixturevalue(name)
    u0, _ = linear_solution(spec)
    case = box_case(spec, omega=q_solve(u0, spec))
    exclude = frozenset(_seed_equations(spec, case.box))
    dec = blocks(case, exclude=exclude)
    expected = [[i for i in comp if i not in exclude] for comp in bfs_components(case)]
    assert block_lists(dec)[0] == [c for c in expected if c]
    assert_blocks_are_slices(case, dec)


def test_excision_error_says_whether_the_block_meets_the_lattice(tp1):
    # The seed block holds the u-copy of the seed, a site of Lambda.
    case = box_case(tp1)
    with pytest.raises(ExcisionError) as err:
        certify(case, blocks(case), eps_first=0.75)
    assert (err.value.block_index, err.value.site, err.value.meets_lattice) == \
        (1, site((-1,), (2,)), True)
    assert str(err.value).endswith(
        "first member (-1 | 2), the block meets the conservation lattice")


def test_exclude_emptying_a_component_renumbers_later_blocks(tp1):
    # An emptied component is dropped and the later blocks keep their order
    # by smallest original member, so ExcisionError counts without it.
    case = box_case(tp1)
    ref = bfs_components(case)
    assert [len(c) for c in ref] == [1, 2, 1, 1, 1]
    dec = blocks(case, exclude=frozenset(ref[0]))
    assert block_lists(dec)[0] == ref[1:]
    assert_blocks_are_slices(case, dec)
    # The seed block, second of the full operator and first now, is the only
    # one below 0.75: |P| = 0.7203 against 0.98 for the size-1 blocks.
    with pytest.raises(ExcisionError) as err:
        certify(case, dec, eps_first=0.75)
    assert (err.value.block_index, err.value.size) == (0, 2)
    assert err.value.value == block_values(dec, tp1.delta)[0][0]
    assert str(err.value).startswith("block 0 (size 2): |P_k| = 7.203e-01")


def count_calls(monkeypatch, *names):
    """Record the calls of the named np.linalg functions by name."""
    calls = []
    for name in names:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    return calls


def test_block_decompose_batches_determinants(tp3, monkeypatch):
    # Building the blocks takes no det and no SVD; the certificate takes
    # one batched det per distinct block size in mode "seed" and one SVD
    # per size in mode "modulated", never the other.
    case = box_case(tp3)
    calls = count_calls(monkeypatch, "det", "svd")
    dec = blocks(case)
    sizes = np.diff(dec.bounds).tolist()
    assert len(sizes) > len(set(sizes)) and calls == []
    for mode, name in (("seed", "det"), ("modulated", "svd")):
        certify(case, dec, mode)
        assert calls == [name] * len(set(sizes))
        calls.clear()


# -- Inverse norms over the box ----------------------------------------------


def test_invert_tp1_norm(tp1):
    u0, v0 = linear_solution(tp1)
    norm, _ = box_inverse(u0, v0, tp1.omega0(), tp1, Box(9, 3))
    assert norm == pytest.approx(1.0 / (tp1.delta * 0.49), rel=1e-6)


def test_invert_norm_delta_scaling(tp2):
    norms, deltas = [], (1e-2, 1e-3, 1e-4)
    for dl in deltas:
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        u0, v0 = linear_solution(spec)
        norms.append(box_inverse(u0, v0, spec.omega0(), spec, Box(9, 3),
                                 fit_decay=False)[0])
    slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_invert_decay_certificate(tp2):
    u0, v0 = linear_solution(tp2)
    _, decay = box_inverse(u0, v0, tp2.omega0(), tp2, Box(9, 3))
    assert decay.beta_hat >= 0.05
    assert decay.bound_ok


def test_invert_excision_error_names_block(tp1):
    # Every block fails a threshold of 1e6; the first is a C+ site off
    # Lambda.
    case = box_case(tp1)
    with pytest.raises(ExcisionError) as err:
        certify(case, blocks(case), eps_first=1e6)
    assert err.value.block_index == 0
    assert err.value.value >= 0
    assert err.value.threshold == 1e6
    assert not err.value.meets_lattice
    assert str(err.value).endswith("the block is off the conservation lattice")


def test_box_inverse_is_the_exact_inverse_norm(tp2):
    # max 1/sigma_min over the coset blocks, against the 2-norm of the
    # explicit inverse of the whole box operator.
    box = Box(4, 3)
    u0, v0 = linear_solution(tp2)
    norm, decay = box_inverse(u0, v0, tp2.omega0(), tp2, box, fit_decay=False)
    exact = np.linalg.norm(np.linalg.inv(loop_scatter_matrix(u0, v0, tp2.omega0(), tp2,
                                                             box).toarray()), 2)
    assert norm == pytest.approx(exact, rel=1e-10)
    assert decay is None


def test_box_inverse_refuses_fields_off_the_lattice(tp2):
    # Off Lambda the cosets couple: no norm rather than a wrong one.
    u0, v0 = linear_solution(tp2)
    terms = dict(u0.items())
    terms[site((0, 0), (1,))] = 1e-3
    u_off = SparseSeries(2, 1, terms, drop_tol=0.0)
    with pytest.raises(LinopError, match="conservation lattice"):
        box_inverse(u_off, v0, tp2.omega0(), tp2, Box(4, 3))
    with pytest.raises(LinopError, match="conservation lattice"):
        theta_spectrum_scan(u0, u0, tp2.omega0(), tp2, Box(4, 3), [0.0])


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
    # Lambda inside the box is the sparse LU step of the whole box.
    import scipy.sparse.linalg as spla
    spec, box = lattice_case(name, request)
    state, _ = first_iteration(spec, box=box)
    omega = q_solve(state.u, spec)
    case = box_case(spec, box=box, omega=omega, fields=(state.u, state.v))
    coords, m = case.variety.coords, case.matrix
    ns = len(coords)
    inside = np.concatenate([on_lattice(coords, spec, -1), on_lattice(coords, spec, 1)])
    assert abs(m[inside][:, ~inside]).max() == 0 and abs(m[~inside][:, inside]).max() == 0

    sites = coords[inside[:ns]]
    assert len(sites) == {"tp1": 1, "tp2": 7, "tp3": 6, "b3": 50}[name]
    mat, keep = lattice_operator(case.symbols, omega, spec, sites)
    rows = doubled_indices(spec, box, sites, "U") + doubled_indices(spec, box, -sites, "V")
    assert np.array_equal(mat, m[rows][:, rows].toarray())

    # Reference: SuperLU on the whole box off the seed equations.
    fu, fv = residual_series(state.u, state.v, omega, spec)
    rhs = np.zeros(2 * ns, dtype=complex)
    for i, x in enumerate(coords.tolist()):
        s = site(x[:spec.b], x[spec.b:])
        rhs[i], rhs[ns + i] = fu[s], fv[s]
    kept = np.setdiff1d(np.arange(2 * ns), _seed_equations(spec, box))
    full = np.zeros(2 * ns, dtype=complex)
    full[kept] = spla.splu(m[kept][:, kept].tocsc()).solve(rhs[kept])
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
    # theta = 0 is the box inverse; theta = 0.25 is the 2-norm of the
    # explicit inverse of the loop-built shifted box operator.
    u0, v0 = linear_solution(tp2)
    box = Box(4, 3)
    scan = theta_spectrum_scan(u0, v0, tp2.omega0(), tp2, box, [0.0, 0.25], eps=0.3)
    norm, _ = box_inverse(u0, v0, tp2.omega0(), tp2, box, fit_decay=False)
    assert scan.points[0].norm == pytest.approx(norm, rel=1e-12)
    exact = np.linalg.norm(np.linalg.inv(loop_scatter_matrix(
        u0, v0, tp2.omega0(), tp2, box, theta=0.25).toarray()), 2)
    assert scan.points[1].norm == pytest.approx(exact, rel=1e-10)


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
