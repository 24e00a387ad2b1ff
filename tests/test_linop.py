import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace

from nlsqp.characteristics import (
    ConvolutionSymbols,
    box_strides,
    branch_tags,
    conservation_sites,
    enumerate_box_sites,
    members_of_size,
    ordered_components,
    resonance_links,
    seed_symbols,
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
    _box_blocks,
    _copy_signs,
    _dense,
    _dispersion,
    _exclude,
    _fit_decay,
    _seed_mask,
    _stacks,
    admissibility_gate,
    box_inverse,
    lattice_box,
    lattice_frame,
    lattice_inverse,
    lattice_operator,
    theta_spectrum_scan,
)
from nlsqp.newton import first_iteration, q_solve, residual_series

from oracles import _gather, frozen_fit_decay, seed_equations
from test_geometry import loop_scatter_matrix

# Three modes in one dimension, cubic: Lambda carries small divisors of its
# own.  Box(4, 9) holds 50 of its sites.
B3 = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])


def box_case(spec, box=None, omega=None, fields=None):
    """F' over a box (Box(9, 3) unless given) at the seed fields unless
    given: the loop-built sparse matrix of the whole box (`matrix`), with
    the box's sites, the mask of its doubled indices with a vanishing seed
    diagonal (`resonant`) and the symbols that the gate reads."""
    u, v = fields or linear_solution(spec)
    box = box or Box(9, 3)
    omega = omega or spec.omega0()
    coords = enumerate_box_sites(spec.b, spec.d, box)
    return SimpleNamespace(spec=spec, box=box, u=u, v=v, omega=omega, coords=coords,
                           resonant=branch_tags(coords, spec.omega0())[1],
                           symbols=ConvolutionSymbols.from_fields(u, v, spec.p),
                           matrix=loop_scatter_matrix(u, v, omega, spec, box))


def blocks(case, drop_seed=True):
    """The resonance blocks of Lambda (+) -Lambda in the case's box as the
    gate builds them, off the seed equations unless drop_seed is False:
    the doubled box index of each vertex (`index`), the components (`order`,
    `bounds`) and the dense stacks by size."""
    spec, box, symbols = case.spec, case.box, case.symbols
    lat = lattice_box(spec, box)
    sites, copies = lat.sites, lat.copies
    links = resonance_links(box, sites, copies, symbols.supports(), spec.b)
    _, order, bounds = ordered_components(len(sites), links[0], links[1])
    if drop_seed:
        order, bounds = _exclude(order, bounds, lat.seeds)
    radii, strides = box_strides(spec.b, spec.d, box)
    index = (sites + radii) @ strides + box.site_count(spec.b, spec.d) * (copies < 0)
    stacks = _stacks(sites, copies, order, bounds, links, symbols, case.omega, spec)
    return SimpleNamespace(index=index, order=order, bounds=bounds, stacks=stacks)


def certify(case, threshold=0.0):
    """The gate of the case, with eps_second set for the block threshold
    delta^(1 + eps_second) to be threshold (0 takes the threshold
    1e-153)."""
    delta = case.spec.delta
    eps_second = math.log(threshold, delta) - 1 if threshold else 50.0
    return admissibility_gate(case.omega, case.spec, case.box, case.symbols, eps_second)


def box_stacks(spec, box=None):
    """The blocks of the seed operator over a box, as `box_inverse` builds
    them, and the dispersion diagonal of each block, by size."""
    symbols = seed_symbols(spec)
    sites, copies, order, bounds, links = _box_blocks(spec, box or Box(9, 3), symbols)
    stacks = _stacks(sites, copies, order, bounds, links, symbols, spec.omega0(), spec)
    diag = _dispersion(sites[:len(sites) // 2], spec.omega0(), spec).ravel()
    return stacks, {k: diag[members_of_size(order, bounds, k)] for k in stacks}


def lambda_block(spec, box=None):
    """The block of Lambda (+) -Lambda in the seed operator over a box, as
    `box_inverse` reads it, and its members' sites and copies."""
    symbols = seed_symbols(spec)
    sites, copies, *_ = _box_blocks(spec, box or Box(9, 3), symbols)
    lam = np.flatnonzero(on_lattice(sites, spec, -copies))
    at = _gather(sites, copies, lam[:, None], lam[None, :], symbols.supports())
    block = _dense(sites, copies, lam[None, :], symbols, spec.omega0(), spec, at[None])[0]
    return block, sites[lam], copies[lam]


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
    (s1, d1), (s2, d2) = box_stacks(tp1), box_stacks(spec2)
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
    # Every block is Hermitian, so F' over the box is.
    stacks, _ = box_stacks(tp2)
    for stack in stacks.values():
        assert np.array_equal(stack, stack.conj().transpose(0, 2, 1))


def test_assemble_theta_enters_antisymmetrically(tp2):
    # The scan's shift is +theta on the u-copies' diagonal, -theta on the
    # v-copies', and nothing off the diagonal.
    s0, _ = box_stacks(tp2)
    _, copies, order, bounds, _ = _box_blocks(tp2, Box(9, 3), seed_symbols(tp2))
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
    scan = theta_spectrum_scan(seed_symbols(tp2), tp2.omega0(), tp2, Box(4, 3), [-0.25, 0.25])
    assert scan.points[0].norm == pytest.approx(scan.points[1].norm, rel=1e-10)


def test_phase_m_enters_both_blocks():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7],
                     phase_m=0.5)
    (s, d), (s0, d0) = box_stacks(spec), box_stacks(
        make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7]))
    for k in s:
        assert np.allclose(d[k] - d0[k], 0.5)
        assert np.allclose(np.diagonal(s[k], axis1=1, axis2=2)
                           - np.diagonal(s0[k], axis1=1, axis2=2), 0.5)


# -- Block decomposition -----------------------------------------------------


def test_block_decompose_tp1(tp1):
    # Lambda (+) -Lambda holds one block, the seed's u-copy and its flip's
    # v-copy: both are seed equations, so the gate has no block left.
    case = box_case(tp1)
    assert len(blocks(case).bounds) == 1 and certify(case) == math.inf
    dec = blocks(case, drop_seed=False)
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
        vals.append(sorted(block_values(blocks(box_case(spec), drop_seed=False), dl)[0]))
    assert np.allclose(vals[0], vals[1], rtol=1e-12)


def test_block_diag_consistency(tp2):
    # The embedded blocks reproduce P F' P entrywise.
    case = box_case(tp2)
    dec = blocks(case, drop_seed=False)
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


def in_box(box, s):
    """Whether the site s lies in the box."""
    return max(map(abs, s.n)) <= box.n_radius and max(map(abs, s.j), default=0) <= box.j_radius


def bfs_components(case):
    """Reference: components of the resonant doubled indices of the whole
    box found by a depth-first walk over the symbol supports, ordered by
    smallest index."""
    spec, box, coords = case.spec, case.box, case.coords
    res_idx = [int(i) for i in np.nonzero(case.resonant)[0]]
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
                if in_box(box, t):
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


def meets_lattice(case, comp):
    """Whether a component of `bfs_components` holds a u-copy on Lambda
    (sum n = -1) or a v-copy on -Lambda (sum n = 1)."""
    ns = len(case.coords)
    return any(on_lattice(case.coords[[i % ns]], case.spec, -1 if i < ns else 1)[0]
               for i in comp)


def lattice_reference(case, drop_seed):
    """The components of `bfs_components` that meet Lambda, without the
    seed equations if drop_seed; a component left empty is dropped."""
    seeds = set(seed_equations(case.spec, case.box)) if drop_seed else set()
    comps = [[i for i in c if i not in seeds] for c in bfs_components(case)
             if meets_lattice(case, c)]
    return [c for c in comps if c]


def block_lists(dec):
    """Blocks' members (doubled box indices) and dense blocks, one list
    entry per block."""
    order, cuts = dec.index[dec.order].tolist(), dec.bounds.tolist()
    members = [order[a:z] for a, z in zip(cuts[:-1], cuts[1:])]
    dense = [None] * len(members)
    for k, stack in dec.stacks.items():
        assert stack.shape[1:] == (k, k) and stack.dtype == complex
        assert dec.index[members_of_size(dec.order, dec.bounds, k)].tolist() == \
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
    bit."""
    m = case.matrix
    members, dense = block_lists(dec)
    for idxs, gamma in zip(members, dense):
        assert np.array_equal(gamma, m[idxs][:, idxs].toarray())


def assert_gate_value(case, dec):
    """The gate's value is the smallest of the per-block singular values,
    inf with no block."""
    assert certify(case) == min(block_values(dec, case.spec.delta)[1], default=math.inf)


def case_of(name, request, **kwargs):
    if name == "b3":
        return box_case(B3, box=Box(4, 9), **kwargs)
    return box_case(request.getfixturevalue(name), **kwargs)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3"])
@pytest.mark.parametrize("drop_seed", [False, True])
def test_block_decompose_matches_reference(name, drop_seed, request):
    # The gate's blocks are the components of the whole box's resonant
    # doubled indices that meet Lambda, without the seed equations.
    case = case_of(name, request)
    dec = blocks(case, drop_seed=drop_seed)
    assert block_lists(dec)[0] == lattice_reference(case, drop_seed)
    assert_blocks_are_slices(case, dec)
    if drop_seed:
        assert_gate_value(case, dec)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3"])
def test_block_decompose_at_the_modulated_frequency(name, request):
    # Off omega0 the block diagonals carry n.(omega - omega0): still the
    # slices of the box operator, bit for bit.
    spec = B3 if name == "b3" else request.getfixturevalue(name)
    u0, _ = linear_solution(spec)
    case = case_of(name, request, omega=q_solve(u0, spec))
    dec = blocks(case)
    assert block_lists(dec)[0] == lattice_reference(case, True)
    assert_blocks_are_slices(case, dec)
    assert_gate_value(case, dec)


def test_exclude_emptying_a_component_renumbers_later_blocks():
    # On b = 3's Box(4, 9) the first component of Lambda (+) -Lambda holds
    # the six seed equations alone.  The gate drops it, and the later
    # blocks keep their order by smallest original member, so
    # ExcisionError counts without it.
    case = box_case(B3, box=Box(4, 9))
    ref = lattice_reference(case, False)
    assert [len(c) for c in ref] == [6, 1, 1]
    assert set(ref[0]) == set(seed_equations(B3, case.box))
    dec = blocks(case)
    assert block_lists(dec)[0] == ref[1:]
    assert_blocks_are_slices(case, dec)
    # Both blocks read sigma_min = 2.5e-3 at the seed; the first fails 3e-3.
    with pytest.raises(ExcisionError) as err:
        certify(case, threshold=3e-3)
    assert (err.value.block_index, err.value.size) == (0, 1)
    assert err.value.value == block_values(dec, B3.delta)[1][0]
    assert str(err.value).startswith("block 0 (size 1): sigma_min = 2.500e-03")


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "b3"])
def test_seed_mask_is_the_box_index_rule(name, request):
    # One rule marks the seed equations among doubled vertices: on a whole
    # box it marks the oracle's doubled box indices, on Lambda_R the rows
    # and columns `lattice_operator` drops, and a box that misses a seed
    # raises LinopError.
    spec = B3 if name == "b3" else request.getfixturevalue(name)
    box = Box(4, 9) if name == "b3" else Box(9, 3)
    u0, v0 = linear_solution(spec)
    sites, copies, *_ = _box_blocks(spec, box, seed_symbols(spec))
    assert np.flatnonzero(_seed_mask(spec, sites, copies)).tolist() == \
        sorted(seed_equations(spec, box))
    lam = conservation_sites(spec, 2)
    _, keep = lattice_operator(ConvolutionSymbols.from_fields(u0, v0, spec.p),
                               spec.omega0(), spec, lattice_frame(spec, lam))
    seeds = [s.n + s.j for s in spec.seed_sites()]
    assert np.array_equal(~keep, np.tile([tuple(x) in seeds for x in lam.tolist()], 2))
    sites, copies, *_ = _box_blocks(spec, Box(0, 3), seed_symbols(spec))
    with pytest.raises(LinopError, match="does not contain the seed modes"):
        _seed_mask(spec, sites, copies)


def count_calls(monkeypatch, *names):
    """Record the calls of the named np.linalg functions by name."""
    calls = []
    for name in names:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    return calls


def test_block_decompose_batches_singular_values(monkeypatch):
    # Building the blocks takes no det and no SVD; the gate takes one
    # batched SVD per distinct block size and no det.
    case = box_case(B3, box=Box(4, 9))
    calls = count_calls(monkeypatch, "det", "svd")
    dec = blocks(case)
    sizes = np.diff(dec.bounds).tolist()
    assert len(sizes) > len(set(sizes)) and calls == []
    certify(case)
    assert calls == ["svd"] * len(set(sizes))


# -- Inverse norms over the box ----------------------------------------------


def test_invert_tp1_norm(tp1):
    norm, _ = box_inverse(seed_symbols(tp1), tp1.omega0(), tp1, Box(9, 3))
    assert norm == pytest.approx(1.0 / (tp1.delta * 0.49), rel=1e-6)


def test_invert_norm_delta_scaling(tp2):
    norms, deltas = [], (1e-2, 1e-3, 1e-4)
    for dl in deltas:
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        norms.append(box_inverse(seed_symbols(spec), spec.omega0(), spec, Box(9, 3),
                                 fit_decay=False)[0])
    slope = np.polyfit(np.log(deltas), np.log(norms), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_invert_decay_certificate(tp2):
    _, decay = box_inverse(seed_symbols(tp2), tp2.omega0(), tp2, Box(9, 3))
    assert decay.beta_hat >= 0.05
    assert decay.bound_ok


def test_invert_excision_error_names_block():
    # Every block fails a threshold of 1e6; the error names the first and
    # its first member, a u-copy on Lambda.
    case = box_case(B3, box=Box(4, 9))
    with pytest.raises(ExcisionError) as err:
        certify(case, threshold=1e6)
    assert err.value.block_index == 0
    assert err.value.value >= 0
    assert err.value.threshold == pytest.approx(1e6, rel=1e-12)
    first = case.coords[block_lists(blocks(case))[0][0][0]]
    assert err.value.site == site(first[:B3.b], first[B3.b:])
    assert on_lattice(first[None], B3, -1).all()
    assert str(err.value).endswith(f"first member {err.value.site}")


def test_box_inverse_is_the_exact_inverse_norm(tp2):
    # max 1/sigma_min over the blocks, against the 2-norm of the explicit
    # inverse of the whole box operator.
    box = Box(4, 3)
    u0, v0 = linear_solution(tp2)
    norm, decay = box_inverse(seed_symbols(tp2), tp2.omega0(), tp2, box, fit_decay=False)
    exact = np.linalg.norm(np.linalg.inv(loop_scatter_matrix(u0, v0, tp2.omega0(), tp2,
                                                             box).toarray()), 2)
    assert norm == pytest.approx(exact, rel=1e-10)
    assert decay is None


def test_box_inverse_and_theta_scan_take_fields_off_the_lattice(tp2):
    # A term of u off Lambda couples Lambda (+) -Lambda to the rest of the
    # box.  The blocks are the components of F''s links all the same, so
    # the norms are those of the explicit inverses of the loop-built box
    # operator, with the seed equations removed for the scan.
    box = Box(4, 3)
    u0, v0 = linear_solution(tp2)
    terms = dict(u0.items())
    terms[site((0, 0), (1,))] = 1e-3
    u_off = SparseSeries(2, 1, terms, drop_tol=0.0)
    m = loop_scatter_matrix(u_off, v0, tp2.omega0(), tp2, box)
    coords = enumerate_box_sites(tp2.b, tp2.d, box)
    lam = np.concatenate([on_lattice(coords, tp2, -1), on_lattice(coords, tp2, 1)])
    assert abs(m[lam][:, ~lam]).max() > 0
    symbols = ConvolutionSymbols.from_fields(u_off, v0, tp2.p)
    norm, decay = box_inverse(symbols, tp2.omega0(), tp2, box)
    assert norm == pytest.approx(np.linalg.norm(np.linalg.inv(m.toarray()), 2), rel=1e-10)
    assert decay is not None
    scan = theta_spectrum_scan(symbols, tp2.omega0(), tp2, box, [0.0, 0.25])
    for point in scan.points:
        assert point.norm == pytest.approx(
            off_seed_inverse_norm(u_off, v0, tp2.omega0(), tp2, box, point.theta), rel=1e-10)


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
    coords, m = case.coords, case.matrix
    ns = len(coords)
    inside = np.concatenate([on_lattice(coords, spec, -1), on_lattice(coords, spec, 1)])
    assert abs(m[inside][:, ~inside]).max() == 0 and abs(m[~inside][:, inside]).max() == 0

    sites = coords[inside[:ns]]
    assert len(sites) == {"tp1": 1, "tp2": 7, "tp3": 6, "b3": 50}[name]
    mat, keep = lattice_operator(case.symbols, omega, spec, lattice_frame(spec, sites))
    rows = doubled_indices(spec, box, sites, "U") + doubled_indices(spec, box, -sites, "V")
    assert np.array_equal(mat, m[rows][:, rows].toarray())

    # Reference: SuperLU on the whole box off the seed equations.
    fu, fv = residual_series(state.u, state.v, omega, spec)
    rhs = np.zeros(2 * ns, dtype=complex)
    for i, x in enumerate(coords.tolist()):
        s = site(x[:spec.b], x[spec.b:])
        rhs[i], rhs[ns + i] = fu[s], fv[s]
    kept = np.setdiff1d(np.arange(2 * ns), seed_equations(spec, box))
    full = np.zeros(2 * ns, dtype=complex)
    full[kept] = spla.splu(m[kept][:, kept].tocsc()).solve(rhs[kept])
    assert not full[~inside].any()
    step = np.zeros(len(rows), dtype=complex)
    if keep.any():
        step[keep] = np.linalg.solve(mat[np.ix_(keep, keep)], rhs[rows][keep])
    assert np.abs(step - full[rows]).max() <= 1e-12 * max(np.abs(step).max(), 1e-300)


def gathered_lattice_operator(symbols, omega, spec, sites):
    """`lattice_operator` with every term looked up by the `_gather` oracle
    on all pairs of vertices."""
    coords, copies = np.concatenate([sites, -sites]), np.repeat([1, -1], len(sites))
    every = np.arange(len(coords))
    at = _gather(coords, copies, every[:, None], every[None, :], symbols.supports())
    mat = _dense(coords, copies, every[None, :], symbols, omega, spec, at[None])[0]
    return mat, ~_seed_mask(spec, coords, copies)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2), st.data())
def test_lattice_operator_equals_the_gathered_operator(b, d, p, data):
    # Random seeds on Lambda_R, R <= 3: the operator read off the links of
    # the doubled sites equals the one whose terms the oracle looks up on
    # every pair, byte for byte, and so does the mask.  For b = 1 Lambda_R
    # is the seed alone.
    pool = [j for j in itertools.product(range(-2, 3), repeat=d) if any(j)]
    js = data.draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b, unique=True))
    amps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=b, max_size=b))
    spec = make_spec(d=d, b=b, p=p, delta=1e-3, j_list=js, amplitudes=amps)
    sites = conservation_sites(spec, data.draw(st.integers(0, 3)))
    symbols = seed_symbols(spec)
    got = lattice_operator(symbols, spec.omega0(), spec, lattice_frame(spec, sites))
    want = gathered_lattice_operator(symbols, spec.omega0(), spec, sites)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def lambda_block_read(spec, box, monkeypatch):
    """The block of Lambda (+) -Lambda that `box_inverse` hands its decay
    fit."""
    import nlsqp.linop as linop
    seen, fit = [], linop._fit_decay
    monkeypatch.setattr(linop, "_fit_decay", lambda *args: seen.append(args[-1]) or fit(*args))
    box_inverse(seed_symbols(spec), spec.omega0(), spec, box)
    return seen[0]


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3", "p3", "b3"])
def test_box_inverse_lambda_block_equals_the_gathered_block(name, request, monkeypatch):
    # The Lambda block is one group of the box's vertices, read off the box
    # links: byte for byte the block whose terms the oracle looks up.
    if name == "p3":
        spec = make_spec(d=1, b=2, p=3, delta=1e-3, j_list=[1, 3], amplitudes=[0.6, 0.8])
    else:
        spec = B3 if name == "b3" else request.getfixturevalue(name)
    box = Box(3, 5) if name == "b3" else Box(9, 3)
    got = lambda_block_read(spec, box, monkeypatch)
    assert got.shape[0] > 0 and got.tobytes() == lambda_block(spec, box)[0].tobytes()


def test_box_inverse_on_a_box_without_lambda_fits_no_decay(tp1, monkeypatch):
    # Box(0, 3) holds no site of Lambda: the group is empty, its block 0 x 0
    # and the fit has nothing to probe.
    assert lambda_block_read(tp1, Box(0, 3), monkeypatch).shape == (0, 0)
    _, decay = box_inverse(seed_symbols(tp1), tp1.omega0(), tp1, Box(0, 3))
    assert (decay.beta_hat, decay.bound_ok, decay.checked_beyond) == (0.0, True, 0)


def test_lattice_operator_memory_is_the_operators_own():
    # b = 4 on Lambda_3: 216 sites, a 432 x 432 complex operator of 3 MB.
    # Looking every pair's term up took a 46 MB peak.
    spec = make_spec(d=1, b=4, p=1, delta=1e-3, j_list=[1, 2, 4, 7],
                     amplitudes=[0.6, 0.8, 0.5, 0.38])
    sites, symbols = conservation_sites(spec, 3), seed_symbols(spec)
    assert len(sites) == 216
    tracemalloc.start()
    try:
        lattice_operator(symbols, spec.omega0(), spec, lattice_frame(spec, sites))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_lattice_inverse_is_the_exact_inverse_norm(tp2, tp3):
    # 1/sigma_min of F' on Lambda_R off the seed equations, against the
    # 2-norm of the explicit inverse.
    for spec in (tp2, tp3):
        state, _ = first_iteration(spec)
        symbols = ConvolutionSymbols.from_fields(state.u, state.v, spec.p)
        sites = conservation_sites(spec, state.lattice_radius)
        frame = lattice_frame(spec, sites)
        norm, decay = lattice_inverse(symbols, state.omega, spec, frame)
        mat, keep = lattice_operator(symbols, state.omega, spec, frame)
        exact = np.linalg.norm(np.linalg.inv(mat[np.ix_(keep, keep)]), 2)
        assert norm == pytest.approx(exact, rel=1e-10)
        assert decay.bound_ok


def fit_or_singular(fit, *args):
    """A decay fit, or "singular" where its operator has no inverse."""
    try:
        return fit(*args)
    except np.linalg.LinAlgError:
        return "singular"


def assert_fit_is_frozen(spec, radius, seeds_kept):
    """The fit of F' at the Q frequency on Lambda_R, its seed equations kept
    as `box_inverse` probes them or removed as `lattice_inverse` does,
    equals the frozen fit field for field.  Returns the path it took:
    "seeds", "forcing" (probes on gu's support), "levels" (fewer than two
    distance levels) or "empty" (no equation left)."""
    symbols = seed_symbols(spec)
    frame = lattice_frame(spec, conservation_sites(spec, radius))
    mat, keep = lattice_operator(symbols, q_solve(linear_solution(spec)[0], spec, symbols),
                                 spec, frame)
    keep = np.ones_like(keep) if seeds_kept else keep
    if not keep.any():
        return "empty"
    args = (spec, symbols, frame.coords[keep], frame.copies[keep], mat[np.ix_(keep, keep)])
    got = fit_or_singular(_fit_decay, *args)
    assert got == fit_or_singular(frozen_fit_decay, *args)
    dist = np.abs(args[2][:, None] - args[2][None]).sum(axis=2)
    if got != "singular" and len(np.unique(dist[dist >= 1])) < 2:
        return "levels"
    return "seeds" if seeds_kept else "forcing"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.integers(0, 3),
       st.booleans(), st.data())
def test_fit_decay_equals_the_frozen_fit(b, d, p, radius, seeds_kept, data):
    # Random seeds on Lambda_R, R <= 3: one row lookup and suffix minima
    # over the sorted distances leave every field of the fit as it was.
    pool = [j for j in itertools.product(range(-2, 3), repeat=d) if any(j)]
    js = data.draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b, unique=True))
    amps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=b, max_size=b))
    spec = make_spec(d=d, b=b, p=p, delta=1e-3, j_list=js, amplitudes=amps)
    assert_fit_is_frozen(spec, radius, seeds_kept)


@pytest.mark.parametrize("name, radius, seeds_kept, path", [
    ("tp1", 0, True, "levels"), ("tp1", 2, False, "empty"), ("tp2", 3, True, "seeds"),
    ("tp2", 3, False, "forcing"), ("tp3", 5, True, "seeds"), ("tp3", 5, False, "forcing"),
    ("b3", 3, True, "seeds"), ("b3", 3, False, "forcing")])
def test_fit_decay_takes_each_path_as_the_frozen_fit(name, radius, seeds_kept, path, request):
    spec = B3 if name == "b3" else request.getfixturevalue(name)
    assert assert_fit_is_frozen(spec, radius, seeds_kept) == path


# -- Theta family ------------------------------------------------------------


def off_seed_inverse_norm(u, v, omega, spec, box, theta):
    """1/sigma_min of the loop-built shifted box operator with the rows and
    columns of the seed equations removed: the u-copy of each seed site and
    the v-copy of its flip, found by their coordinates."""
    m = loop_scatter_matrix(u, v, omega, spec, box, theta=theta).toarray()
    coords = [tuple(x) for x in enumerate_box_sites(spec.b, spec.d, box).tolist()]
    seeds = [s.n + s.j for s in spec.seed_sites()]
    drop = ([coords.index(x) for x in seeds]
            + [len(coords) + coords.index(tuple(-c for c in x)) for x in seeds])
    keep = np.setdiff1d(np.arange(len(m)), drop)
    return 1.0 / np.linalg.svd(m[np.ix_(keep, keep)], compute_uv=False)[-1]


def test_theta_zero_reproduces_certificate():
    # The scan runs off the seed equations, as the Newton step and the gate
    # do: at theta = 0.25, at omega0 and at the modulated omega1, its norm
    # is that of a dense SVD of the loop-built box operator without the
    # seed rows and columns.
    box = Box(4, 3)
    for delta in (1e-2, 1e-3):
        spec = make_spec(d=1, b=2, p=1, delta=delta, j_list=[1, 2], amplitudes=[0.6, 0.8])
        u0, v0 = linear_solution(spec)
        for omega in (spec.omega0(), q_solve(u0, spec)):
            scan = theta_spectrum_scan(seed_symbols(spec), omega, spec, box, [0.0, 0.25],
                                       eps=0.3)
            assert scan.points[1].norm == pytest.approx(
                off_seed_inverse_norm(u0, v0, omega, spec, box, 0.25), rel=1e-10)
    # On tp2 at omega1, theta = 0 no longer reads the phase-symmetry kernel
    # of the seed equations (9.0e6 with every row kept).
    assert scan.points[0].norm == pytest.approx(
        off_seed_inverse_norm(u0, v0, omega, spec, box, 0.0), rel=1e-10)
    assert scan.points[0].norm == pytest.approx(2777.31, rel=1e-6)
    assert scan.points[0].ok


def test_theta_scan_bad_set_shrinks_with_delta():
    grid = list(np.linspace(-0.5, 0.5, 201))
    fracs = []
    for dl in (1e-2, 1e-3):
        spec = make_spec(d=1, b=2, p=1, delta=dl, j_list=[1, 2],
                         amplitudes=[0.6, 0.8])
        scan = theta_spectrum_scan(seed_symbols(spec), spec.omega0(), spec, Box(4, 3),
                                   grid, eps=0.3)
        fracs.append(scan.bad_fraction)
    assert fracs[1] <= fracs[0]
    assert fracs[1] <= 0.1


def test_theta_decomposition_integral_part():
    spec = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7])
    scan = theta_spectrum_scan(seed_symbols(spec), spec.omega0(), spec, Box(3, 2),
                               [0.4, 1.3, -2.6, 5000.0], eps=0.3)
    assert [p.theta_int for p in scan.points] == [0, 1, -3, 5000]
    for p in scan.points:
        assert -0.5 <= p.theta_frac < 0.5 + 1e-12
    # Within the norm-bound window nothing is restricted; far beyond
    # 2 |log delta|^{2s} + 1 the shift is flagged as outside the analysis.
    assert [p.restricted for p in scan.points] == [False, False, False, True]
