"""Array lattice geometry against the per-site loops it replaced.

The loop versions of the resonance graph, of the box operator's scatter
(against the coset blocks of `linop`), of the difference-class candidate
filter and of the partition's union-find are
kept here as oracles; the array versions must reproduce them exactly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqp import characteristics
from nlsqp.characteristics import (
    CharClass,
    ConvolutionSymbols,
    build_partition,
    _min_labels,
    diff_class_member,
    ordered_components,
    resonance_graph,
)
from nlsqp.conditions import _augment, check_condition_ii
from nlsqp.lattice import Box, SiteIndex, default_box, linear_solution, make_spec, site
from nlsqp.linop import _copy_signs, _coset_blocks, _stacks
from nlsqp.newton import solve

from test_characteristics import (
    brute_characteristic_set,
    component_members,
    membership_grid,
    tagged_vertices,
    written_class,
)


# -- oracles ----------------------------------------------------------------


def loop_resonance_graph(u, v, spec, omega0, box, symbols=None):
    if symbols is None:
        symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    vertices = brute_characteristic_set(omega0, spec.d, box)
    index = {s: i for i, (s, _) in enumerate(vertices)}
    tags = [t for _, t in vertices]
    diag_shifts = [s for s in symbols.uv_p.support() if not s.is_zero()]
    edges = set()
    for i, (x, tag) in enumerate(vertices):
        cross = symbols.uu.support() if tag is CharClass.CPLUS else symbols.vv.support()
        want = CharClass.CMINUS if tag is CharClass.CPLUS else CharClass.CPLUS
        for shift in diag_shifts:
            k = index.get(x - shift)
            if k is not None and tags[k] is tag:
                edges.add((min(i, k), max(i, k)))
        for shift in cross:
            k = index.get(x - shift)
            if k is not None and tags[k] is want:
                edges.add((min(i, k), max(i, k)))
    parent = list(range(len(vertices)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, k in edges:
        ri, rk = find(i), find(k)
        if ri != rk:
            parent[max(ri, rk)] = min(ri, rk)
    groups = {}
    for i in range(len(vertices)):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for root in sorted(groups):
        idxs = sorted(groups[root])
        pair = None
        seen = {}
        for i in idxs:
            s, t = vertices[i]
            key = (t, s.j)
            if key in seen and vertices[seen[key]][0].n != s.n:
                pair = (seen[key], i)
                break
            seen.setdefault(key, i)
        comps.append((idxs, pair))
    return vertices, sorted(edges), comps


def loop_scatter_matrix(u, v, omega, spec, box, theta=0.0):
    """D + delta*A (+ the theta shift) over a box as a sparse matrix, built
    by a per-shift coordinate test.  Doubled index i < ns is the u-copy of the i-th box site
    in lexicographic order, ns + i its v-copy."""
    import scipy.sparse as sp
    b, d, p = spec.b, spec.d, spec.p
    radii = np.array([box.n_radius] * b + [box.j_radius] * d, dtype=np.int64)
    coords = np.array(list(itertools.product(*[range(-r, r + 1) for r in radii])),
                      dtype=np.int64)
    ns = len(coords)
    sizes = 2 * radii + 1
    strides = np.ones(b + d, dtype=np.int64)
    for i in range(b + d - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    rows, cols, vals = [], [], []

    def scatter(shift, amp, row_off, col_off):
        sv = np.array(list(shift.n) + list(shift.j), dtype=np.int64)
        shifted = coords + sv
        ok = np.all(np.abs(shifted) <= radii, axis=1)
        if not np.any(ok):
            return
        lin = (shifted[ok] + radii) @ strides
        cols_k = np.nonzero(ok)[0]
        rows.append(lin + row_off)
        cols.append(cols_k + col_off)
        vals.append(np.full(len(cols_k), amp, dtype=complex))

    symbols = ConvolutionSymbols.from_fields(u, v, p)
    for shift, ampl in symbols.uv_p.items():
        a = spec.delta * (p + 1) * ampl
        scatter(shift, a, 0, 0)
        scatter(shift, a, ns, ns)
    for shift, ampl in symbols.uu.items():
        scatter(shift, spec.delta * p * ampl, 0, ns)
    for shift, ampl in symbols.vv.items():
        scatter(shift, spec.delta * p * ampl, ns, 0)
    a_mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * ns, 2 * ns)).tocsr()
    # The dispersion n.w + |j|^2 + m, summed in this order.
    nw = sum(w * n for w, n in zip(omega.omega, coords.T[:b]))
    jsq = sum(j * j for j in coords.T[b:])
    m = spec.phase_m
    diag = np.concatenate([nw + jsq + m, -nw + jsq + m])
    f = a_mat + sp.diags(diag.astype(complex), format="csr")
    # The shifted family F' + theta * (+1 on the u-copies, -1 on the v-copies).
    return f + sp.diags(np.repeat([theta, -theta], ns).astype(complex), format="csr")


def coset_keys(spec, box):
    """The coset key of each doubled index of a box: phi(n, j) = (sum n, j +
    sum_k n_k j_k) for a u-copy, phi - (2, 0) for a v-copy, one site at a
    time."""
    keys = []
    for copy in (1, -1):
        for x in itertools.product(*[range(-box.n_radius, box.n_radius + 1)] * spec.b,
                                   *[range(-box.j_radius, box.j_radius + 1)] * spec.d):
            n, j = x[:spec.b], x[spec.b:]
            shifted = [ji + sum(nk * jk[i] for nk, jk in zip(n, spec.j_list))
                       for i, ji in enumerate(j)]
            keys.append([sum(n) - (2 if copy < 0 else 0)] + shifted)
    return np.array(keys, dtype=np.int64)


def loop_diff_class_member(delta, omega0, class_pair, search_radius=30):
    """`diff_class_member` with the d >= 2 linear constraint tested one
    candidate at a time."""
    eps1, eps2 = characteristics._eps(class_pair[0]), characteristics._eps(class_pair[1])
    w = omega0.as_ints()
    d = delta.d
    dn_w = sum(a * b for a, b in zip(delta.n, w))
    dj = delta.j
    djsq = sum(a * a for a in dj)
    candidates = ()
    exhaustive = True
    M = characteristics.Membership
    if eps1 == eps2:
        c = djsq - eps1 * dn_w
        if all(x == 0 for x in dj):
            if c != 0:
                return M("no", reason="pure time shift off the kernel of w0")
            candidates = characteristics._small_j_candidates(d, search_radius)
            exhaustive = False
        elif d == 1:
            twice = 2 * dj[0]
            if c % twice == 0:
                candidates = [(c // twice,)]
            else:
                return M("no", reason="linear constraint has no integer solution")
        else:
            g = characteristics._intlinalg.vector_gcd([2 * x for x in dj])
            if c % g != 0:
                return M("no", reason="linear constraint has no integer solution")
            candidates = [jp for jp in characteristics._small_j_candidates(d, search_radius)
                          if 2 * sum(a * b for a, b in zip(jp, dj)) == c]
            exhaustive = False
    else:
        rhs = -djsq - 2 * eps1 * dn_w
        if rhs < 0:
            return M("no", reason="sphere constraint is empty")
        root = math.isqrt(rhs)
        if root > 4 * search_radius:
            return M("unknown", reason="sphere radius exceeds the search bound")
        cands = []
        spans = []
        for dj_i in dj:
            start = -root if (root + dj_i) % 2 == 0 else -root + 1
            spans.append(range(start, root + 1, 2))
        for two_jp in itertools.product(*spans):
            if sum(x * x for x in two_jp) == rhs:
                cands.append(tuple((x + y) // 2 for x, y in zip(two_jp, dj)))
        candidates = sorted(set(cands), key=lambda jp: (sum(abs(x) for x in jp), jp))
        if not candidates:
            return M("no", reason="no lattice point on the sphere")
    for jp in candidates:
        jpp = tuple(a - b for a, b in zip(jp, dj))
        wit = characteristics._complete_witness(jp, jpp, delta, w, eps1, eps2)
        if wit is not None:
            return M("yes", witness=wit)
    if exhaustive:
        return M("no", reason="all solutions fail the frequency divisibility")
    return M("unknown", reason="bounded j search exhausted")


def union_find_partition(B, d, j_radius):
    pts = [tuple(v) for v in itertools.product(range(-j_radius, j_radius + 1), repeat=d)]
    arr = np.array(pts, dtype=np.int64)
    jsq = np.sum(arr * arr, axis=1)
    parent = list(range(len(pts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(pts)):
        dist = np.sum(np.abs(arr[i + 1:] - arr[i]), axis=1) + np.abs(jsq[i + 1:] - jsq[i])
        for off in np.nonzero(dist <= B)[0]:
            ri, rk = find(i), find(i + 1 + int(off))
            if ri != rk:
                parent[max(ri, rk)] = min(ri, rk)
    groups = {}
    for i in range(len(pts)):
        groups.setdefault(find(i), []).append(i)
    blocks, diameters = [], []
    for root in sorted(groups):
        idxs = groups[root]
        blocks.append(sorted(pts[i] for i in idxs))
        sub = arr[idxs]
        diameters.append(max(int(np.max(np.sum(np.abs(sub - sub[i]), axis=1)))
                             for i in range(len(idxs))))
    c0 = 0.0
    if B > 1:
        for dm in diameters:
            if dm >= 1:
                c0 = max(c0, math.log(dm) / math.log(B))
    return blocks, diameters, c0


# -- specs --------------------------------------------------------------------


def b3_spec():
    return make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4],
                     amplitudes=[0.6, 0.8, 0.5])


# The synthetic spirals of the condition tests, and a cross-symbol one.
INJECTIONS = [
    {"uv": [site((1, -1), (1,)), site((3, 0), (-1,))]},
    {"uv": [site((4, -1), (0,))]},
    {"uu": [site((0, -2), (3,))], "vv": [site((0, 2), (-3,))]},
]


def graph_cases(tp1, tp2, tp3):
    return [(tp1, default_box(tp1)), (tp2, default_box(tp2)), (tp3, default_box(tp3)),
            (tp2, Box(9, 4)), (b3_spec(), Box(4, 9))]


def vertex_arrays(vertices):
    """The (coords, tags) arrays of a vertex list, as `ResonanceGraph` holds them."""
    coords = np.array([s.n + s.j for s, _ in vertices], dtype=np.int64)
    tags = np.array([1 if t is CharClass.CPLUS else -1 for _, t in vertices], dtype=np.int8)
    return coords, tags


def graph_of_lists(vertices, edges, comps):
    """The array `ResonanceGraph` of the oracle's lists."""
    coords, tags = vertex_arrays(vertices)
    members = [idxs for idxs, _ in comps]
    labels = np.zeros(len(vertices), dtype=np.int64)
    for c, idxs in enumerate(members):
        labels[idxs] = c
    return characteristics.ResonanceGraph(
        vertices=coords, tags=tags, labels=labels,
        order=np.array(sum(members, []), dtype=np.int64),
        bounds=np.cumsum([0] + [len(m) for m in members]),
        spiral_pairs=np.array([pair for _, pair in comps if pair is not None],
                              dtype=np.int64).reshape(-1, 2))


def link_edges(spec, omega0, box, symbols):
    """The links of `resonance_links` between tagged vertices of the box, as
    sorted, deduplicated (lo, hi) pairs."""
    variety = characteristics.box_variety(omega0, spec.d, box)
    nv = variety.n_tagged
    found = characteristics.resonance_links(variety, np.arange(nv), symbols)
    assert found.dtype == np.int64
    return sorted({(min(i, k), max(i, k)) for i, k in found.T.tolist() if k < nv})


def assert_same_graph(got, want, spec):
    vertices, edges, comps = want
    assert tagged_vertices(got, spec.b) == vertices
    coords, tags = vertex_arrays(vertices)
    assert got.vertices.dtype == coords.dtype and np.array_equal(got.vertices, coords)
    assert got.tags.dtype == tags.dtype and np.array_equal(got.tags, tags)
    for arr in (got.labels, got.order, got.bounds, got.spiral_pairs):
        assert arr.dtype == np.int64
    members = component_members(got)
    for c, idxs in enumerate(members):
        assert np.all(got.labels[idxs] == c)
    pair_of = {int(got.labels[i]): (i, k) for i, k in got.spiral_pairs.tolist()}
    assert np.all(np.diff(got.labels[got.spiral_pairs[:, 0]]) > 0)  # component order
    assert [(idxs, pair_of.get(c)) for c, idxs in enumerate(members)] == comps


# -- resonance graph ------------------------------------------------------------


def test_resonance_graph_matches_loop(tp1, tp2, tp3):
    for spec, box in graph_cases(tp1, tp2, tp3):
        u0, v0 = linear_solution(spec)
        om = spec.omega0()
        want = loop_resonance_graph(u0, v0, spec, om, box)
        assert_same_graph(resonance_graph(u0, v0, spec, om, box), want, spec)
        symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
        assert link_edges(spec, om, box, symbols) == want[1]


def test_resonance_graph_with_injected_symbols_matches_loop(tp2):
    u0, v0 = linear_solution(tp2)
    sym = ConvolutionSymbols.from_fields(u0, v0, tp2.p)
    spirals = 0
    for inject in INJECTIONS:
        aug = ConvolutionSymbols(
            uv_p=_augment(sym.uv_p, inject.get("uv", [])),
            uu=_augment(sym.uu, inject.get("uu", [])),
            vv=_augment(sym.vv, inject.get("vv", [])), p=tp2.p)
        box = default_box(tp2)
        got = resonance_graph(u0, v0, tp2, tp2.omega0(), box, symbols=aug)
        want = loop_resonance_graph(u0, v0, tp2, tp2.omega0(), box, symbols=aug)
        assert_same_graph(got, want, tp2)
        assert link_edges(tp2, tp2.omega0(), box, aug) == want[1]
        spirals += len(got.spiral_pairs) > 0
    assert spirals >= 2


def test_condition_ii_inject_report_matches_loop_graph(tp2, monkeypatch):
    from nlsqp import conditions

    def as_graph(u, v, spec, omega0, box, symbols=None):
        return graph_of_lists(*loop_resonance_graph(u, v, spec, omega0, box, symbols))

    for inject in INJECTIONS + [None]:
        got = check_condition_ii(tp2, inject=inject)
        monkeypatch.setattr(conditions, "resonance_graph", as_graph)
        want = check_condition_ii(tp2, inject=inject)
        monkeypatch.undo()
        assert got == want


def test_resonance_graph_single_site_box(tp1):
    # Box(0, 0) holds only the origin, which is always characteristic.
    u0, v0 = linear_solution(tp1)
    g = resonance_graph(u0, v0, tp1, tp1.omega0(), Box(0, 0))
    want = loop_resonance_graph(u0, v0, tp1, tp1.omega0(), Box(0, 0))
    assert_same_graph(g, want, tp1)
    assert want[1] == []


# -- the box operator's coset blocks ------------------------------------------------


def assert_coset_blocks_are_slices(u, v, omega, spec, box, theta=0.0):
    """No entry of the loop-built box operator joins two coset keys, and each
    coset block, theta-shifted as `theta_spectrum_scan` shifts it, is the
    operator's slice at its members, bit for bit."""
    m = loop_scatter_matrix(u, v, omega, spec, box, theta)
    keys = coset_keys(spec, box)
    coo = m.tocoo()
    assert np.array_equal(keys[coo.row], keys[coo.col])

    sites, copies, got_keys, order, bounds = _coset_blocks(u, v, spec, box)
    ns = len(keys) // 2
    assert np.array_equal(got_keys, keys)
    assert np.array_equal(copies, np.repeat([1, -1], ns))
    assert np.array_equal(sites[:ns], sites[ns:])
    assert sorted(order.tolist()) == list(range(2 * ns))
    # One key per block, a different one for each block, members ascending.
    first = keys[order[bounds[:-1]]]
    assert np.array_equal(keys[order], np.repeat(first, np.diff(bounds), axis=0))
    assert len(np.unique(first, axis=0)) == len(first)
    assert all(np.all(np.diff(order[x:y]) > 0) for x, y in zip(bounds[:-1], bounds[1:]))

    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    stacks = _stacks(sites, copies, order, bounds, symbols, omega, spec)
    assert sorted(stacks) == sorted(set(np.diff(bounds).tolist()))
    signs = _copy_signs(copies, order, bounds, stacks)
    for k, stack in stacks.items():
        stack = stack + theta * signs[k]
        members = characteristics.members_of_size(order, bounds, k)
        rows = np.repeat(members, k, axis=1).ravel()
        cols = np.tile(members, k).ravel()
        want = np.asarray(m[rows, cols]).reshape(stack.shape)
        assert stack.dtype == complex
        assert np.array_equal(stack, want)


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_assemble_matches_loop_scatter(name, request):
    # The coset blocks of F' over the default box, at the seed and at the
    # solution, are the loop-built operator's blocks.
    spec = request.getfixturevalue(name)
    box = default_box(spec)
    u0, v0 = linear_solution(spec)
    rep = solve(spec, box=box)
    for u, v, omega in ((u0, v0, spec.omega0()),
                        (rep.state.u, rep.state.v, rep.state.omega)):
        assert_coset_blocks_are_slices(u, v, omega, spec, box)


def test_assemble_matches_loop_scatter_small_boxes(tp2, tp3):
    # Boxes narrower than the symbols' reach, where some shifts fall out.
    for spec, box in ((tp2, Box(1, 1)), (tp2, Box(0, 3)), (tp3, Box(2, 1)),
                      (b3_spec(), Box(1, 2)), (b3_spec(), Box(4, 5))):
        u0, v0 = linear_solution(spec)
        assert_coset_blocks_are_slices(u0, v0, spec.omega0(), spec, box, theta=0.25)


def test_assemble_tags_match_classify_site(tp2, tp3):
    # branch_tags against the two branch equations and the sign(n_1)
    # tie-break at j = 0, written out one site at a time; classify_site is
    # branch_tags on one site.
    for spec in (tp2, tp3):
        om = spec.omega0()
        coords = characteristics.enumerate_box_sites(spec.b, spec.d, Box(4, 3))
        tags, equations = characteristics.branch_tags(coords, om)
        code = {CharClass.CPLUS: 1, CharClass.CMINUS: -1, CharClass.OFF: 0}
        sites = [site(x[:spec.b], x[spec.b:]) for x in coords.tolist()]
        assert tags.tolist() == [code[written_class(s, om)] for s in sites]
        assert [characteristics.classify_site(s, om) for s in sites] == \
            [written_class(s, om) for s in sites]
        nw = [sum(n * w for n, w in zip(s.n, om.as_ints())) for s in sites]
        assert equations.tolist() == ([a + s.jsq() == 0 for a, s in zip(nw, sites)]
                                      + [-a + s.jsq() == 0 for a, s in zip(nw, sites)])
        assert set(tags.tolist()) == {-1, 0, 1}


# -- difference classes ------------------------------------------------------------


def test_diff_class_member_matches_loop_filter():
    cases = list(membership_grid())
    assert len(cases) == 5416
    for delta, omega0, pair in cases:
        assert (diff_class_member(delta, omega0, pair, search_radius=8)
                == loop_diff_class_member(delta, omega0, pair, search_radius=8))


def test_small_j_table_is_cached_and_read_only():
    table = characteristics._small_j_table(2, 8)
    assert table is characteristics._small_j_table(2, 8)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert [tuple(r) for r in table.tolist()] == list(characteristics._small_j_candidates(2, 8))


# -- partition ---------------------------------------------------------------------


@pytest.mark.parametrize("B,d,radius", [(1.0, 1, 10), (2.0, 1, 12), (5.0, 1, 20),
                                        (7.5, 1, 15), (1.0, 2, 3), (2.0, 2, 3),
                                        (4.0, 2, 4), (9.0, 2, 5)])
def test_partition_matches_union_find(B, d, radius):
    part = build_partition(B, d, radius)
    blocks, diameters, c0 = union_find_partition(B, d, radius)
    assert part.blocks == blocks
    assert part.diameters == diameters
    assert part.c0_hat == c0
    assert all(type(x) is int for x in part.diameters)


# -- connected components ----------------------------------------------------


def bfs_components(n, rows, cols):
    """Breadth-first search from each unlabelled vertex in ascending order:
    components numbered by smallest vertex, members ascending."""
    adj = [[] for _ in range(n)]
    for a, b in zip(rows, cols):
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n
    comps = []
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = len(comps)
        members, queue = [start], [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if label[y] < 0:
                    label[y] = len(comps)
                    members.append(y)
                    queue.append(y)
        comps.append(sorted(members))
    return label, comps


def assert_components_match_bfs(n, rows, cols):
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    labels, order, bounds = ordered_components(n, rows, cols)
    label, comps = bfs_components(n, rows.tolist(), cols.tolist())
    assert labels.tolist() == label
    assert bounds.tolist() == [0] + list(itertools.accumulate(len(c) for c in comps))
    assert [order[a:z].tolist() for a, z in zip(bounds[:-1], bounds[1:])] == comps


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, [], []
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    # Repeat some edges, and loop some vertices to themselves.
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs += [(x, x) for x in draw(st.lists(vertex, max_size=3))]
    return n, [a for a, _ in pairs], [b for _, b in pairs]


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_ordered_components_matches_bfs(graph):
    assert_components_match_bfs(*graph)


@pytest.mark.parametrize("n, rows, cols", [
    (0, [], []),
    (1, [], []),
    (1, [0], [0]),
    (5, [], []),
    (4, [2, 2, 3], [2, 3, 2]),
    (6, [5, 5, 1, 0], [1, 1, 5, 0]),
])
def test_ordered_components_small_cases(n, rows, cols):
    assert_components_match_bfs(n, rows, cols)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_ordered_components_long_path_and_star(shape):
    # Randomly numbered, so that the smallest vertex sits anywhere; the
    # rounds stay within the 2 ceil(log2 n) of the docstring.
    n = 20_000
    perm = np.random.default_rng(17).permutation(n)
    if shape == "path":
        rows, cols = perm[:-1], perm[1:]
    else:
        rows, cols = np.full(n - 1, perm[n // 2]), np.delete(perm, n // 2)
    low, rounds = _min_labels(n, rows, cols)
    assert np.all(low == 0)
    assert rounds <= 2 * math.ceil(math.log2(n))
    assert_components_match_bfs(n, rows, cols)
