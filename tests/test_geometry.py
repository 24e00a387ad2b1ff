"""Array lattice geometry against the per-site loops it replaced.

The loop versions of the resonance graph, of `assemble`'s scatter, of the
difference-class candidate filter and of the partition's union-find are
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
from nlsqp.linop import assemble
from nlsqp.newton import solve

from test_characteristics import (
    brute_characteristic_set,
    component_members,
    membership_grid,
    tagged_vertices,
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
        diam = 0
        for a in range(len(idxs)):
            sa = vertices[idxs[a]][0]
            for c in range(a + 1, len(idxs)):
                diam = max(diam, (sa - vertices[idxs[c]][0]).l1())
        pair = None
        seen = {}
        for i in idxs:
            s, t = vertices[i]
            key = (t, s.j)
            if key in seen and vertices[seen[key]][0].n != s.n:
                pair = (seen[key], i)
                break
            seen.setdefault(key, i)
        comps.append((idxs, diam, pair))
    return vertices, sorted(edges), comps


def loop_scatter_matrix(op):
    """The off-diagonal part of D + delta*A as the per-shift coordinate test
    built it, plus the diagonal, in the same sparse pipeline."""
    import scipy.sparse as sp
    spec, box, coords = op.spec, op.box, op.coords
    b, d, p, ns = spec.b, spec.d, spec.p, op.n_sites
    radii = np.array([box.n_radius] * b + [box.j_radius] * d, dtype=np.int64)
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

    symbols = ConvolutionSymbols.from_fields(op.u, op.v, p)
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
    return a_mat + sp.diags(op.diag.astype(complex), format="csr")


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


def graph_of_lists(vertices, edges, comps, symbols):
    """The array `ResonanceGraph` of the oracle's lists."""
    coords, tags = vertex_arrays(vertices)
    members = [idxs for idxs, _, _ in comps]
    labels = np.zeros(len(vertices), dtype=np.int64)
    for c, idxs in enumerate(members):
        labels[idxs] = c
    return characteristics.ResonanceGraph(
        vertices=coords, tags=tags, edges=np.array(edges, dtype=np.int64).reshape(-1, 2).T,
        labels=labels, order=np.array(sum(members, []), dtype=np.int64),
        bounds=np.cumsum([0] + [len(m) for m in members]),
        diameters=np.array([diam for _, diam, _ in comps], dtype=np.int64),
        spiral_pairs=np.array([pair for _, _, pair in comps if pair is not None],
                              dtype=np.int64).reshape(-1, 2),
        interaction_range=symbols.interaction_range(), symbols=symbols)


def assert_same_graph(got, want):
    vertices, edges, comps = want
    assert tagged_vertices(got) == vertices
    coords, tags = vertex_arrays(vertices)
    assert got.vertices.dtype == coords.dtype and np.array_equal(got.vertices, coords)
    assert got.tags.dtype == tags.dtype and np.array_equal(got.tags, tags)
    assert got.edges.dtype == np.int64 and got.edges.shape == (2, len(edges))
    assert list(zip(*got.edges.tolist())) == edges
    for arr in (got.labels, got.order, got.bounds, got.diameters, got.spiral_pairs):
        assert arr.dtype == np.int64
    members = component_members(got)
    for c, idxs in enumerate(members):
        assert np.all(got.labels[idxs] == c)
    pair_of = {int(got.labels[i]): (i, k) for i, k in got.spiral_pairs.tolist()}
    assert np.all(np.diff(got.labels[got.spiral_pairs[:, 0]]) > 0)  # component order
    assert [(idxs, diam, pair_of.get(c)) for c, (idxs, diam)
            in enumerate(zip(members, got.diameters.tolist()))] == comps


# -- resonance graph ------------------------------------------------------------


def test_resonance_graph_matches_loop(tp1, tp2, tp3):
    for spec, box in graph_cases(tp1, tp2, tp3):
        u0, v0 = linear_solution(spec)
        om = spec.omega0()
        assert_same_graph(resonance_graph(u0, v0, spec, om, box),
                          loop_resonance_graph(u0, v0, spec, om, box))


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
        assert_same_graph(got, loop_resonance_graph(u0, v0, tp2, tp2.omega0(), box,
                                                    symbols=aug))
        assert got.interaction_range == aug.interaction_range()
        spirals += len(got.spiral_pairs) > 0
    assert spirals >= 2


def test_condition_ii_inject_report_matches_loop_graph(tp2, monkeypatch):
    from nlsqp import conditions

    def as_graph(u, v, spec, omega0, box, symbols=None):
        return graph_of_lists(*loop_resonance_graph(u, v, spec, omega0, box, symbols),
                              symbols)

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
    assert_same_graph(g, want)


# -- assemble ---------------------------------------------------------------------


def assert_same_csr(got, want):
    assert got.shape == want.shape
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("name", ["tp1", "tp2", "tp3"])
def test_assemble_matches_loop_scatter(name, request):
    spec = request.getfixturevalue(name)
    box = default_box(spec)
    u0, v0 = linear_solution(spec)
    rep = solve(spec, box=box)
    for u, v, omega in ((u0, v0, spec.omega0()),
                        (rep.state.u, rep.state.v, rep.state.omega)):
        op = assemble(u, v, omega, spec, box)
        assert_same_csr(op.matrix, loop_scatter_matrix(op))


def test_assemble_matches_loop_scatter_small_boxes(tp2, tp3):
    # Boxes narrower than the symbols' reach, where some shifts fall out.
    for spec, box in ((tp2, Box(1, 1)), (tp2, Box(0, 3)), (tp3, Box(2, 1)),
                      (b3_spec(), Box(1, 2))):
        u0, v0 = linear_solution(spec)
        op = assemble(u0, v0, spec.omega0(), spec, box, theta=0.25)
        assert_same_csr(op.matrix, loop_scatter_matrix(op))


def test_assemble_tags_match_classify_site(tp2, tp3):
    for spec in (tp2, tp3):
        u0, v0 = linear_solution(spec)
        op = assemble(u0, v0, spec.omega0(), spec, Box(4, 3))
        code = {CharClass.CPLUS: 1, CharClass.CMINUS: -1, CharClass.OFF: 0}
        want = [code[characteristics.classify_site(op.site_at(i), spec.omega0())]
                for i in range(op.n_sites)]
        assert op.tags.tolist() == want


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
