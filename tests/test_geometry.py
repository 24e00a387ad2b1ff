"""Array lattice geometry against the per-site loops it replaced.

The loop versions of the resonance graph, of the box operator's scatter
(against the box blocks of `linop`), of the difference-class candidate
filter and of the partition's union-find are
kept here as oracles; the array versions must reproduce them exactly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsqp import characteristics, conditions
from nlsqp.characteristics import (
    CharClass,
    ConvolutionSymbols,
    _min_labels,
    ordered_components,
    resonance_graph,
)
from nlsqp.conditions import check_condition_ii
from nlsqp.lattice import (
    Box, SiteIndex, SparseSeries, default_box, linear_solution, make_spec, site)
from nlsqp.linop import _box_blocks, _copy_signs, _exclude, _stacks
from nlsqp.newton import solve

from oracles import (_gather, build_partition, classify_site, frozen_complete_witness,
                     full_small_j_table, injected_symbols, small_j_candidates,
                     unique_ordered_components)
from test_characteristics import (
    brute_characteristic_set,
    component_members,
    diff_class_member,
    membership_grid,
    tagged_vertices,
    written_class,
)


# -- oracles ----------------------------------------------------------------


def loop_resonance_graph(u, v, spec, omega0, box, supports=None):
    if supports is None:
        supports = ConvolutionSymbols.from_fields(u, v, spec.p).supports()
    uv_support, uu_support, vv_support = supports
    vertices = brute_characteristic_set(omega0, spec.d, box)
    index = {s: i for i, (s, _) in enumerate(vertices)}
    tags = [t for _, t in vertices]
    diag_shifts = [s for s in uv_support if not s.is_zero()]
    edges = set()
    for i, (x, tag) in enumerate(vertices):
        cross = uu_support if tag is CharClass.CPLUS else vv_support
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
    candidate at a time, each lifted by the frozen one-candidate lift."""
    eps1, eps2 = (characteristics.CLASS_TAG[c] for c in class_pair)
    w = omega0 if isinstance(omega0, tuple) else omega0.as_ints()
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
            candidates = small_j_candidates(d, search_radius)
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
            candidates = [jp for jp in small_j_candidates(d, search_radius)
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
        wit = frozen_complete_witness(jp, jpp, delta, w, eps1, eps2)
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
        links=np.empty((3, 0), dtype=np.int64),  # condition (ii) reads no link
        order=np.array(sum(members, []), dtype=np.int64),
        bounds=np.cumsum([0] + [len(m) for m in members]))


def link_edges(spec, omega0, box, symbols):
    """The links of `resonance_links` between tagged vertices of the box, as
    sorted, deduplicated (lo, hi) pairs."""
    coords = characteristics.enumerate_box_sites(spec.b, spec.d, box)
    tags, _ = characteristics.branch_tags(coords, omega0)
    on = np.nonzero(tags)[0]
    found = characteristics.resonance_links(box, coords[on], tags[on], symbols.supports(),
                                            spec.b)
    assert found.dtype == np.int64
    return sorted({(min(i, k), max(i, k)) for i, k, _ in found.T.tolist()})


def assert_same_graph(got, want, spec):
    vertices, edges, comps = want
    assert tagged_vertices(got, spec.b) == vertices
    coords, tags = vertex_arrays(vertices)
    assert got.vertices.dtype == coords.dtype and np.array_equal(got.vertices, coords)
    assert got.tags.dtype == tags.dtype and np.array_equal(got.tags, tags)
    pairs = conditions._spiral_pairs(got.vertices[:, spec.b:], got.tags, got.labels)
    for arr in (got.links, got.labels, got.order, got.bounds, pairs):
        assert arr.dtype == np.int64
    assert sorted({(min(i, k), max(i, k)) for i, k, _ in got.links.T.tolist()}) == edges
    members = component_members(got)
    for c, idxs in enumerate(members):
        assert np.all(got.labels[idxs] == c)
    pair_of = {int(got.labels[i]): (i, k) for i, k in pairs.tolist()}
    assert np.all(np.diff(got.labels[pairs[:, 0]]) > 0)  # component order
    assert [(idxs, pair_of.get(c)) for c, idxs in enumerate(members)] == comps


# -- resonance graph ------------------------------------------------------------


def test_resonance_graph_matches_loop(tp1, tp2, tp3):
    for spec, box in graph_cases(tp1, tp2, tp3):
        u0, v0 = linear_solution(spec)
        om = spec.omega0()
        want = loop_resonance_graph(u0, v0, spec, om, box)
        assert_same_graph(resonance_graph(spec, box), want, spec)
        symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
        assert link_edges(spec, om, box, symbols) == want[1]


def test_resonance_graph_with_injected_symbols_matches_loop(tp2):
    u0, v0 = linear_solution(tp2)
    spirals = 0
    for inject in INJECTIONS:
        aug = injected_symbols(tp2, inject)
        box = default_box(tp2)
        got = resonance_graph(tp2, box, aug.supports())
        want = loop_resonance_graph(u0, v0, tp2, tp2.omega0(), box, aug.supports())
        assert_same_graph(got, want, tp2)
        assert link_edges(tp2, tp2.omega0(), box, aug) == want[1]
        spirals += len(conditions._spiral_pairs(got.vertices[:, tp2.b:], got.tags,
                                                got.labels)) > 0
    assert spirals >= 2


def test_condition_ii_inject_report_matches_loop_graph(tp2, monkeypatch):
    def as_graph(spec, box, supports=None):
        u, v = linear_solution(spec)
        return graph_of_lists(*loop_resonance_graph(u, v, spec, spec.omega0(), box, supports))

    for inject in INJECTIONS + [None]:
        got = check_condition_ii(tp2, symbols=injected_symbols(tp2, inject))
        monkeypatch.setattr(conditions, "resonance_graph", as_graph)
        want = check_condition_ii(tp2, symbols=injected_symbols(tp2, inject))
        monkeypatch.undo()
        assert got == want


def test_resonance_graph_single_site_box(tp1):
    # Box(0, 0) holds only the origin, which is always characteristic.
    u0, v0 = linear_solution(tp1)
    g = resonance_graph(tp1, Box(0, 0))
    want = loop_resonance_graph(u0, v0, tp1, tp1.omega0(), Box(0, 0))
    assert_same_graph(g, want, tp1)
    assert want[1] == []


@pytest.mark.parametrize("box", [Box(0, 0), Box(1, 0), Box(0, 2), Box(2, 1)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resonance_links_match_a_dict_oracle_past_the_box_faces(box, data):
    # Any distinct (site, copy) vertices of a small box, and shifts up to
    # three radii past its faces, so x - s often leaves the box, where its
    # index in the box itself would alias another site's.  Every link is a
    # vertex pair at a shift its copies select, once per shift, as a dict
    # lookup of x - s finds it, with the position of s in the supports.
    b, d = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    sites = characteristics.enumerate_box_sites(b, d, box)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, len(sites) - 1),
                                         st.sampled_from([1, -1])), unique=True, max_size=40))
    vertices = sites[[i for i, _ in pairs]].reshape(-1, b + d)
    copies = np.array([c for _, c in pairs], dtype=np.int8)
    reach = [3 * box.n_radius + 1] * b + [3 * box.j_radius + 1] * d
    shift = st.tuples(*[st.integers(-r, r) for r in reach]).map(lambda t: site(t[:b], t[b:]))

    def series():
        return SparseSeries(b, d, {s: 1.0 for s in data.draw(st.lists(shift, max_size=6))})

    supports = [series().support() for _ in range(3)]
    got = characteristics.resonance_links(box, vertices, copies, supports, b)

    rows = [(tuple(x), c) for x, c in zip(vertices.tolist(), copies.tolist())]
    where = {row: i for i, row in enumerate(rows)}
    want = []
    for i, (x, c) in enumerate(rows):
        for src, dst, kind in ((1, 1, 0), (-1, -1, 0), (1, -1, 1), (-1, 1, 2)):
            for at, s in enumerate(supports[kind]) if c == src else []:
                k = where.get((tuple(a - t for a, t in zip(x, s.n + s.j)), dst))
                if k is not None and not (src == dst and s.is_zero()):
                    want.append((i, k, sum(map(len, supports[:kind])) + at))
    assert got.dtype == np.int64
    assert sorted(map(tuple, got.T.tolist())) == sorted(want)


def assert_link_terms_are_gathered(vertices, copies, supports, b, box, dropped):
    """Each link of `resonance_links` between the vertices carries the term
    `_gather` finds at its entry, and the stacks `component_terms` scatters
    from the links, on the components with the dropped vertices taken out,
    equal `_gather` on the members of every size."""
    links = characteristics.resonance_links(box, vertices, copies, supports, b)
    assert links.dtype == np.int64
    assert np.array_equal(links[2], _gather(vertices, copies, links[0], links[1], supports))
    _, order, bounds = ordered_components(len(vertices), links[0], links[1])
    order, bounds = _exclude(order, bounds, dropped)
    stacks = characteristics.component_terms(len(vertices), order, bounds, links, supports[0])
    assert sorted(stacks) == sorted(set(np.diff(bounds).tolist()))
    for k, stack in stacks.items():
        members = characteristics.members_of_size(order, bounds, k)
        want = _gather(vertices, copies, members[:, :, None], members[:, None, :], supports)
        assert stack.dtype == np.int64 and np.array_equal(stack, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(1, 2), st.data())
def test_link_terms_and_component_stacks_match_gather(b, d, p, data):
    # Random seeds on small boxes, their supports widened by shifts up to
    # three radii past the box faces: on the graph's vertices and on the
    # doubled sites of the whole box, some dropped as the gate drops seed
    # equations.
    pool = [j for j in itertools.product(range(-2, 3), repeat=d) if any(j)]
    js = data.draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b, unique=True))
    spec = make_spec(d=d, b=b, p=p, delta=1e-3, j_list=js, amplitudes=[0.5] * b)
    box = Box(data.draw(st.integers(0, {1: 6, 2: 3, 3: 1}[b])), data.draw(st.integers(0, 2)))
    reach = [3 * box.n_radius + 1] * b + [3 * box.j_radius + 1] * d
    shift = st.tuples(*[st.integers(-r, r) for r in reach]).map(lambda t: site(t[:b], t[b:]))
    supports = [sorted(set(sup) | set(data.draw(st.lists(shift, max_size=4))))
                for sup in characteristics.seed_symbols(spec).supports()]
    graph = resonance_graph(spec, box, supports)
    sites = characteristics.enumerate_box_sites(b, d, box)
    for vertices, copies in ((graph.vertices, graph.tags),
                             (np.concatenate([sites, sites]),
                              np.repeat(np.array([1, -1], dtype=np.int8), len(sites)))):
        dropped = np.array(data.draw(st.lists(st.booleans(), min_size=len(vertices),
                                              max_size=len(vertices))), dtype=bool)
        assert_link_terms_are_gathered(vertices, copies, supports, b, box, dropped)


def test_link_terms_and_component_stacks_match_gather_on_injected_supports(tp2):
    # A uu edge at an n-sum-0 shift: tp2's box then holds size-5 components
    # of two kind patterns.
    shift = site((-1, 0), (1,))
    supports = injected_symbols(tp2, {"uu": [shift], "vv": [-shift]}).supports()
    box = default_box(tp2)
    graph = resonance_graph(tp2, box, supports)
    assert 5 in np.diff(graph.bounds)
    assert_link_terms_are_gathered(graph.vertices, graph.tags, supports, tp2.b, box,
                                   np.zeros(len(graph.vertices), dtype=bool))


# -- row keys ------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.lists(
           st.lists(st.integers(-3, 3), min_size=w, max_size=w), min_size=1, max_size=30)),
       st.sampled_from([1, 7, 2 ** 40]))
def test_row_keys_equate_and_order_rows_as_np_unique(rows, scale):
    # A scale of 2**40 over two or more columns spans past int64, where the
    # ids are the rows' dense ranks; otherwise they are mixed-radix numbers.
    rows = np.array(rows, dtype=np.int64) * scale
    ids = characteristics.row_keys(rows)
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    _, got_first, got_inverse = np.unique(ids, return_index=True, return_inverse=True)
    assert ids.dtype == np.int64 and ids.shape == (len(rows),)
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_inverse, inverse.ravel())


@pytest.mark.parametrize("b, d, n_radius, j_radius", [
    (1, 1, 700, 700),    # two wide axes
    (2, 1, 62, 62),      # 125^3 sites
    (12, 1, 1, 1),       # 3^13 sites: the most axes of width 3
    (1, 1, 0, 999_999),  # one axis of 1 999 999 sites
])
def test_row_keys_stay_mixed_radix_at_the_site_cap(b, d, n_radius, j_radius):
    # The keys the package builds from a box under SITE_CAP, at their
    # widest: the graph's (label, tag, j) rows and the differences of two
    # sites, each given by two rows at the ends of every column's span.  The
    # largest id is the product of the spans less one, so no id wraps, and
    # the tripled box of `resonance_links` keeps its doubled indices in int64.
    box = Box(n_radius, j_radius)
    sites = box.site_count(b, d)
    assert sites <= characteristics.SITE_CAP
    radii = np.array([n_radius] * b + [j_radius] * d, dtype=np.int64)
    graph_keys = np.array([[0, -1] + [-j_radius] * d,
                           [characteristics.SITE_CAP - 1, 1] + [j_radius] * d], dtype=np.int64)
    diffs = np.stack([-2 * radii, 2 * radii])
    for keys in (graph_keys, diffs):
        spans = (keys[1] - keys[0] + 1).tolist()
        assert characteristics.row_keys(keys).tolist() == [0, math.prod(spans) - 1]
    assert math.prod((4 * radii + 1).tolist()) <= sites ** 2 <= 4 * 10 ** 12
    assert 2 * Box(3 * n_radius, 3 * j_radius).site_count(b, d) < np.iinfo(np.int64).max


# -- the box operator's blocks ------------------------------------------------------


def assert_box_blocks_are_slices(u, v, omega, spec, box, theta=0.0):
    """The blocks of `_box_blocks` partition the doubled box indices, each
    numbered by its smallest member with members ascending; no nonzero
    entry of the loop-built box operator joins two blocks, and each block,
    theta-shifted as `theta_spectrum_scan` shifts it, is the operator's
    slice at its members, bit for bit.  With u on Lambda and v on -Lambda
    the blocks are the cosets of the difference lattice (`coset_keys`)."""
    m = loop_scatter_matrix(u, v, omega, spec, box, theta)
    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    sites, copies, order, bounds, links = _box_blocks(spec, box, symbols)
    ns = m.shape[0] // 2
    coords = characteristics.enumerate_box_sites(spec.b, spec.d, box)
    assert np.array_equal(copies, np.repeat([1, -1], ns))
    assert np.array_equal(sites, np.concatenate([coords, coords]))
    assert sorted(order.tolist()) == list(range(2 * ns))
    assert np.all(np.diff(order[bounds[:-1]]) > 0)
    assert all(np.all(np.diff(order[x:y]) > 0) for x, y in zip(bounds[:-1], bounds[1:]))
    labels = np.empty(2 * ns, dtype=np.int64)
    labels[order] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    coo = m.tocoo()
    nonzero = coo.data != 0
    assert np.array_equal(labels[coo.row[nonzero]], labels[coo.col[nonzero]])
    if all(characteristics.on_lattice(np.array([s.n + s.j for s in series.support()]),
                                      copy, spec).all() for series, copy in ((u, 1), (v, -1))):
        keys = coset_keys(spec, box)
        first = keys[order[bounds[:-1]]]
        assert np.array_equal(keys[order], np.repeat(first, np.diff(bounds), axis=0))
        assert len(np.unique(first, axis=0)) == len(first)

    stacks = _stacks(sites, copies, order, bounds, links, symbols, omega, spec)
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
    # The blocks of F' over the default box, at the seed and at the
    # solution, are the loop-built operator's blocks.
    spec = request.getfixturevalue(name)
    box = default_box(spec)
    u0, v0 = linear_solution(spec)
    rep = solve(spec, box=box)
    for u, v, omega in ((u0, v0, spec.omega0()),
                        (rep.state.u, rep.state.v, rep.state.omega)):
        assert_box_blocks_are_slices(u, v, omega, spec, box)


def test_assemble_matches_loop_scatter_small_boxes(tp2, tp3):
    # Boxes narrower than the symbols' reach, where some shifts fall out.
    for spec, box in ((tp2, Box(1, 1)), (tp2, Box(0, 3)), (tp3, Box(2, 1)),
                      (b3_spec(), Box(1, 2)), (b3_spec(), Box(4, 5))):
        u0, v0 = linear_solution(spec)
        assert_box_blocks_are_slices(u0, v0, spec.omega0(), spec, box, theta=0.25)
    # Off Lambda: with u = v the u-copies on Lambda link to v-copies there.
    u0, _ = linear_solution(tp2)
    assert_box_blocks_are_slices(u0, u0, tp2.omega0(), tp2, Box(2, 2), theta=0.25)


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
        assert [classify_site(s, om) for s in sites] == \
            [written_class(s, om) for s in sites]
        nw = [sum(n * w for n, w in zip(s.n, om.as_ints())) for s in sites]
        assert equations.tolist() == ([a + s.jsq() == 0 for a, s in zip(nw, sites)]
                                      + [-a + s.jsq() == 0 for a, s in zip(nw, sites)])
        assert set(tags.tolist()) == {-1, 0, 1}


# -- difference classes ------------------------------------------------------------


def test_diff_class_member_matches_loop_filter():
    # Status, witness and reason of every case equal the loop oracle's, whose
    # lift is the frozen one-candidate lift; deciding every case of an
    # omega0 in one batched call changes nothing.
    cases = list(membership_grid())
    assert len(cases) == 5416
    want = [loop_diff_class_member(delta, omega0, pair, search_radius=8)
            for delta, omega0, pair in cases]
    assert [diff_class_member(delta, omega0, pair, search_radius=8)
            for delta, omega0, pair in cases] == want
    for omega0 in {omega0 for _, omega0, _ in cases}:
        mine = [k for k, case in enumerate(cases) if case[1] == omega0]
        got = characteristics.diff_class_members(
            [cases[k][::2] for k in mine], omega0, search_radius=8)
        assert got == [want[k] for k in mine]


# tp1-tp3, the p = 3 seed, b = 3 and b = 4 (the CLI's), and a d = 3 seed.
SUPPORT_SPECS = [
    (1, [2], 1, [0.7]), (1, [1, 2], 1, [0.6, 0.8]), (2, [(1, 0), (0, 1)], 2, [0.9, 0.35]),
    (1, [1, 3], 3, [0.6, 0.8]), (1, [1, 2, 4], 1, [0.6, 0.8, 0.5]),
    (1, [1, 2, 3, 4], 1, [0.5] * 4), (3, [(1, 0, 0), (0, 1, 1)], 1, [0.5, 0.5]),
]


@pytest.mark.parametrize("d, js, p, amplitudes", SUPPORT_SPECS)
def test_symbol_supports_match_the_frozen_lift(d, js, p, amplitudes):
    # Every bucket, witness and unknown flag equals the loop oracle's at the
    # default search radius (12 in d = 3, to keep the oracle's scan short).
    from nlsqp.conditions import symbol_supports
    spec = make_spec(d=d, b=len(js), p=p, delta=1e-3, j_list=js, amplitudes=amplitudes)
    radius = 12 if d == 3 else 30
    got = symbol_supports(spec, search_radius=radius)
    sym = characteristics.seed_symbols(spec)
    P, M = CharClass.CPLUS, CharClass.CMINUS
    for name, series, pair in (("gpp", sym.uv_p, (P, P)), ("gmm", sym.uv_p, (M, M)),
                               ("gpm", sym.vv, (M, P)), ("gmp", sym.uu, (P, M))):
        found = {delta: loop_diff_class_member(delta, spec.omega0(), pair, radius)
                 for delta in series.support()}
        assert getattr(got, name) == [x for x, res in found.items() if res.status != "no"]
        for delta, res in found.items():
            assert got.witnesses.get((name, delta)) == res.witness
            assert ((name, delta) in got.unknown) == (res.status == "unknown")


def small_j_table(d, radius):
    """The blocks of the membership search concatenated into one table."""
    return np.concatenate([block for block, _ in characteristics._small_j_blocks(d, radius)])


def test_small_j_table_is_cached_and_read_only():
    # Each block is built once per (d, radius), kept with its float64 columns.
    first = list(characteristics._small_j_blocks(2, 8))
    again = list(characteristics._small_j_blocks(2, 8))
    assert len(first) == 3 and all(a is b for pair in zip(first, again) for a, b in zip(*pair))
    for block, cols in first:
        assert block.dtype == np.int64 and not block.flags.writeable
        assert cols.dtype == np.float64 and not cols.flags.writeable
        assert cols.flags.c_contiguous and np.array_equal(cols, block.T)
    assert [tuple(r) for r in small_j_table(2, 8).tolist()] == list(small_j_candidates(2, 8))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_small_j_table_equals_the_sorted_tuple_list(d):
    # The blocks, concatenated, sort by (l1 norm, j') as the tuple list did,
    # at every radius up to the membership search's default of 30 (d = 3 up
    # to 12), and block k holds the l1 norms in [0, 8), [8, 16), [16, 32) ...
    for radius in [*range(9), 12, *([30] if d < 3 else [])]:
        table = small_j_table(d, radius)
        assert table.shape == ((2 * radius + 1) ** d, d)
        assert [tuple(r) for r in table.tolist()] == list(small_j_candidates(d, radius))
        for k, (block, _) in enumerate(characteristics._small_j_blocks(d, radius)):
            l1 = np.abs(block).sum(axis=1)
            hi = characteristics.J_BLOCK_L1 << k
            assert len(block) and l1.min() >= (hi // 2 if k else 0) and l1.max() < hi


@pytest.mark.parametrize("d, radius", [*itertools.product([1, 2, 3], range(9)),
                                       (1, 30), (2, 30)])
def test_small_j_blocks_concatenate_to_the_full_table(d, radius):
    got, want = small_j_table(d, radius), full_small_j_table(d, radius)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


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


@settings(max_examples=300, deadline=None)
@given(graphs())
@example((0, [], []))
@example((1, [], []))
@example((1, [0, 0], [0, 0]))
@example((6, [4, 4, 2], [2, 4, 2]))
def test_ordered_components_matches_the_unique_numbering(graph):
    # Labels counted from the roots equal np.unique's numbering of them:
    # labels with their dtype, order and bounds.
    n, rows, cols = graph
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    for got, want in zip(ordered_components(n, rows, cols),
                         unique_ordered_components(n, rows, cols)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


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
