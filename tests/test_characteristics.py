import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsqp.lattice import Box, FrequencyVector, linear_solution, make_spec, site
from nlsqp.characteristics import (
    CharClass,
    ConvolutionSymbols,
    diff_class_members,
    resonance_graph,
    sphere_points,
)

from oracles import (
    box_resonance_graph, build_partition, classify_site, grid_lattice_in_box,
    small_j_candidates, verify_diff_witness)


OM_TP2 = FrequencyVector((1.0, 4.0))


def diff_class_member(delta, omega0, class_pair, search_radius=30):
    """`diff_class_members` of the one query (delta, class_pair)."""
    return diff_class_members([(delta, class_pair)], omega0, search_radius)[0]


def tagged_vertices(graph, b):
    """A resonance graph's vertex rows, b frequencies each, as (SiteIndex,
    CharClass) pairs."""
    cls = {1: CharClass.CPLUS, -1: CharClass.CMINUS}
    return [(site(row[:b], row[b:]), cls[t])
            for row, t in zip(graph.vertices.tolist(), graph.tags.tolist())]


def component_members(graph):
    """A resonance graph's components as ascending lists of vertex numbers."""
    order, cuts = graph.order.tolist(), graph.bounds.tolist()
    return [order[a:z] for a, z in zip(cuts[:-1], cuts[1:])]


def test_classify_seed_site():
    assert classify_site(site((-1, 0), (1,)), OM_TP2) is CharClass.CPLUS


def test_classify_origin_tiebreak():
    assert classify_site(site((0, 0), (0,)), OM_TP2) is CharClass.CPLUS
    # n.w0 = 0 with positive n_1 goes to the minus branch.
    assert classify_site(site((4, -1), (0,)), OM_TP2) is CharClass.CMINUS
    assert classify_site(site((-4, 1), (0,)), OM_TP2) is CharClass.CPLUS


def test_classify_off():
    assert classify_site(site((1, 0), (2,)), OM_TP2) is CharClass.OFF


def test_classify_branch_symmetry(tp2):
    om = tp2.omega0()
    for n in itertools.product(range(-4, 5), repeat=2):
        for j in range(-3, 4):
            if j == 0:
                continue
            c1 = classify_site(site(n, (j,)), om)
            c2 = classify_site(site(tuple(-x for x in n), (j,)), om)
            if c1 is CharClass.CPLUS:
                assert c2 is CharClass.CMINUS
            if c1 is CharClass.CMINUS:
                assert c2 is CharClass.CPLUS


def written_class(s, om):
    """The branch rule written out: C+ where n.w0 + |j|^2 = 0, C- where
    -n.w0 + |j|^2 = 0, and at j = 0 (both equations read n.w0 = 0) C+ for
    n_1 <= 0, C- for n_1 > 0."""
    nw = sum(n * w for n, w in zip(s.n, om.as_ints()))
    jsq = sum(j * j for j in s.j)
    if jsq == 0 and nw == 0:
        return CharClass.CPLUS if s.n[0] <= 0 else CharClass.CMINUS
    if nw + jsq == 0:
        return CharClass.CPLUS
    if -nw + jsq == 0:
        return CharClass.CMINUS
    return CharClass.OFF


def brute_characteristic_set(om, d, box):
    out = []
    for n in itertools.product(range(-box.n_radius, box.n_radius + 1),
                               repeat=len(om)):
        for j in itertools.product(range(-box.j_radius, box.j_radius + 1),
                                   repeat=d):
            s = site(n, j)
            c = written_class(s, om)
            if c is not CharClass.OFF:
                out.append((s, c))
    return out


def characteristic_set(spec, box):
    """The tagged characteristic sites of the box: the resonance graph's
    vertices."""
    return tagged_vertices(resonance_graph(spec, box), spec.b)


def test_characteristic_set_tp1(tp1):
    om = tp1.omega0()
    got = characteristic_set(tp1, Box(9, 3))
    plus = sorted(s for s, c in got if c is CharClass.CPLUS)
    # Exhaustive-scan oracle: for b = 1, n = -j^2/4 must be integral.
    assert plus == sorted([site((0,), (0,)), site((-1,), (2,)), site((-1,), (-2,))])
    assert got == brute_characteristic_set(om, 1, Box(9, 3))


def test_characteristic_set_counts_balanced(tp2):
    got = characteristic_set(tp2, Box(8, 3))
    plus = sum(1 for _, c in got if c is CharClass.CPLUS)
    minus = sum(1 for _, c in got if c is CharClass.CMINUS)
    # (n, j) -> (-n, -j) swaps branches for j != 0 and swaps the j = 0 tie
    # classes up to the n_1 = 0 plane, which the symmetric box balances.
    assert plus == minus + 1  # the origin itself lands on the plus side


def test_characteristic_set_radius_zero(tp1):
    got = characteristic_set(tp1, Box(0, 0))
    assert got == [(site((0,), (0,)), CharClass.CPLUS)]


def test_characteristic_set_site_cap(tp2):
    # The cap bounds the (n_1 .. n_{b-1}, j) grid the graph enumerates, not
    # the box: 201^3 sites on a 201^2 grid build, and a 2001^2 grid is
    # refused before any array is built.
    from nlsqp.characteristics import SITE_CAP
    from nlsqp.lattice import BoxTooLarge
    assert Box(100, 100).site_count(2, 1) > SITE_CAP >= Box(100, 100).site_count(1, 1)
    assert (site((0, 0), (0,)), CharClass.CPLUS) in characteristic_set(tp2, Box(100, 100))
    assert Box(1000, 1000).site_count(1, 1) > SITE_CAP
    with pytest.raises(BoxTooLarge, match=f"cap of {SITE_CAP}"):
        characteristic_set(tp2, Box(1000, 1000))


def test_resonance_graph_refuses_indices_past_int64(tp1):
    # b = 1: the grid holds the 7 j's alone, but the links look vertices up
    # in the tripled box, whose doubled indices would wrap int64.
    from nlsqp.lattice import BoxTooLarge
    with pytest.raises(BoxTooLarge, match="past int64"):
        resonance_graph(tp1, Box(10 ** 17, 3))


def assert_same_graph(got, want):
    for name in ("vertices", "tags", "links", "labels", "order", "bounds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# (d, j_list, box, whether j = 0 holds sites of both branches): b = 1, 2, 3
# in one and two dimensions; at b >= 2 the sites n = +-(w0_2, -w0_1, 0 ..)
# lie in the box, n_1 > 0 on C-; tp2's gcd(w0) is 1, (2), (4)'s is 4.
VARIETY_CASES = [
    (1, [2], Box(6, 5), False),
    (2, [(1, 1)], Box(4, 3), False),
    (1, [1, 2], Box(9, 3), True),
    (1, [2, 4], Box(16, 4), True),
    (2, [(1, 0), (0, 1)], Box(9, 3), True),
    (1, [1, 2, 4], Box(16, 4), True),
    (2, [(1, 0), (0, 1), (1, 1)], Box(3, 2), True),
]


@pytest.mark.parametrize("d, js, box, both_at_zero", VARIETY_CASES)
def test_variety_from_branch_equations_matches_tagged_box(d, js, box, both_at_zero):
    spec = make_spec(d=d, b=len(js), p=1, delta=1e-3, j_list=js, amplitudes=[0.5] * len(js))
    got = resonance_graph(spec, box)
    assert_same_graph(got, box_resonance_graph(spec, box))
    at_zero = set(got.tags[~got.vertices[:, spec.b:].any(axis=1)].tolist())
    assert at_zero == ({1, -1} if both_at_zero else {1})


# The CLI's seeds: tp1-tp3, p = 3, b = 3 and the two b = 4 seeds.
CLI_SEEDS = {
    "tp1": "d = 1\nb = 1\np = 1\ndelta = 1e-3\nmodes = (2):0.7",
    "tp2": "d = 1\nb = 2\np = 1\ndelta = 1e-3\nmodes = (1):0.6, (2):0.8",
    "tp3": "d = 2\nb = 2\np = 2\ndelta = 1e-3\nmodes = (1,0):0.9, (0,1):0.35",
    "p3": "d = 1\nb = 2\np = 3\ndelta = 1e-3\nmodes = (1):0.6, (3):0.8",
    "b3": "d = 1\nb = 3\np = 1\ndelta = 1e-3\nmodes = (1):0.6, (2):0.8, (4):0.5",
    "b4": "d = 1\nb = 4\np = 1\ndelta = 1e-3\nmodes = (1):0.5, (2):0.5, (3):0.5, (4):0.5",
    "b4-solve": "d = 1\nb = 4\np = 1\ndelta = 1e-3\nmodes = (1):0.6, (2):0.8, (4):0.5, (7):0.38",
}


@pytest.mark.parametrize("problem", CLI_SEEDS.values(), ids=CLI_SEEDS)
def test_resonance_graph_matches_tagged_box_on_the_cli_seeds(problem):
    # On the box `check` builds its graph on, every vertex, tag and
    # component equals the graph of the box's sites that branch_tags tags.
    from nlsqp.cli import parse_config
    cfg = parse_config("[problem]\n" + problem + "\n")
    box = cfg.condition_box()
    assert_same_graph(resonance_graph(cfg.problem, box), box_resonance_graph(cfg.problem, box))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_variety_from_branch_equations_matches_tagged_box_random(b, d, data):
    # Random seeds and boxes small enough to tag site by site.
    pool = [j for j in itertools.product(range(-2, 3), repeat=d) if any(j)]
    js = data.draw(st.lists(st.sampled_from(pool), min_size=b, max_size=b, unique=True))
    n_radius = data.draw(st.integers(0, {1: 12, 2: 8, 3: 4}[b]))
    box = Box(n_radius, data.draw(st.integers(0, 3)))
    spec = make_spec(d=d, b=b, p=data.draw(st.integers(1, 2)), delta=1e-3, j_list=js,
                     amplitudes=[0.5] * b)
    assert_same_graph(resonance_graph(spec, box), box_resonance_graph(spec, box))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-6, 6), min_size=d, max_size=d), st.integers(-3, 80))))
def test_sphere_points_match_brute_force(args):
    # Every j with |2j - c|^2 = r, ascending: |2 j_i - c_i| <= sqrt(r) bounds
    # the box the brute force scans.
    center, rsq = args
    bound = (math.isqrt(max(rsq, 0)) + max(abs(c) for c in center)) // 2 + 1
    want = [j for j in itertools.product(range(-bound, bound + 1), repeat=len(center))
            if sum((2 * a - c) ** 2 for a, c in zip(j, center)) == rsq]
    assert sphere_points(center, rsq) == want


# -- difference classes -----------------------------------------------------


def test_diff_member_seed_difference():
    delta = site((-1, 1), (-1,))
    res = diff_class_member(delta, OM_TP2, (CharClass.CPLUS, CharClass.CPLUS))
    assert res.status == "yes"
    assert verify_diff_witness(delta, OM_TP2, (CharClass.CPLUS, CharClass.CPLUS),
                               res.witness)


def test_diff_member_zero_in_cpp():
    res = diff_class_member(site((0, 0), (0,)), OM_TP2,
                            (CharClass.CPLUS, CharClass.CPLUS))
    assert res.status == "yes"


def test_diff_member_example_with_j0():
    delta = site((-4, 1), (0,))
    res = diff_class_member(delta, OM_TP2, (CharClass.CPLUS, CharClass.CPLUS))
    assert res.status == "yes"
    assert verify_diff_witness(delta, OM_TP2, (CharClass.CPLUS, CharClass.CPLUS),
                               res.witness)


def test_diff_member_no():
    # A pure time shift off the kernel of w0 can never be a same-class
    # difference.
    res = diff_class_member(site((1, 0), (0,)), OM_TP2,
                            (CharClass.CPLUS, CharClass.CPLUS))
    assert res.status == "no"


def test_diff_member_cross_class():
    # (-2, 0 | 2) = ((-1,0),1) - ((1,0),-1) lands in C^{+-}.
    delta = site((-2, 0), (2,))
    res = diff_class_member(delta, OM_TP2, (CharClass.CPLUS, CharClass.CMINUS))
    assert res.status == "yes"
    assert verify_diff_witness(delta, OM_TP2, (CharClass.CPLUS, CharClass.CMINUS),
                               res.witness)


def test_diff_member_cross_class_empty_sphere():
    # v*v element on the wrong side: sphere radius is negative.
    delta = site((2, 0), (-2,))
    res = diff_class_member(delta, OM_TP2, (CharClass.CPLUS, CharClass.CMINUS))
    assert res.status == "no"


def test_diff_member_witness_past_the_first_hyperplane_rows():
    # omega0 = (5, 10) (modes (1, 2) and (1, 3) in d = 2): n.w0 = -|j'|^2
    # needs 5 | |j'|^2.  delta = (-3, 0 | -3, 0) in C^{++} puts j' on the
    # line j'_1 = -4, whose first rows in the l1 < 8 block, (-4, 0),
    # (-4, -1) and (-4, 1), fail that divisibility; the fourth, (-4, -2),
    # is the witness.
    omega0, pair = FrequencyVector((5.0, 10.0)), (CharClass.CPLUS, CharClass.CPLUS)
    delta = site((-3, 0), (-3, 0))
    res = diff_class_member(delta, omega0, pair)
    assert res.status == "yes"
    assert res.witness == (site((-4, 0), (-4, -2)), site((-1, 0), (-1, -2)))
    assert verify_diff_witness(delta, omega0, pair, res.witness)


def test_symbol_supports_solves_dot_once_per_omega0(monkeypatch, tp3):
    # One Bezout vector per omega0, cached with its kernel shifts: a
    # symbol_supports call lifts all its witnesses from it.
    from nlsqp import _intlinalg, characteristics
    from nlsqp.conditions import symbol_supports
    calls, solve_dot = [], _intlinalg.solve_dot
    monkeypatch.setattr(_intlinalg, "solve_dot",
                        lambda w, t: calls.append((tuple(w), t)) or solve_dot(w, t))
    characteristics._lift_basis.cache_clear()
    assert len(symbol_supports(tp3).witnesses) == 16
    assert calls == [((1, 1), 1)]
    symbol_supports(tp3)
    assert len(calls) == 1


def test_lift_refuses_sites_past_int64():
    # The lift's candidates are int64: where n0.w0 could wrap, it raises
    # rather than tag wrapped sites.
    from nlsqp.characteristics import lift_chains
    want = np.array([[1, -1]])
    small = np.array([[(0, 0, 3), (1, 3, 2)]])  # n0.w0 = -9, then n.w0 = 4 at j = 2
    assert lift_chains(small, want, (1, 4))[0] == [site((-9, 0), (3,)), site((-8, 3), (2,))]
    with pytest.raises(OverflowError, match="passes int64"):
        lift_chains(np.array([[(0, 0, 10 ** 6), (1, -1, 10 ** 6)]]), want, (99991, 99989))


def uncached_small_j_blocks(d, radius):
    """Fresh blocks per call, cut from the sorted tuple list at the l1 bounds
    8, 16, 32, ...: the oracle for the cached numpy blocks."""
    table = np.array(small_j_candidates(d, radius), dtype=np.int64).reshape(-1, d)
    l1, hi = np.abs(table).sum(axis=1), 8
    while len(table):
        block, table, l1, hi = table[l1 < hi], table[l1 >= hi], l1[l1 >= hi], 2 * hi
        yield block, block.T.astype(np.float64)


def membership_grid():
    """(delta, omega0, class pair) over every branch of the search, in
    d = 1 (tp2's omega0) and d = 2 (tp3's)."""
    pairs = list(itertools.product((CharClass.CPLUS, CharClass.CMINUS), repeat=2))
    for omega0, d, n_r, j_r in ((OM_TP2, 1, 4, 4), (FrequencyVector((1.0, 1.0)), 2, 2, 2)):
        for n in itertools.product(range(-n_r, n_r + 1), repeat=2):
            for j in itertools.product(range(-j_r, j_r + 1), repeat=d):
                for pair in pairs:
                    yield site(n, j), omega0, pair


def test_diff_class_member_matches_uncached_resorting_oracle(monkeypatch):
    from nlsqp import characteristics
    cached = list(characteristics._small_j_blocks(2, 8))
    assert all(a is b for a, b in zip(cached, characteristics._small_j_blocks(2, 8)))
    key = lambda jp: (sum(abs(x) for x in jp), jp)
    for delta, omega0, pair in membership_grid():
        # Every candidate, in the order lifted: re-sorting changes nothing.
        tried = []

        def spy(chains, want, w):
            tried.extend(tuple(jp) for jp in chains[:, 0, len(w):].tolist())
            return [None] * len(chains)

        monkeypatch.setattr(characteristics, "lift_chains", spy)
        diff_class_member(delta, omega0, pair, search_radius=8)
        monkeypatch.undo()
        assert tried == sorted(set(tried), key=key)
        got = diff_class_member(delta, omega0, pair, search_radius=8)
        monkeypatch.setattr(characteristics, "_small_j_blocks", uncached_small_j_blocks)
        assert diff_class_member(delta, omega0, pair, search_radius=8) == got
        monkeypatch.undo()


# -- partition --------------------------------------------------------------


def test_partition_central_block_d1():
    part = build_partition(5.0, 1, 20)
    blocks = {frozenset(b) for b in [[j for (j,) in blk] for blk in part.blocks]}
    assert frozenset({-2, -1, 0, 1, 2}) in blocks
    for blk in part.blocks:
        vals = [j for (j,) in blk]
        if max(abs(v) for v in vals) >= 3:
            assert len(vals) == 1
    central = [b for b in part.blocks if (0,) in b][0]
    assert len(central) == 5
    assert part.diameters[part.blocks.index(central)] == 4


def test_partition_b1_singletons():
    part = build_partition(1.0, 1, 10)
    assert all(len(b) == 1 for b in part.blocks)


def test_partition_d2_shared_block():
    part = build_partition(2.0, 2, 3)
    block_of = part.block_of()
    assert block_of[(0, 0)] == block_of[(1, 0)]


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.0, max_value=8.0), st.integers(5, 12))
def test_partition_cross_separation(B, radius):
    part = build_partition(B, 1, radius)
    block_of = part.block_of()
    pts = [j for blk in part.blocks for j in blk]
    for a in pts:
        for b in pts:
            if block_of[a] != block_of[b]:
                dist = abs(a[0] - b[0]) + abs(a[0] ** 2 - b[0] ** 2)
                assert dist > B


# -- resonance graph --------------------------------------------------------


def test_resonance_graph_tp1_seed_component(tp1):
    g = resonance_graph(tp1, Box(9, 3))
    vertices = tagged_vertices(g, tp1.b)
    idx = {s: i for i, (s, _) in enumerate(vertices)}
    seed = idx[site((-1,), (2,))]
    comp = next(m for m in component_members(g) if seed in m)
    assert {vertices[i][0] for i in comp} == {site((-1,), (2,)), site((1,), (-2,))}
    assert len(comp) == 2


def test_resonance_graph_no_spiral_single_mode(tp1):
    from nlsqp.conditions import _spiral_pairs
    g = resonance_graph(tp1, Box(9, 3))
    assert _spiral_pairs(g.vertices[:, tp1.b:], g.tags, g.labels).shape == (0, 2)


def test_resonance_graph_partition_blocks_never_connected(tp2):
    om = tp2.omega0()
    g = resonance_graph(tp2, Box(9, 4))
    # Partition at the interaction range, inflated by ||w0||_inf: on the
    # variety, |j^2 - j'^2| <= ||w||_inf |n - n'|_1, so cross-block pairs
    # are farther than the convolution can reach, and no component (the
    # closure of the graph's edges) spans two blocks.
    scale = interaction_range(tp2) * max(abs(w) for w in om.as_ints())
    block_of = build_partition(scale, 1, 4).block_of()
    vertices = tagged_vertices(g, tp2.b)
    for comp in component_members(g):
        assert len({block_of[vertices[i][0].j] for i in comp}) == 1


def interaction_range(spec):
    """The largest l1 norm of a site in the support of a seed symbol."""
    u0, v0 = linear_solution(spec)
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    return max(s.l1() for series in (symbols.uv_p, symbols.uu, symbols.vv)
               for s in series.support())


def test_component_size_bound(tp2):
    g = resonance_graph(tp2, Box(9, 4))
    reach = interaction_range(tp2)
    part = build_partition(float(reach), 1, 4)
    c0 = max(part.c0_hat, 1.0)
    bound = 2 * reach ** (c0 * tp2.d)
    assert max(map(len, component_members(g))) <= bound


def test_symbols_flip_consistency(tp2):
    u0, v0 = linear_solution(tp2)
    sym = ConvolutionSymbols.from_fields(u0, v0, tp2.p)
    from nlsqp.lattice import conjugate_flip
    flipped = conjugate_flip(sym.uu)
    assert flipped.support() == sym.vv.support()
    for s in flipped.support():
        assert flipped[s] == pytest.approx(sym.vv[s])


def test_conservation_sites_match_brute_force(tp1, tp2, tp3):
    # Lambda_R: every c with sum c = 1 and negative entries adding up to at
    # most R, mapped to sum_k c_k s_k, in lexicographic order.
    from nlsqp.characteristics import conservation_sites
    b3 = make_spec(d=1, b=3, p=1, delta=1e-3, j_list=[1, 2, 4], amplitudes=[0.6, 0.8, 0.5])
    for spec in (tp1, tp2, tp3, b3):
        seeds = [s.n + s.j for s in spec.seed_sites()]
        for radius in (0, 1, 3):
            want = sorted(
                tuple(-x for x in c) + tuple(sum(ck * jk[i] for ck, jk in zip(c, spec.j_list))
                                             for i in range(spec.d))
                for c in itertools.product(range(-radius, radius + 2), repeat=spec.b)
                if sum(c) == 1 and -sum(min(x, 0) for x in c) <= radius)
            got = conservation_sites(spec, radius)
            assert str(got.dtype) == "int64" and [tuple(r) for r in got.tolist()] == want
            assert set(seeds) <= set(want) and (radius > 0 or sorted(seeds) == want)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_lattice_in_box_equals_the_grid_build(b):
    # The intervals of c_{b-1} give the rows, dtype and lexicographic order
    # of the filtered (2 n_radius + 1)^(b - 1) grid: radius-0 boxes, boxes
    # that miss Lambda (n_radius 0 holds none of it, as sum c = 1) and modes
    # whose last two share a coordinate (a j bound on the c_{b-1} prefix
    # alone) included.
    from nlsqp.characteristics import lattice_in_box
    for d, j_list in ((1, [1, 2, 4, 7]), (1, [3, -2, 5, 7]),
                      (2, [(1, 0), (0, 1), (1, 1), (2, -1)]),
                      (2, [(1, 2), (-3, 1), (2, 2), (2, -1)])):
        spec = make_spec(d=d, b=b, p=1, delta=1e-3, j_list=j_list[:b], amplitudes=[0.5] * b)
        for n_radius, j_radius in itertools.product(range(5), range(5)):
            box = Box(n_radius, j_radius)
            want, got = grid_lattice_in_box(spec, box), lattice_in_box(spec, box)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_lattice_in_box_counts_its_rows_against_the_cap(tp2, monkeypatch):
    # Lambda in a box is counted before any row is built: tp2's Box(1.1e6,
    # 1.1e6) holds 2 199 999 sites of Lambda, 53 MB of rows, and is refused
    # having allocated well under 1 MB.  The cap is that count, not the box's
    # size, and a c-prefix grid past the cap is refused before it is built.
    import tracemalloc
    from nlsqp import characteristics
    from nlsqp.characteristics import SITE_CAP, lattice_in_box
    from nlsqp.lattice import BoxTooLarge
    tracemalloc.start()
    try:
        with pytest.raises(BoxTooLarge, match=f"holds 2199999 sites, past the cap of {SITE_CAP}"):
            lattice_in_box(tp2, Box(1_100_000, 1_100_000))
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()
    b4 = make_spec(d=1, b=4, p=1, delta=1e-3, j_list=[1, 2, 4, 7], amplitudes=[0.5] * 4)
    with pytest.raises(BoxTooLarge, match="grid of 4004001 c-prefixes"):
        lattice_in_box(b4, Box(1000, 1))
    count = len(lattice_in_box(b4, Box(64, 8)))
    assert count == 43994 and Box(64, 8).site_count(4, 1) > SITE_CAP
    monkeypatch.setattr(characteristics, "SITE_CAP", count)
    assert len(lattice_in_box(b4, Box(64, 8))) == count
    monkeypatch.setattr(characteristics, "SITE_CAP", count - 1)
    with pytest.raises(BoxTooLarge, match=f"holds {count} sites"):
        lattice_in_box(b4, Box(64, 8))


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_lattice_equals_the_product_build(b):
    # The np.indices grid gives the rows, dtype and lexicographic c order of
    # the itertools.product build, b = 1 its single empty prefix included.
    from nlsqp.characteristics import _lattice
    for d, j_list in ((1, [1, 2, 4, 7]), (2, [(1, 0), (0, 1), (1, 1), (2, -1)])):
        spec = make_spec(d=d, b=b, p=1, delta=1e-3, j_list=j_list[:b], amplitudes=[0.5] * b)
        jmat = np.array(spec.j_list, dtype=np.int64).reshape(b, -1)
        for radius in range(5):
            for lo, hi in ((-radius, radius), (-radius, radius + 1)):
                rows = list(itertools.product(range(lo, hi + 1), repeat=b - 1))
                free = np.array(rows, dtype=np.int64).reshape(len(rows), b - 1)
                c = np.concatenate([free, 1 - free.sum(axis=1, keepdims=True)], axis=1)
                want = np.concatenate([-c, c @ jmat], axis=1)
                got = _lattice(spec, lo, hi)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
