import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from nlsqp.lattice import Box, FrequencyVector, linear_solution, make_spec, site
from nlsqp.characteristics import (
    CharClass,
    ConvolutionSymbols,
    build_partition,
    classify_site,
    diff_class_member,
    resonance_graph,
    sphere_points,
    verify_diff_witness,
)


OM_TP2 = FrequencyVector((1.0, 4.0))


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
    u0, v0 = linear_solution(spec)
    return tagged_vertices(resonance_graph(u0, v0, spec, spec.omega0(), box), spec.b)


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
    # 201^3 sites, above the cap, refused before any array is built.
    from nlsqp.characteristics import SITE_CAP
    from nlsqp.lattice import BoxTooLarge
    assert Box(100, 100).site_count(2, 1) > SITE_CAP
    with pytest.raises(BoxTooLarge, match=f"cap of {SITE_CAP}"):
        characteristic_set(tp2, Box(100, 100))


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


def uncached_small_j_candidates(d, radius):
    """A fresh, re-sorted candidate list per call: the oracle for the
    cached tuple."""
    out = [tuple(v) for v in itertools.product(range(-radius, radius + 1), repeat=d)]
    out.sort(key=lambda jp: (sum(abs(x) for x in jp), jp))
    return out


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
    assert isinstance(characteristics._small_j_candidates(2, 8), tuple)
    assert characteristics._small_j_candidates(2, 8) is \
        characteristics._small_j_candidates(2, 8)
    key = lambda jp: (sum(abs(x) for x in jp), jp)
    for delta, omega0, pair in membership_grid():
        # Every candidate, in the order tried: re-sorting changes nothing.
        tried = []
        monkeypatch.setattr(characteristics, "_complete_witness",
                            lambda jp, *rest: tried.append(tuple(jp)))
        diff_class_member(delta, omega0, pair, search_radius=8)
        monkeypatch.undo()
        assert tried == sorted(set(tried), key=key)
        got = diff_class_member(delta, omega0, pair, search_radius=8)
        monkeypatch.setattr(characteristics, "_small_j_candidates",
                            uncached_small_j_candidates)
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
    u0, v0 = linear_solution(tp1)
    g = resonance_graph(u0, v0, tp1, tp1.omega0(), Box(9, 3))
    vertices = tagged_vertices(g, tp1.b)
    idx = {s: i for i, (s, _) in enumerate(vertices)}
    seed = idx[site((-1,), (2,))]
    comp = next(m for m in component_members(g) if seed in m)
    assert {vertices[i][0] for i in comp} == {site((-1,), (2,)), site((1,), (-2,))}
    assert len(comp) == 2


def test_resonance_graph_no_spiral_single_mode(tp1):
    u0, v0 = linear_solution(tp1)
    g = resonance_graph(u0, v0, tp1, tp1.omega0(), Box(9, 3))
    assert g.spiral_pairs.shape == (0, 2)


def test_resonance_graph_partition_blocks_never_connected(tp2):
    u0, v0 = linear_solution(tp2)
    om = tp2.omega0()
    g = resonance_graph(u0, v0, tp2, om, Box(9, 4))
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
    u0, v0 = linear_solution(tp2)
    g = resonance_graph(u0, v0, tp2, tp2.omega0(), Box(9, 4))
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


def test_box_lattice_radius_covers_lattice_in_the_box(tp2, tp3):
    # tp3's default box holds Lambda_2 exactly (6 sites, j-radius 3); tp2's
    # holds 7 sites with generation up to 4.
    from nlsqp.characteristics import box_lattice_radius, conservation_sites
    from nlsqp.lattice import default_box
    for spec, radius, inside in ((tp2, 4, 7), (tp3, 2, 6)):
        box = default_box(spec)
        assert box_lattice_radius(spec, box) == radius
        sites = conservation_sites(spec, radius)
        held = [site(r[:spec.b], r[spec.b:]) for r in sites.tolist()]
        assert sum(box.contains(s) for s in held) == inside
        smaller = {tuple(r) for r in conservation_sites(spec, radius - 1).tolist()}
        assert any(box.contains(s) and s.n + s.j not in smaller for s in held)
