import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsqp import conditions
from nlsqp.cli import parse_config
from nlsqp.lattice import Box, linear_solution, make_spec, site
from nlsqp.characteristics import CharClass, ConvolutionSymbols, seed_symbols
from nlsqp.conditions import (
    build_walk_graph,
    check_condition_i,
    check_condition_ii,
    oned_check,
    rank_check_momenta,
    symbol_supports,
)
from nlsqp._intlinalg import int_det, kernel_basis, lattice_basis, solve_dot

from oracles import (
    frozen_lift_walk, injected_symbols, object_walk_check, object_walk_graph,
    verify_walk_witness)


def naive_error_support(spec):
    """Brute-force sumset oracle for supp((u*v)^{*p} * u)."""
    u = {(tuple(-x for x in _unit(k, spec.b)), j): a
         for k, (j, a) in enumerate(spec.modes)}
    v = {(tuple(-n for n in s[0]), tuple(-c for c in s[1])): a
         for s, a in u.items()}

    def conv(f, g):
        out = {}
        for s1, v1 in f.items():
            for s2, v2 in g.items():
                s = (tuple(a + b for a, b in zip(s1[0], s2[0])),
                     tuple(a + b for a, b in zip(s1[1], s2[1])))
                out[s] = out.get(s, 0.0) + v1 * v2
        return out

    uv = conv(u, v)
    acc = {((0,) * spec.b, (0,) * spec.d): 1.0}
    for _ in range(spec.p):
        acc = conv(acc, uv)
    return set(conv(acc, u))


def _unit(k, b):
    return tuple(1 if i == k else 0 for i in range(b))


def error_support(u0, v0, p):
    """The supports of the error terms gu = (u0*v0)^{*p} * u0 and gv that
    condition (i) reads, from the symbols of the fields."""
    symbols = ConvolutionSymbols.from_fields(u0, v0, p)
    return symbols.gu.support(), symbols.gv.support()


def test_error_support_tp1(tp1):
    u0, v0 = linear_solution(tp1)
    fu, fv = error_support(u0, v0, 1)
    assert set((s.n, s.j) for s in fu) == {((-1,), (2,))}


def test_error_support_tp2(tp2):
    u0, v0 = linear_solution(tp2)
    fu, _ = error_support(u0, v0, 1)
    got = set((s.n, s.j) for s in fu)
    assert got == {((-1, 0), (1,)), ((0, -1), (2,)), ((-2, 1), (0,)),
                   ((1, -2), (3,))}
    assert got == naive_error_support(tp2)


def test_error_support_contains_seed(tp3):
    u0, v0 = linear_solution(tp3)
    fu, _ = error_support(u0, v0, tp3.p)
    assert set(u0.support()) <= set(fu)


def test_error_support_relabeling_invariance():
    a = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.6, 0.8])
    b = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[2, 1], amplitudes=[0.8, 0.6])
    ua, va = linear_solution(a)
    ub, vb = linear_solution(b)
    ja = {s.j for s in error_support(ua, va, 1)[0]}
    jb = {s.j for s in error_support(ub, vb, 1)[0]}
    assert ja == jb


def test_condition_i_tp1_tp2(tp1, tp2):
    assert check_condition_i(tp1).verdict == "pass"
    assert check_condition_i(tp2).verdict == "pass"


def test_condition_i_random_cubic_all_dimensions():
    rng = random.Random(7)
    for _ in range(10):
        d = rng.choice([1, 2, 3])
        b = rng.randint(1, 3)
        js = []
        while len(js) < b:
            j = tuple(rng.randint(-3, 3) for _ in range(d))
            if any(j) and j not in js:
                js.append(j)
        spec = make_spec(d=d, b=b, p=1, delta=1e-3, j_list=js,
                         amplitudes=[0.5] * b)
        assert check_condition_i(spec).verdict == "pass"


def test_condition_i_detects_rectangle_resonance():
    # Three corners of a rectangle in d = 2 pump the fourth corner: the
    # canonical cubic resonance the non-intersection condition must catch.
    spec = make_spec(d=2, b=3, p=1, delta=1e-3,
                     j_list=[(-2, -2), (-2, 2), (2, 2)], amplitudes=[0.5] * 3)
    rep = check_condition_i(spec)
    assert rep.verdict == "fail"
    assert any(w["site"].j == (2, -2) for w in rep.witnesses)
    # Witnesses re-verify: each named site really is resonant off S.
    w0 = spec.omega0().as_ints()
    seeds = set(s for s in spec.seed_sites())
    for w in rep.witnesses:
        s = w["site"]
        sgn = 1 if w["component"] == "u" else -1
        assert sgn * sum(a * b for a, b in zip(s.n, w0)) + s.jsq() == 0
        assert s not in seeds and -s not in seeds


def test_symbol_supports_tp2(tp2):
    sup = symbol_supports(tp2)
    gpp = {(s.n, s.j) for s in sup.gpp}
    assert ((-1, 1), (-1,)) in gpp
    assert ((0, 0), (0,)) in gpp
    # Restriction carries a verifiable witness for every kept element.
    key = ("gpp", site((-1, 1), (-1,)))
    assert key in sup.witnesses
    assert not sup.unknown


def test_symbol_supports_b1_diagonal_is_point_mass(tp1):
    sup = symbol_supports(tp1)
    assert [(s.n, s.j) for s in sup.gpp] == [((0,), (0,))]


def test_gamma_plus_structure(tp2):
    """Every diagonal-symbol element decomposes over mode index pairs."""
    sup = symbol_supports(tp2)
    js = [j[0] for j in tp2.j_list]
    b, p = tp2.b, tp2.p
    pairs = [(k, kp) for k in range(b) for kp in range(b)]
    reachable = set()
    for counts in itertools.product(range(p + 1), repeat=len(pairs)):
        if sum(counts) > p:
            continue
        dn = [0] * b
        dj = 0
        for (k, kp), c in zip(pairs, counts):
            dn[k] -= c
            dn[kp] += c
            dj += c * (js[k] - js[kp])
        reachable.add((tuple(dn), (dj,)))
    for s in sup.gpp:
        assert (s.n, s.j) in reachable


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-4, 4)] * d).filter(any), min_size=1, max_size=5, unique=True)))
def test_condition_i_fails_iff_three_modes_make_a_right_angle(js):
    # p = 1: the error sites off S are s_a + s_b - s_c of distinct modes, at
    # j = j_a + j_b - j_c (the fourth vertex of a parallelogram), and
    # n.w0 + |j|^2 = 2 (j_a - j_c).(j_b - j_c) there.  So (i) fails iff some
    # three distinct modes make a right angle at j_c, which no three modes
    # of one dimension do.
    spec = make_spec(d=len(js[0]), b=len(js), p=1, delta=1e-3, j_list=js,
                     amplitudes=[0.5] * len(js))
    right = any(sum((x - z) * (y - z) for x, y, z in zip(ja, jb, jc)) == 0
                for ja, jb, jc in itertools.permutations(js, 3))
    assert (check_condition_i(spec).verdict == "fail") == right


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-4, 4)] * d).filter(any), min_size=3, max_size=5, unique=True)))
def test_condition_i_witnesses_name_their_rectangles(js):
    # p = 1: each witness names three distinct seed modes j_a, j_c, j_b with
    # a right angle at j_c and the fourth vertex, which is the witness's j
    # (its flip's on the v-copy).  For p = 2 no witness names one.
    spec = make_spec(d=len(js[0]), b=len(js), p=1, delta=1e-3, j_list=js,
                     amplitudes=[0.5] * len(js))
    for w in check_condition_i(spec).witnesses:
        ja, jc, jb, jd = w["rectangle"]
        assert len({ja, jb, jc}) == 3 and {ja, jb, jc} <= set(js)
        assert sum((x - z) * (y - z) for x, y, z in zip(ja, jb, jc)) == 0
        assert jd == tuple(x + y - z for x, y, z in zip(ja, jb, jc))
        assert w["site"].j == (jd if w["component"] == "u" else tuple(-x for x in jd))
    quintic = make_spec(d=len(js[0]), b=len(js), p=2, delta=1e-3, j_list=js,
                        amplitudes=[0.5] * len(js))
    assert not any("rectangle" in w for w in check_condition_i(quintic).witnesses)


def test_condition_ii_single_mode(tp1):
    rep = check_condition_ii(tp1)
    assert rep.verdict == "pass"


def test_condition_ii_tp2(tp2):
    rep = check_condition_ii(tp2)
    assert rep.verdict == "pass"
    assert rep.details["walk"]["verdict"] == "pass"
    assert rep.details["graph"]["max_component"] == 4


def test_condition_ii_random_cubic_20_seeds():
    rng = random.Random(2024)
    for _ in range(20):
        b = rng.randint(1, 5)
        js = rng.sample([j for j in range(-12, 13) if j != 0], b)
        spec = make_spec(d=1, b=b, p=1, delta=1e-3, j_list=js,
                         amplitudes=[0.5] * b)
        nr = max(2, 9 // max(1, b - 1)) if b > 1 else 8
        jr = max(abs(j) for j in js) + 2
        assert check_condition_i(spec).verdict == "pass"
        assert check_condition_ii(spec, box=Box(nr, jr)).verdict == "pass"


def test_condition_ii_synthetic_violation(tp2):
    # Two injected diagonal-symbol elements close a loop at j = 1 whose
    # time displacement (4, -1) does not cancel: a spiral.
    g1 = site((1, -1), (1,))
    g2 = site((3, 0), (-1,))
    rep = check_condition_ii(tp2, symbols=injected_symbols(tp2, {"uv": [g1, g2]}))
    assert rep.verdict == "fail"
    walk = next(w for w in rep.witnesses if w["kind"] == "walk")
    viol = walk["violation"]
    assert viol.total_dn == (4, -1)
    # The witness re-verifies from scratch: summed steps, lifted sites on
    # the variety, equal spatial mode, distinct time index; its sites are
    # those of the frozen lift.
    assert verify_walk_witness(viol, tp2.omega0())
    assert viol.lifted_sites == frozen_lift_walk(viol, tp2.omega0())


def test_condition_ii_unknown_at_depth(tp2):
    # A depth bound too small to exhaust the seed component is reported as
    # undecided, never as a pass.
    rep = check_condition_ii(tp2, m_max=1)
    assert rep.verdict == "unknown_at_depth"
    assert rep.details["walk"]["depth_cap_hit"]


def test_condition_ii_pure_time_shift_injection(tp2):
    # An element (n, 0) with n.w0 = 0 is admissible at every node: an
    # immediate self-loop spiral.
    rep = check_condition_ii(tp2, symbols=injected_symbols(tp2, {"uv": [site((4, -1), (0,))]}))
    assert rep.verdict == "fail"


def test_rank_check_pass_123():
    r = rank_check_momenta([(1,), (2,), (3,)], 1)
    assert r.passed and r.kernel_vector is None
    assert r.determinant == 2


def test_rank_check_kernel_1234():
    r = rank_check_momenta([(1,), (2,), (3,), (4,)], 1)
    assert not r.passed
    assert r.kernel_vector == (-1, 3, -3, 1)
    # Kernel vector re-verifies against all three conservation rows.
    n = r.kernel_vector
    js = [1, 2, 3, 4]
    assert sum(n) == 0
    assert sum(ni * j for ni, j in zip(n, js)) == 0
    assert sum(ni * j * j for ni, j in zip(n, js)) == 0


def test_rank_check_d2():
    r = rank_check_momenta([(1, 0), (0, 1), (1, 1), (1, -1)], 2)
    assert r.passed
    assert r.determinant == -2


def test_rank_pass_implies_walk_pass():
    rng = random.Random(55)
    checked = 0
    for _ in range(12):
        b = rng.randint(2, 3)
        js = rng.sample([j for j in range(-9, 10) if j != 0], b)
        r = rank_check_momenta([(j,) for j in js], 1)
        if not r.passed:
            continue
        spec = make_spec(d=1, b=b, p=rng.choice([1, 2]), delta=1e-3,
                         j_list=js, amplitudes=[0.5] * b)
        rep = check_condition_ii(spec, box=Box(3, max(abs(j) for j in js) + 2))
        assert rep.details["walk"]["verdict"] == "pass"
        checked += 1
    assert checked >= 5


def oned_spec(js, p):
    return make_spec(d=1, b=len(js), p=p, delta=1e-3, j_list=js,
                     amplitudes=[0.5] * len(js))


def test_oned_check_cubic_pairs_confined(tp2):
    rep = oned_check(tp2)
    assert rep.verdict == "pass"
    for pair in rep.details["pairs"]:
        assert {pair.j, pair.j_next} <= {-2, -1, 1, 2}
        assert pair.cubic_type


def test_oned_check_p2_enumeration():
    rep = oned_check(oned_spec([1, 2], 2))
    assert rep.verdict in ("pass", "fail")
    assert rep.details["pairs"], "solver must list the solution pairs"
    # Brute-force oracle: re-solve each recorded pair's equation directly.
    for pair in rep.details["pairs"]:
        g = pair.element
        w = (1, 4)
        dnw = sum(a * b for a, b in zip(g.n, w))
        dj = g.j[0]
        j = pair.j
        if pair.branch_relation == "same":
            assert 2 * j * dj + dj * dj + dnw == 0
        else:
            assert 2 * j * j + 2 * j * dj + dj * dj - dnw == 0


def test_oned_gamma_minus_p1_is_vv_support(tp2):
    rep = oned_check(tp2)
    u0, v0 = linear_solution(tp2)
    from nlsqp.lattice import convolve
    vv = convolve(v0, v0)
    assert rep.details["gamma_minus_size"] == len(vv.support())


def test_oned_rejects_non_1d(tp3):
    with pytest.raises(ValueError, match="d = 1 only"):
        oned_check(tp3)


def closed_form_oned_pairs(js, p):
    """Oracle: the two 1d connection equations solved in closed form, as
    (j, j_next, element, relation) in oned_check's order: the linear
    equation over Gamma+, then the square over Gamma-, roots ascending."""
    spec = oned_spec(js, p)
    u0, v0 = linear_solution(spec)
    symbols = ConvolutionSymbols.from_fields(u0, v0, p)
    w = spec.omega0().as_ints()
    out = []
    for g in symbols.uv_p.support():
        dn_w = sum(a * c for a, c in zip(g.n, w))
        dj = g.j[0]
        if dj != 0 and (-dj * dj - dn_w) % (2 * dj) == 0:
            j = (-dj * dj - dn_w) // (2 * dj)
            out.append((j, j + dj, g, "same"))
    for g in symbols.vv.support():
        dn_w = sum(a * c for a, c in zip(g.n, w))
        dj = g.j[0]
        rhs = 2 * dn_w - dj * dj
        r = math.isqrt(rhs) if rhs >= 0 else -1
        if r < 0 or r * r != rhs:
            continue
        for two_j in sorted({r, -r}):
            if (two_j - dj) % 2 == 0:
                j = (two_j - dj) // 2
                out.append((j, j + dj, g, "cross"))
    return out


def test_oned_check_pairs_match_closed_form_solver():
    rng = random.Random(11)
    total = 0
    for _ in range(40):
        b = rng.randint(1, 4)
        js = rng.sample([j for j in range(-9, 10) if j != 0], b)
        p = rng.choice([1, 2])
        pairs = oned_check(oned_spec(js, p)).details["pairs"]
        assert [(q.j, q.j_next, q.element, q.branch_relation) for q in pairs] == \
            closed_form_oned_pairs(js, p)
        cubic = set(js) | {-j for j in js}
        assert all(q.cubic_type == (q.j in cubic and q.j_next in cubic) for q in pairs)
        total += len(pairs)
    assert total > 200


@pytest.mark.parametrize("js, p, oned_verdict, explored", [
    ([1, 410], 1, "pass", 4), ([1, 150], 3, "fail", 8), ([3, 97], 2, "fail", 8)])
def test_oned_sources_are_solved_without_a_box_at_large_modes(js, p, oned_verdict, explored):
    # Each 1-D source is solved from its equation: a j box of radius
    # max(|dj|^2 + |dn.w|) would hold about 2e6 rows at j = 410 (past the
    # site cap) and 1.4e7 at j = 150, p = 3.
    spec = oned_spec(js, p)
    rep = oned_check(spec)
    assert rep.verdict == oned_verdict
    assert [(q.j, q.j_next, q.element, q.branch_relation) for q in rep.details["pairs"]] == \
        closed_form_oned_pairs(js, p)
    cond = check_condition_ii(spec, box=Box(9, max(js) + 1))  # the CLI's condition box
    assert cond.verdict == "pass"
    assert cond.details == {"walk": {"verdict": "pass", "nodes_explored": explored,
                                     "depth_cap_hit": False},
                            "graph": {"vertices": 17, "max_component": 4}}


def object_form(graph):
    """An array walk graph's nodes and edges as the objects of the oracle:
    the WalkNode list and the dict of each node's WalkEdge list."""
    edges = {}
    for k in range(len(graph.src)):
        edge = graph.edge(k)
        edges.setdefault(edge.src, []).append(edge)
    return [graph.node(i) for i in range(len(graph.nodes))], edges


def test_walk_graph_matches_product_loop_sources_in_2d():
    # The array graph against the object oracle, whose same-branch sources
    # test the hyperplane equation at every j of the box.
    rng = random.Random(5)
    for _ in range(8):
        b = rng.randint(2, 3)
        js = rng.sample([j for j in itertools.product(range(-2, 3), repeat=2) if any(j)], b)
        p = rng.choice([1, 2])
        spec = make_spec(d=2, b=b, p=p, delta=1e-3, j_list=js, amplitudes=[0.5] * b)
        u0, v0 = linear_solution(spec)
        symbols = ConvolutionSymbols.from_fields(u0, v0, p)
        supports = {"uv": symbols.uv_p.support(), "uu": symbols.uu.support(),
                    "vv": symbols.vv.support()}
        radius = (2 * p + 1) * max(max(abs(c) for c in j) for j in js) + 1
        got = build_walk_graph(supports, spec.omega0(), 2, j_radius=radius)
        want = object_walk_graph(supports, spec.omega0(), 2, j_radius=radius)
        assert object_form(got) == (want.nodes, want.edges)
        assert got.immediate_spirals == want.immediate_spirals
        assert len(got.src) > 0


def walk_cases():
    """(spec, symbols, m_max) of the walk graphs the array BFS is held to:
    tp1-tp3, three 1-D seeds with a far mode, the failing seeds above (two
    injected spirals and a depth bound too small), and the random 2-D seeds
    of the source test."""
    tp1 = make_spec(d=1, b=1, p=1, delta=1e-3, j_list=[2], amplitudes=[0.7])
    tp2 = make_spec(d=1, b=2, p=1, delta=1e-3, j_list=[1, 2], amplitudes=[0.6, 0.8])
    tp3 = make_spec(d=2, b=2, p=2, delta=1e-3, j_list=[(1, 0), (0, 1)],
                    amplitudes=[0.9, 0.35])
    far = [oned_spec(js, p) for js, p in (([1, 410], 1), ([1, 150], 3), ([3, 97], 2))]
    cases = [(spec, None, 8) for spec in (tp1, tp2, tp3, *far)] + [
        (tp2, injected_symbols(tp2, {"uv": [site((1, -1), (1,)), site((3, 0), (-1,))]}), 8),
        (tp2, injected_symbols(tp2, {"uv": [site((4, -1), (0,))]}), 8),
        (tp2, None, 1)]
    rng = random.Random(5)
    for _ in range(8):
        b = rng.randint(2, 3)
        js = rng.sample([j for j in itertools.product(range(-2, 3), repeat=2) if any(j)], b)
        cases.append((make_spec(d=2, b=b, p=rng.choice([1, 2]), delta=1e-3, j_list=js,
                                amplitudes=[0.5] * b), None, 8))
    return cases


@pytest.mark.parametrize("spec, symbols, m_max", walk_cases())
def test_array_walk_check_matches_the_object_oracle(spec, symbols, m_max):
    # Same nodes, edges, verdict, explored count, depth flag and witness
    # steps as the frozen object-based builder and BFS; a witness still
    # re-verifies from scratch.
    symbols = symbols or seed_symbols(spec)
    supports = dict(zip(("uv", "uu", "vv"), symbols.supports()))
    radius = (2 * spec.p + 1) * max(max(map(abs, j)) for j in spec.j_list) + 1
    radius = radius if spec.d > 1 else None
    got = build_walk_graph(supports, spec.omega0(), spec.d, j_radius=radius)
    want = object_walk_graph(supports, spec.omega0(), spec.d, j_radius=radius)
    assert object_form(got) == (want.nodes, want.edges)
    assert got.immediate_spirals == want.immediate_spirals
    verdict, witness, stats = conditions._walk_check(got, spec.omega0(), m_max)
    assert (verdict, stats) == object_walk_check(want, spec.b, m_max)[::2]
    oracle = object_walk_check(want, spec.b, m_max)[1]
    if witness is None:
        assert oracle is None
    else:
        assert (witness.start, witness.steps, witness.total_dn) == \
            (oracle.start, oracle.steps, oracle.total_dn)
        assert verify_walk_witness(witness, spec.omega0())
        assert witness.lifted_sites == frozen_lift_walk(witness, spec.omega0())


@pytest.mark.parametrize("spec, symbols, m_max", walk_cases())
def test_walk_lifts_match_the_frozen_lift(spec, symbols, m_max):
    # The lift of every edge and of every edge followed by one of its
    # target's first three edges, and of 100 random walks (most of which
    # lift to nothing: random classes, branches and steps), equals the
    # frozen lift's: the same sites or the same None.
    symbols = symbols or seed_symbols(spec)
    supports = dict(zip(("uv", "uu", "vv"), symbols.supports()))
    radius = (2 * spec.p + 1) * max(max(map(abs, j)) for j in spec.j_list) + 1
    graph = build_walk_graph(supports, spec.omega0(), spec.d,
                             j_radius=radius if spec.d > 1 else None)
    edges = [graph.edge(k) for k in range(min(len(graph.src), 200))]
    walks = [[e] for e in edges] + [[e, f] for e in edges for f in edges
                                    if f.src == e.dst][:400]
    rng = random.Random(7)
    elements = [s for series in supports.values() for s in series]
    for _ in range(100):
        node = conditions.WalkNode(rng.choice([1, -1]), tuple(
            rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(spec.d)))
        walk = []
        for el in rng.sample(elements, min(len(elements), rng.randint(1, 3))):
            dst = conditions.WalkNode(rng.choice([1, -1]),
                                      tuple(a + b for a, b in zip(node.j, el.j)))
            walk.append(conditions.WalkEdge(node, dst, el.n, el, "diag"))
            node = dst
        walks.append(walk)
    lifted = 0
    for steps in walks:
        viol = conditions.WalkViolation(start=steps[0].src, steps=steps, total_dn=None)
        got = conditions._lift_walk(viol, spec.omega0())
        assert got == frozen_lift_walk(viol, spec.omega0())
        lifted += got is not None
    assert 0 < lifted < len(walks)


# -- integer linear algebra helpers ------------------------------------------


def test_solve_dot_basic():
    n = solve_dot([1, 4], -9)
    assert n is not None and n[0] * 1 + n[1] * 4 == -9
    assert solve_dot([2, 4], 3) is None


def test_kernel_basis_vandermonde():
    assert kernel_basis([[1, 1, 1], [1, 2, 3], [1, 4, 9]]) == []


def test_int_det_matches_numpy():
    import numpy as np
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert int_det(m) == round(np.linalg.det(np.array(m, dtype=float)))


def maximal_minor_gcd(rows, r):
    """gcd of the r x r minors of an integer matrix."""
    g = 0
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(len(rows[0])), r):
            g = math.gcd(g, int_det([[rows[i][c] for c in ci] for i in ri]))
    return g


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=5)))
def test_lattice_basis_spans_exactly_the_input_lattice(vectors):
    basis = lattice_basis(vectors)
    pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
    assert pivots == sorted(set(pivots))
    assert all(b[p] > 0 for b, p in zip(basis, pivots))
    # Every input is an integer combination of the basis: forward
    # substitution down the echelon pivots leaves no remainder.
    for v in vectors:
        rest = list(v)
        for b, p in zip(basis, pivots):
            q, rem = divmod(rest[p], b[p])
            assert rem == 0
            rest = [x - q * y for x, y in zip(rest, b)]
        assert not any(rest)
    # So V = U B with U integer (n x r).  By Cauchy-Binet each r x r minor
    # of V is det(U_I) det(B_J), so equal minor gcds of V and B mean U's
    # maximal minors are coprime: U's rows span Z^r, and every basis vector
    # is an integer combination of the inputs.
    r = len(basis)
    if r:
        assert maximal_minor_gcd(vectors, r) == maximal_minor_gcd(basis, r) != 0
    else:
        assert not any(any(v) for v in vectors)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-7, 7).filter(bool), min_size=1, max_size=4, unique=True),
       st.data())
def test_condition_ii_passes_every_cubic_seed_in_one_dimension(js, data):
    # The paper's Remark: cubic NLS fulfils (ii) in d = 1 for all seeds.
    # Checked as `check` checks it, on the CLI's condition box and m_max.
    amps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=len(js), max_size=len(js)))
    modes = ", ".join(f"({j}):{a!r}" for j, a in zip(js, amps))
    cfg = parse_config(f"[problem]\nd = 1\nb = {len(js)}\np = 1\ndelta = 1e-3\n"
                       f"modes = {modes}\n")
    rep = check_condition_ii(cfg.problem, m_max=cfg.conditions.m_max, box=cfg.condition_box())
    assert rep.verdict == "pass", rep.witnesses
