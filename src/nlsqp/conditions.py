"""Admissibility of a seed solution: non-intersection and non-spiral checks.

Two geometric conditions decide whether the Newton construction can start
from a given seed.  The first asks that the error term |u0|^2p u0 puts no
Fourier mass on the characteristic variety outside the seed support.  The
second forbids "spirals": products of the operator's convolution symbols,
restricted to characteristic differences, must never produce a pure
time-frequency shift (n, 0) with n != 0.

The spiral check runs two independent ways.  The walk check works on the
quotient of the variety by n-translations: nodes are (branch, j) classes,
every admissible symbol step carries an n-displacement, and a violation is
a closed directed walk whose displacements do not cancel.  The graph check
builds the literal resonance graph on a finite box and looks for a
connected component holding two same-branch sites with equal j and
different n.  Passing is always "at scale": the box, the depth bound and
the node counts are part of the report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import _intlinalg
from .characteristics import (
    TAG_CLASS,
    CharClass,
    ConvolutionSymbols,
    branch_tags,
    classify_site,
    diff_class_member,
    hyperplane_points,
    kernel_shifts,
    resonance_graph,
    sphere_points,
)
from .lattice import (
    Box,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    conv_power,
    convolve,
    default_box,
    linear_solution,
    site,
)


@dataclass
class ConditionReport:
    name: str
    verdict: str  # "pass" | "fail" | "unknown_at_depth"
    witnesses: List = field(default_factory=list)
    parameters: Dict = field(default_factory=dict)
    details: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# Condition (i): non-intersection


def error_support(u0: SparseSeries, v0: SparseSeries, p: int
                  ) -> Tuple[List[SiteIndex], List[SiteIndex]]:
    """Exact supports of (u0*v0)^{*p} * u0 and (u0*v0)^{*p} * v0."""
    uv_p = conv_power(convolve(u0, v0), p)
    fu = convolve(uv_p, u0)
    fv = convolve(uv_p, v0)
    return fu.support(), fv.support()


def check_condition_i(spec: ProblemSpec) -> ConditionReport:
    """Pass iff the error term puts no mass on the resonant set off S.

    Resonance is branch-matched: the u-component error meets a vanishing
    divisor where n.w0 + |j|^2 = 0, the v-component error where the sign is
    flipped; an error site on the opposite branch faces an O(1) divisor and
    is harmless.  Supports are finite and exact, so the verdict is exact.
    Both equations and a witness's class come from `branch_tags`.
    """
    u0, v0 = linear_solution(spec)
    s_set = set(u0.support()) | set(v0.support())
    fu, fv = error_support(u0, v0, spec.p)
    witnesses = []
    for component, sites, branch in (("u", fu, 0), ("v", fv, 1)):
        coords = np.array([x.n + x.j for x in sites], dtype=np.int64)
        tags, on_branch = branch_tags(coords.reshape(-1, spec.b + spec.d), spec.omega0())
        for x, tag, hit in zip(sites, tags.tolist(),
                               on_branch.reshape(2, -1)[branch].tolist()):
            if hit and x not in s_set:
                witnesses.append({"site": x, "component": component,
                                  "class": TAG_CLASS[tag].value})
    return ConditionReport(
        name="non_intersection",
        verdict="fail" if witnesses else "pass",
        witnesses=witnesses,
        parameters={"p": spec.p, "b": spec.b, "d": spec.d},
        details={"error_support_size": len(set(fu) | set(fv))},
    )


# ---------------------------------------------------------------------------
# Restricted symbol supports


@dataclass
class SymbolSupports:
    """The four difference-class restricted symbol supports.

    gpp / gmm restrict the diagonal symbol (u*v)^{*p} to C^{++} / C^{--}.
    gpm holds the +to- step displacements: the vv symbol restricted to C^{-+}
    (a step displacement is target minus source, landing in C- minus C+).
    gmp holds the -to+ displacements: the uu symbol restricted to C^{+-}.
    Undecided memberships are kept (conservatively) and flagged.
    """

    gpp: List[SiteIndex]
    gpm: List[SiteIndex]
    gmm: List[SiteIndex]
    gmp: List[SiteIndex]
    unknown: Set[Tuple[str, SiteIndex]] = field(default_factory=set)
    witnesses: Dict[Tuple[str, SiteIndex], Tuple[SiteIndex, SiteIndex]] = field(default_factory=dict)


def symbol_supports(spec: ProblemSpec, search_radius: int = 30) -> SymbolSupports:
    u0, v0 = linear_solution(spec)
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    omega0 = spec.omega0()
    P, M = CharClass.CPLUS, CharClass.CMINUS
    out = SymbolSupports(gpp=[], gpm=[], gmm=[], gmp=[])
    for name, series, pair in (
        ("gpp", symbols.uv_p, (P, P)),
        ("gmm", symbols.uv_p, (M, M)),
        ("gpm", symbols.vv, (M, P)),
        ("gmp", symbols.uu, (P, M)),
    ):
        bucket = getattr(out, name)
        for delta in series.support():
            res = diff_class_member(delta, omega0, pair, search_radius=search_radius)
            if res.status == "yes":
                bucket.append(delta)
                out.witnesses[(name, delta)] = res.witness
            elif res.status == "unknown":
                bucket.append(delta)
                out.unknown.add((name, delta))
    return out


# ---------------------------------------------------------------------------
# Condition (ii): the walk check on the n-translation quotient


@dataclass(frozen=True)
class WalkNode:
    branch: int  # +1 for C+, -1 for C-
    j: Tuple[int, ...]

    def key(self):
        return (-self.branch, self.j)


@dataclass
class WalkEdge:
    src: WalkNode
    dst: WalkNode
    dn: Tuple[int, ...]
    element: SiteIndex
    kind: str  # "diag" | "uu" | "vv"


@dataclass
class WalkGraph:
    nodes: List[WalkNode]
    edges: Dict[WalkNode, List[WalkEdge]]
    immediate_spirals: List[WalkEdge]  # self-loops with dn != 0
    truncated: bool  # True when d >= 2 and the j box clipped the constraint sets


def _branch_realizable(j: Tuple[int, ...], branch: int, w: Sequence[int],
                       kernel) -> bool:
    jsq = sum(x * x for x in j)
    g = _intlinalg.vector_gcd(w)
    if g == 0:
        return jsq == 0
    if jsq % g != 0:
        return False
    if all(x == 0 for x in j) and branch == -1:
        # Needs a kernel vector with nonzero first coordinate.
        return any(k[0] != 0 for k in kernel)
    return True


def _same_branch_sources(element: SiteIndex, branch: int, w, d: int,
                         j_radius: Optional[int]) -> Tuple[List[Tuple[int, ...]], bool]:
    """Source j's admitting a same-branch step by `element`:
    2 j.dj + |dj|^2 + branch * dn.w = 0.  Returns (sources, everywhere)."""
    dn_w = sum(a * b for a, b in zip(element.n, w))
    dj = element.j
    djsq = sum(x * x for x in dj)
    c = -djsq - branch * dn_w
    if all(x == 0 for x in dj):
        return [], c == 0  # admissible everywhere iff dn.w = 0
    if d == 1:
        twice = 2 * dj[0]
        if c % twice == 0:
            return [(c // twice,)], False
        return [], False
    assert j_radius is not None
    return hyperplane_points(dj, c, j_radius), False


def _cross_branch_sources(element: SiteIndex, branch: int, w,
                          j_radius: Optional[int]) -> List[Tuple[int, ...]]:
    """Source j's admitting a branch-switching step by `element`:
    2|j|^2 + 2 j.dj + |dj|^2 - branch * dn.w = 0, the sphere
    |2j + dj|^2 = 2 branch dn.w - |dj|^2, in ascending order."""
    dn_w = sum(a * b for a, b in zip(element.n, w))
    dj = element.j
    djsq = sum(x * x for x in dj)
    out = sphere_points(tuple(-x for x in dj), 2 * branch * dn_w - djsq)
    if j_radius is not None:
        out = [j for j in out if all(abs(x) <= j_radius for x in j)]
    return out


def build_walk_graph(
    supports: Dict[str, List[SiteIndex]],
    omega0: FrequencyVector,
    d: int,
    j_radius: Optional[int] = None,
) -> WalkGraph:
    """Quotient graph of characteristic connectivity by n-translations.

    In one dimension each symbol element pins its admissible source j
    exactly, so the graph is complete without any box.  In higher dimension
    the same-branch constraints are hyperplanes and the construction scans a
    j box (reported as truncation).
    """
    w = omega0.as_ints()
    kernel = _intlinalg.kernel_basis([list(w)])
    edges: Dict[WalkNode, List[WalkEdge]] = {}
    immediate: List[WalkEdge] = []
    truncated = d > 1

    def realizable(j, branch):
        return _branch_realizable(j, branch, w, kernel)

    def add_edge(src: WalkNode, dst: WalkNode, dn, element, kind):
        if not realizable(src.j, src.branch):
            return
        edges.setdefault(src, []).append(WalkEdge(src, dst, dn, element, kind))

    for element in supports.get("uv", []):
        if element.is_zero():
            continue
        for branch in (1, -1):
            sources, everywhere = _same_branch_sources(element, branch, w, d, j_radius)
            if everywhere:
                # Pure time shift admissible at every j: a self-loop spiral.
                jw = _spiral_anchor(w, d, branch, kernel)
                if jw is not None:
                    immediate.append(WalkEdge(WalkNode(branch, jw), WalkNode(branch, jw),
                                              element.n, element, "diag"))
                continue
            for j in sources:
                dst = tuple(a + b for a, b in zip(j, element.j))
                add_edge(WalkNode(branch, j), WalkNode(branch, dst),
                         element.n, element, "diag")
    for element in supports.get("vv", []):
        for j in _cross_branch_sources(element, 1, w, j_radius):
            dst = tuple(a + b for a, b in zip(j, element.j))
            add_edge(WalkNode(1, j), WalkNode(-1, dst), element.n, element, "vv")
    for element in supports.get("uu", []):
        for j in _cross_branch_sources(element, -1, w, j_radius):
            dst = tuple(a + b for a, b in zip(j, element.j))
            add_edge(WalkNode(-1, j), WalkNode(1, dst), element.n, element, "uu")

    nodes = sorted(set(edges) | {e.dst for lst in edges.values() for e in lst},
                   key=WalkNode.key)
    for lst in edges.values():
        lst.sort(key=lambda e: (e.dst.key(), e.dn))
    return WalkGraph(nodes=nodes, edges=edges, immediate_spirals=immediate,
                     truncated=truncated)


def _spiral_anchor(w, d, branch, kernel) -> Optional[Tuple[int, ...]]:
    """Some j realizable on the given branch, preferring small nonzero ones."""
    for r in range(0, 4):
        for j in itertools.product(range(-r, r + 1), repeat=d):
            if max((abs(x) for x in j), default=0) != r:
                continue
            if _branch_realizable(j, branch, w, kernel):
                return j
    return None


@dataclass
class WalkViolation:
    start: WalkNode
    steps: List[WalkEdge]
    total_dn: Tuple[int, ...]
    lifted_sites: Optional[List[SiteIndex]] = None


def _walk_check(graph: WalkGraph, omega0: FrequencyVector, m_max: int
                ) -> Tuple[str, Optional[WalkViolation], Dict]:
    """Potential-consistency BFS; a revisit with a different accumulated n is
    a spiral.  Returns verdict, witness, stats."""
    w = omega0.as_ints()
    b = len(w)
    zero = tuple(0 for _ in range(b))

    if graph.immediate_spirals:
        e = graph.immediate_spirals[0]
        viol = WalkViolation(start=e.src, steps=[e], total_dn=e.dn)
        viol.lifted_sites = _lift_walk(viol, omega0)
        return "fail", viol, {"mode": "self_loop"}

    visited_any: Set[WalkNode] = set()
    hit_depth_cap = False
    for root in graph.nodes:
        if root in visited_any:
            continue
        pot: Dict[WalkNode, Tuple[int, ...]] = {root: zero}
        parent: Dict[WalkNode, Tuple[WalkNode, WalkEdge]] = {}
        frontier = [root]
        depth = 0
        while frontier:
            if depth >= m_max:
                hit_depth_cap = True
                break
            depth += 1
            nxt = []
            for node in frontier:
                for e in graph.edges.get(node, []):
                    p_new = tuple(a + c for a, c in zip(pot[node], e.dn))
                    if e.dst not in pot:
                        pot[e.dst] = p_new
                        parent[e.dst] = (node, e)
                        nxt.append(e.dst)
                    elif pot[e.dst] != p_new:
                        viol = _build_violation(root, node, e, p_new, pot, parent, graph)
                        if viol is not None:
                            viol.lifted_sites = _lift_walk(viol, omega0)
                            return "fail", viol, {"mode": "cycle", "depth": depth}
            frontier = nxt
        visited_any.update(pot)

    stats = {"nodes_explored": len(visited_any), "depth_cap_hit": hit_depth_cap}
    if hit_depth_cap or graph.truncated:
        return ("unknown_at_depth" if hit_depth_cap else "pass"), None, stats
    return "pass", None, stats


def _build_violation(root, node, edge, p_new, pot, parent, graph) -> Optional[WalkViolation]:
    """Turn a potential conflict into an explicit closed directed walk."""
    path_to = lambda n: _unwind(parent, n)
    fwd = path_to(node) + [edge]
    if edge.dst == root:
        total = _sum_dn(fwd)
        if any(total):
            return WalkViolation(start=root, steps=fwd, total_dn=total)
    back = path_to(edge.dst)
    rev = []
    for e in reversed(back):
        r = _reverse_edge(e, graph)
        if r is None:
            return None
        rev.append(r)
    steps = fwd + rev
    total = _sum_dn(steps)
    if not any(total):
        return None
    return WalkViolation(start=root, steps=steps, total_dn=total)


def _unwind(parent, node) -> List[WalkEdge]:
    out = []
    while node in parent:
        prev, e = parent[node]
        out.append(e)
        node = prev
    return list(reversed(out))


def _sum_dn(steps: List[WalkEdge]) -> Tuple[int, ...]:
    b = len(steps[0].dn)
    tot = [0] * b
    for e in steps:
        for i, x in enumerate(e.dn):
            tot[i] += x
    return tuple(tot)


def _reverse_edge(e: WalkEdge, graph: WalkGraph) -> Optional[WalkEdge]:
    neg_el = -e.element
    for cand in graph.edges.get(e.dst, []):
        if cand.dst == e.src and cand.element == neg_el:
            return cand
    return None


def _lift_walk(viol: WalkViolation, omega0: FrequencyVector) -> Optional[List[SiteIndex]]:
    """Realize the quotient walk as a site chain on the variety."""
    w = omega0.as_ints()
    j0 = viol.start.j
    target = -viol.start.branch * sum(x * x for x in j0)
    base = _intlinalg.solve_dot(w, target)
    if base is None:
        return None
    want = [viol.start.branch] + [e.dst.branch for e in viol.steps]
    for sh in kernel_shifts(w):
        n0 = tuple(a + c for a, c in zip(base, sh))
        sites = [SiteIndex(n0, j0)]
        for e in viol.steps:
            sites.append(sites[-1] + SiteIndex(e.dn, e.element.j))
        tags = [classify_site(s, omega0) for s in sites]
        expect = [CharClass.CPLUS if br == 1 else CharClass.CMINUS for br in want]
        if tags == expect:
            return sites
    return None


def verify_walk_witness(viol: WalkViolation, omega0: FrequencyVector) -> bool:
    """Re-verify a lifted spiral witness from scratch."""
    if viol.lifted_sites is None:
        return False
    sites = viol.lifted_sites
    if len(sites) != len(viol.steps) + 1:
        return False
    for i, e in enumerate(viol.steps):
        d = sites[i + 1] - sites[i]
        if d.n != e.dn or d.j != e.element.j:
            return False
        if classify_site(sites[i], omega0) is CharClass.OFF:
            return False
    first, last = sites[0], sites[-1]
    if first.j != last.j or first.n == last.n:
        return False
    return classify_site(first, omega0) is classify_site(last, omega0)


def check_condition_ii(
    spec: ProblemSpec,
    m_max: int = 8,
    box: Optional[Box] = None,
    inject: Optional[Dict[str, List[SiteIndex]]] = None,
) -> ConditionReport:
    """Non-spiral condition: walk check on the quotient plus the boxed graph
    check.  Pass requires both to find nothing; the scale is reported."""
    u0, v0 = linear_solution(spec)
    omega0 = spec.omega0()
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    supports = {
        "uv": symbols.uv_p.support(),
        "uu": symbols.uu.support(),
        "vv": symbols.vv.support(),
    }
    if inject:
        for key, extra in inject.items():
            supports[key] = sorted(set(supports[key]) | set(extra))

    maxj = max(max(abs(c) for c in j) for j in spec.j_list)
    walk_j_radius = (2 * spec.p + 1) * maxj + 1
    graph_q = build_walk_graph(supports, omega0, spec.d,
                               j_radius=walk_j_radius if spec.d > 1 else None)
    walk_verdict, walk_witness, walk_stats = _walk_check(graph_q, omega0, m_max)

    if box is None:
        box = default_box(spec)
    if inject:
        # Graph check sees the same augmented supports via unit-mass symbols.
        symbols = ConvolutionSymbols(
            uv_p=_augment(symbols.uv_p, inject.get("uv", [])),
            uu=_augment(symbols.uu, inject.get("uu", [])),
            vv=_augment(symbols.vv, inject.get("vv", [])),
            p=spec.p,
        )
    rg = resonance_graph(u0, v0, spec, omega0, box, symbols=symbols)

    witnesses = []
    if walk_verdict == "fail" and walk_witness is not None:
        witnesses.append({"kind": "walk", "violation": walk_witness})
    sizes = np.diff(rg.bounds)
    if len(rg.spiral_pairs):
        i, k = rg.spiral_pairs[0].tolist()
        first, second = rg.vertices[[i, k]].tolist()
        witnesses.append({
            "kind": "graph",
            "sites": (site(first[:spec.b], first[spec.b:]),
                      site(second[:spec.b], second[spec.b:])),
            "tag": TAG_CLASS[int(rg.tags[i])].value,
            "component_size": int(sizes[rg.labels[i]]),
        })

    if witnesses:
        verdict = "fail"
    elif walk_verdict == "unknown_at_depth":
        verdict = "unknown_at_depth"
    else:
        verdict = "pass"
    return ConditionReport(
        name="non_spiral",
        verdict=verdict,
        witnesses=witnesses,
        parameters={
            "m_max": m_max,
            "box": (box.n_radius, box.j_radius),
            "walk_j_radius": walk_j_radius,
            "walk_truncated": graph_q.truncated,
        },
        details={
            "walk": {"verdict": walk_verdict, **walk_stats},
            "graph": {
                "vertices": len(rg.vertices),
                "max_component": int(sizes.max(initial=0)),
            },
        },
    )


def _augment(series: SparseSeries, extra: List[SiteIndex]) -> SparseSeries:
    terms = {s: series[s] for s in series.support()}
    for s in extra:
        terms.setdefault(s, 1.0 + 0j)
    return SparseSeries(series.b, series.d, terms, drop_tol=0.0)


# ---------------------------------------------------------------------------
# Momentum / energy / mass rank test


@dataclass
class RankCheck:
    passed: bool
    kernel_vector: Optional[Tuple[int, ...]]
    determinant: Optional[int]
    rows: List[List[int]]


def rank_check_momenta(j_list: Sequence[Sequence[int]], d: int) -> RankCheck:
    """Integer kernel of the (d+2) x b matrix with rows (1..1), the mode
    coordinates, and the mode energies |j_k|^2.

    A trivial kernel certifies the non-spiral condition outright; otherwise
    a kernel vector is returned and the walk / graph checks must decide.
    """
    js = [tuple(int(c) for c in j) for j in j_list]
    b = len(js)
    rows: List[List[int]] = [[1] * b]
    for i in range(d):
        rows.append([j[i] for j in js])
    rows.append([sum(c * c for c in j) for j in js])
    kernel = _intlinalg.kernel_basis(rows)
    det = _intlinalg.int_det(rows) if len(rows) == b else None
    if not kernel:
        return RankCheck(passed=True, kernel_vector=None, determinant=det, rows=rows)
    return RankCheck(passed=False, kernel_vector=kernel[0], determinant=det, rows=rows)


# ---------------------------------------------------------------------------
# One-dimensional construction


@dataclass
class ConnectedPair:
    j: int
    j_next: int
    element: SiteIndex
    branch_relation: str  # "same" (Gamma+) or "cross" (Gamma-)
    cubic_type: bool


def oned_check(spec: ProblemSpec) -> ConditionReport:
    """Direct 1d enumeration of the connected-pair equations.

    Enumerates Gamma+ (the diagonal symbol support) and Gamma- (the vv
    symbol support), solves the two connection equations over the integers
    (on the C+ branch, as the walk graph's source equations), records every
    solution pair, and fails when a pure time shift occurs or when two
    overlapping pairs of different spatial step are not both of cubic type
    (endpoints among +-j_k).
    """
    if spec.d != 1:
        raise ValueError("oned_check is defined for d = 1 only")
    js = [j for (j,) in spec.j_list]
    u0, v0 = linear_solution(spec)
    symbols = ConvolutionSymbols.from_fields(u0, v0, spec.p)
    w = spec.omega0().as_ints()

    gamma_plus = symbols.uv_p.support()
    gamma_minus = symbols.vv.support()

    witnesses = []
    pure_time = [g for g in gamma_plus + gamma_minus
                 if all(x == 0 for x in g.j) and any(g.n)]
    for g in pure_time:
        witnesses.append({"kind": "pure_time_shift", "element": g})

    cubic_set = {j for j in js} | {-j for j in js}
    pairs: List[ConnectedPair] = []

    def pair(g: SiteIndex, j: int, relation: str) -> ConnectedPair:
        j_next = j + g.j[0]
        return ConnectedPair(j=j, j_next=j_next, element=g, branch_relation=relation,
                             cubic_type=(j in cubic_set and j_next in cubic_set))

    for g in gamma_plus:
        pairs += [pair(g, j, "same") for (j,) in _same_branch_sources(g, 1, w, 1, None)[0]]
    for g in gamma_minus:
        pairs += [pair(g, j, "cross") for (j,) in _cross_branch_sources(g, 1, w, None)]

    # Overlapping pairs with distinct spatial steps must both be cubic.
    for i, p1 in enumerate(pairs):
        for p2 in pairs[i + 1:]:
            if (p1.j_next - p1.j) == (p2.j_next - p2.j):
                continue
            shared = {p1.j, p1.j_next} & {p2.j, p2.j_next}
            if shared and not (p1.cubic_type and p2.cubic_type):
                witnesses.append({
                    "kind": "non_cubic_overlap",
                    "pair_a": (p1.j, p1.j_next),
                    "pair_b": (p2.j, p2.j_next),
                    "shared": sorted(shared),
                })
    return ConditionReport(
        name="oned_check",
        verdict="fail" if witnesses else "pass",
        witnesses=witnesses,
        parameters={"p": spec.p, "j_list": tuple(js)},
        details={
            "gamma_plus_size": len(gamma_plus),
            "gamma_minus_size": len(gamma_minus),
            "pairs": pairs,
        },
    )
