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

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import _intlinalg
from .characteristics import (
    TAG_CLASS,
    CharClass,
    ConvolutionSymbols,
    branch_tags,
    diff_class_members,
    enumerate_box_sites,
    lift_chains,
    resonance_graph,
    row_keys,
    seed_symbols,
)
from .lattice import (
    Box,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
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


def check_condition_i(spec: ProblemSpec, symbols: Optional[ConvolutionSymbols] = None
                      ) -> ConditionReport:
    """Pass iff the error term puts no mass on the resonant set off S.

    Resonance is branch-matched: the u-component error meets a vanishing
    divisor where n.w0 + |j|^2 = 0, the v-component error where the sign is
    flipped; an error site on the opposite branch faces an O(1) divisor and
    is harmless.  Supports (of gu and gv of `seed_symbols`, built here
    unless given) are finite and exact, so the verdict is exact.  Both
    equations and a witness's class come from `branch_tags`.

    For p = 1 a u-witness (a v-witness's flip) is s_a + s_b - s_c, with a
    right angle at j_c: it names the rectangle j_a, j_c, j_b, j_a + j_b - j_c.
    """
    u0, v0 = linear_solution(spec)
    s_set = set(u0.support()) | set(v0.support())
    symbols = symbols or seed_symbols(spec)
    fu, fv = symbols.gu.support(), symbols.gv.support()
    tags, on_branch = branch_tags(_site_rows(fu + fv, spec.b + spec.d), spec.omega0())
    plus_eq, minus_eq = on_branch.reshape(2, -1)
    witnesses = []
    for component, sites, on, at in (("u", fu, plus_eq, np.s_[:len(fu)]),
                                     ("v", fv, minus_eq, np.s_[len(fu):])):
        for x, tag, hit in zip(sites, tags[at].tolist(), on[at].tolist()):
            if hit and x not in s_set:
                witnesses.append({"site": x, "component": component,
                                  "class": TAG_CLASS[tag].value})
                if spec.p == 1:
                    y = x if component == "u" else -x
                    (a, b), c = [k for k, n in enumerate(y.n) if n == -1], y.n.index(1)
                    witnesses[-1]["rectangle"] = (*(spec.j_list[k] for k in (a, c, b)), y.j)
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


def symbol_supports(spec: ProblemSpec, search_radius: int = 30,
                    symbols: Optional[ConvolutionSymbols] = None) -> SymbolSupports:
    symbols = symbols or seed_symbols(spec)
    P, M = CharClass.CPLUS, CharClass.CMINUS
    out = SymbolSupports(gpp=[], gpm=[], gmm=[], gmp=[])
    queries = [(name, delta, pair) for name, series, pair in (
        ("gpp", symbols.uv_p, (P, P)),
        ("gmm", symbols.uv_p, (M, M)),
        ("gpm", symbols.vv, (M, P)),
        ("gmp", symbols.uu, (P, M)),
    ) for delta in series.support()]
    found = diff_class_members([q[1:] for q in queries], spec.omega0(), search_radius)
    for (name, delta, _), res in zip(queries, found):
        if res.status != "no":
            getattr(out, name).append(delta)
        if res.status == "yes":
            out.witnesses[(name, delta)] = res.witness
        elif res.status == "unknown":
            out.unknown.add((name, delta))
    return out


# ---------------------------------------------------------------------------
# Condition (ii): the walk check on the n-translation quotient


@dataclass(frozen=True)
class WalkNode:
    branch: int  # +1 for C+, -1 for C-
    j: Tuple[int, ...]


@dataclass
class WalkEdge:
    src: WalkNode
    dst: WalkNode
    dn: Tuple[int, ...]
    element: SiteIndex
    kind: str  # "diag" | "uu" | "vv"


@dataclass
class WalkGraph:
    """The quotient graph on integer arrays.

    nodes is (count, 1 + d) int64, rows (branch, j), C+ first, then j
    ascending.  Edge k steps from node src[k] to node dst[k] by the symbol
    element elements[element[k]] (uv's scanned from C+, from C-, then vv's
    and uu's), whose n is the step's dn; the edges are sorted by (src, dst,
    dn).  The objects of a witness are built from them (`node`, `edge`).
    """

    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    element: np.ndarray
    elements: List[SiteIndex]
    immediate_spirals: List[WalkEdge]  # self-loops with dn != 0
    truncated: bool  # True when d >= 2 and the j box clipped the constraint sets

    def node(self, i: int) -> WalkNode:
        branch, *j = self.nodes[i].tolist()
        return WalkNode(branch, tuple(j))

    def edge(self, k: int) -> WalkEdge:
        """Edge k, reading the diagonal symbol on a branch, vv from C+ to C-
        and uu from C- to C+."""
        element, src, dst = (self.elements[self.element[k]], self.node(self.src[k]),
                             self.node(self.dst[k]))
        kind = "diag" if src.branch == dst.branch else "vv" if src.branch > 0 else "uu"
        return WalkEdge(src, dst, element.n, element, kind)


def _site_rows(sites: Sequence[SiteIndex], width: int) -> np.ndarray:
    """Sites as a (count, width) int64 array of rows n then j."""
    return np.array([s.n + s.j for s in sites], dtype=np.int64).reshape(-1, width)


def _realizable(jsq, branch, w: Sequence[int]):
    """Whether the classes (branch, j) with |j|^2 = jsq hold a site (ints
    or arrays that broadcast): n.w0 = -branch |j|^2 needs gcd(w0) to divide
    |j|^2, and j = 0 on C- needs an n.w0 = 0 with n_1 > 0 (the tie-break of
    `branch_tags`), which exists iff b > 1: (w0_2, -w0_1, 0, ..) is one, as
    no w0_k is 0.  Existence only: a lift tags its sites by `branch_tags`."""
    return (jsq % math.gcd(*w) == 0) & ((jsq != 0) | (branch > 0) | (len(w) > 1))


@functools.lru_cache(maxsize=16)
def _j_box(d: int, radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """The j of |j|_inf <= radius, lexicographic, and |j|^2; cached read-only."""
    grid = enumerate_box_sites(0, d, Box(0, radius))
    jsq = (grid * grid).sum(axis=1)
    grid.setflags(write=False)
    jsq.setflags(write=False)
    return grid, jsq


def _step_sources(elements: np.ndarray, w: np.ndarray, d: int, branch, cross,
                  j_radius: Optional[int] = None
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a step by each element row (dn, dj) from a site of the branch
    lands on the variety, on the same branch or, where cross, on the other
    (branch and cross per element or for all): the (element, source j, |j|^2)
    of each step, by element, then j.  On the branch the step lands where
    2 j.dj + |dj|^2 + branch dn.w = 0, a hyperplane (none for dj = 0: a pure
    time shift steps from everywhere or nowhere); across on the sphere
    |2j + dj|^2 = 2 branch dn.w - |dj|^2.  In one dimension both are solved
    exactly; in more every j of the box of j_radius is tested (`_j_box`)."""
    dn_w, dj = elements[:, :len(w)] @ w, elements[:, len(w):]
    djsq = (dj * dj).sum(axis=1)
    c = djsq + np.where(cross, -branch, branch) * dn_w
    cross = np.broadcast_to(cross, c.shape)
    if d == 1:  # the line 2j dj + c = 0, or the square (2j + dj)^2 = dj^2 - 2c = s^2
        found = []  # a few dozen elements: Python ints cost less than array passes
        for e, (dj_e, c_e, x) in enumerate(zip(dj[:, 0].tolist(), c.tolist(), cross.tolist())):
            r = dj_e * dj_e - 2 * c_e
            s = math.isqrt(max(r, 0))
            if not x and dj_e and c_e % (2 * dj_e) == 0:
                found.append((e, -c_e // (2 * dj_e)))
            elif x and s * s == r and (s + dj_e) % 2 == 0:
                found += [(e, (t - dj_e) // 2) for t in sorted({-s, s})]
        element, j = np.array(found, dtype=np.int64).reshape(-1, 2).T
        return element, j[:, None], j * j
    grid, jsq = _j_box(d, j_radius)
    lhs = (2 * dj) @ grid.T + c[:, None]
    lhs += (2 * cross)[:, None] * jsq
    element, at = np.nonzero((lhs == 0) & (cross | dj.any(axis=1))[:, None])
    return element, grid[at], jsq[at]


def build_walk_graph(
    supports: Dict[str, List[SiteIndex]],
    omega0: FrequencyVector,
    d: int,
    j_radius: Optional[int] = None,
) -> WalkGraph:
    """Quotient graph of characteristic connectivity by n-translations.

    A node is a class (branch, j) that holds a site (`_realizable`); each
    symbol element steps from it where `_step_sources` admits j: uv on
    either branch, vv from C+ to C- and uu from C- to C+.  In one dimension
    each element pins its sources exactly, so the graph is complete without
    any box; in higher dimension the same-branch sources lie on hyperplanes
    and the j box of j_radius is scanned (reported as truncation).  One
    pass scans every element; the nodes are numbered by the
    `row_keys` of their (-branch, j) rows and the edges sorted by one
    lexsort on (src, dst, dn).
    """
    w = np.array(omega0.as_ints(), dtype=np.int64)
    b = len(w)
    uv = [s for s in supports.get("uv", ()) if not s.is_zero()]
    vv, uu = supports.get("vv", ()), supports.get("uu", ())
    elements = [*uv, *uv, *vv, *uu]  # scanned from C+, C-, C+ and C-
    counts = [len(uv), len(uv), len(vv), len(uu)]
    branch, cross = np.repeat([[1, -1, 1, -1], [0, 0, 1, 1]], counts, axis=1)
    rows = _site_rows(elements, b + d)
    element, j, jsq = _step_sources(rows, w, d, branch, cross, j_radius)
    keep = _realizable(jsq, branch[element], w)
    element, j = element[keep], j[keep]
    src_branch = branch[element]
    dst_branch = np.where(cross[element], -src_branch, src_branch)
    ends = np.concatenate([np.column_stack([-src_branch, j]),
                           np.column_stack([-dst_branch, j + rows[element, b:]])])
    first, ids = np.zeros((2, 0), dtype=np.int64)
    if len(ends):
        _, first, ids = np.unique(row_keys(ends), return_index=True, return_inverse=True)
    src, dst = ids[:len(element)], ids[len(element):]
    order = np.lexsort(np.vstack([rows[element, :b].T[::-1], dst, src]))
    nodes = ends[first]
    nodes[:, 0] *= -1
    immediate = []
    for el in uv:  # (dn, 0) with dn.w0 = 0 steps from every class
        if not any(el.j) and np.dot(el.n, w) == 0:
            for side in (1, -1):
                anchor = _spiral_anchor(d, side, w)
                if anchor is not None:
                    node = WalkNode(side, anchor)
                    immediate.append(WalkEdge(node, node, el.n, el, "diag"))
    return WalkGraph(nodes=nodes, src=src[order], dst=dst[order], element=element[order],
                     elements=elements, immediate_spirals=immediate, truncated=d > 1)


def _spiral_anchor(d: int, branch: int, w: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The first j realizable on the branch by sup norm 0 .. 3, in
    lexicographic order within a sup norm."""
    grid, jsq = _j_box(d, 3)
    ok = np.flatnonzero(_realizable(jsq, branch, w))
    return tuple(grid[ok[np.argmin(np.abs(grid[ok]).max(axis=1))]].tolist()) if len(ok) else None


@dataclass
class WalkViolation:
    start: WalkNode
    steps: List[WalkEdge]
    total_dn: Tuple[int, ...]
    lifted_sites: Optional[List[SiteIndex]] = None


def _walk_check(graph: WalkGraph, omega0: FrequencyVector, m_max: int
                ) -> Tuple[str, Optional[WalkViolation], Dict]:
    """Potential-consistency BFS over the node numbers; a revisit with a
    different accumulated n is a spiral.  Returns verdict, witness, stats."""
    if graph.immediate_spirals:
        e = graph.immediate_spirals[0]
        viol = WalkViolation(start=e.src, steps=[e], total_dn=e.dn)
        viol.lifted_sites = _lift_walk(viol, omega0)
        return "fail", viol, {"mode": "self_loop"}

    n = len(graph.nodes)
    out = np.searchsorted(graph.src, np.arange(n + 1)).tolist()  # i's edges: out[i]:out[i + 1]
    dst = graph.dst.tolist()
    dns = [graph.elements[e].n for e in graph.element.tolist()]
    zero = (0,) * len(omega0.as_ints())
    explored = [False] * n
    hit_depth_cap = False
    for root in range(n):
        if explored[root]:
            continue
        pot = {root: zero}
        parent: Dict[int, int] = {}  # node -> the edge it was reached by
        frontier, depth = [root], 0
        while frontier:
            if depth >= m_max:
                hit_depth_cap = True
                break
            depth += 1
            nxt = []
            for node in frontier:
                here = pot[node]
                for k in range(out[node], out[node + 1]):
                    p_new = tuple(map(operator.add, here, dns[k]))
                    seen = pot.get(dst[k])
                    if seen is None:
                        pot[dst[k]] = p_new
                        parent[dst[k]] = k
                        nxt.append(dst[k])
                    elif seen != p_new:
                        viol = _build_violation(graph, root, k, parent)
                        if viol is not None:
                            viol.lifted_sites = _lift_walk(viol, omega0)
                            return "fail", viol, {"mode": "cycle", "depth": depth}
            frontier = nxt
        for node in pot:
            explored[node] = True

    stats = {"nodes_explored": sum(explored), "depth_cap_hit": hit_depth_cap}
    return ("unknown_at_depth" if hit_depth_cap else "pass"), None, stats


def _build_violation(graph: WalkGraph, root: int, k: int, parent: Dict[int, int]
                     ) -> Optional[WalkViolation]:
    """Turn the potential conflict at edge k into an explicit closed directed
    walk from root: the tree path to edge k, then, unless that already
    closes a spiral at root, the reverses of the tree path to its target."""
    src, dst = graph.src.tolist(), graph.dst.tolist()

    def path_to(node: int) -> List[int]:
        steps = []
        while node in parent:
            steps.append(parent[node])
            node = src[parent[node]]
        return steps[::-1]

    def total(steps: List[int]) -> Tuple[int, ...]:
        return tuple(map(sum, zip(*(graph.elements[graph.element[e]].n for e in steps))))

    steps = path_to(src[k]) + [k]
    if dst[k] != root or not any(total(steps)):
        rev = [_reverse_edge(graph, e) for e in reversed(path_to(dst[k]))]
        if None in rev:
            return None
        steps += rev
    if not any(total(steps)):
        return None
    return WalkViolation(start=graph.node(root), steps=[graph.edge(e) for e in steps],
                         total_dn=total(steps))


def _reverse_edge(graph: WalkGraph, k: int) -> Optional[int]:
    """The first edge back from edge k's target to its source by the
    negated element, or None."""
    neg = -graph.elements[graph.element[k]]
    back = (graph.src == graph.dst[k]) & (graph.dst == graph.src[k])
    return next((c for c in np.flatnonzero(back).tolist()
                 if graph.elements[graph.element[c]] == neg), None)


def _lift_walk(viol: WalkViolation, omega0: FrequencyVector) -> Optional[List[SiteIndex]]:
    """Realize the quotient walk as a site chain on the variety: its
    cumulative steps from (0, start j), lifted by `lift_chains`."""
    w = omega0.as_ints()
    steps = [(0,) * len(w) + viol.start.j] + [e.dn + e.element.j for e in viol.steps]
    want = [viol.start.branch] + [e.dst.branch for e in viol.steps]
    return lift_chains(np.cumsum([steps], axis=1), np.array([want]), w)[0]


def _spiral_pairs(jarr: np.ndarray, tags: np.ndarray, labels: np.ndarray
                  ) -> np.ndarray:
    """Per component, the first vertex that shares its tag and j (so not
    its n) with an earlier one, paired with the first such earlier vertex,
    as a (count, 2) array in component order: the graph's witness of a
    spiral.  (label, tag, j) rows are compared by their `row_keys`."""
    keys = row_keys(np.column_stack([labels, tags, jarr]))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = first[inverse]
    second = np.nonzero(first != np.arange(len(labels)))[0]
    _, head = np.unique(labels[second], return_index=True)  # smallest repeat per component
    return np.stack([first[second[head]], second[head]], axis=1)


def check_condition_ii(
    spec: ProblemSpec,
    m_max: int = 8,
    box: Optional[Box] = None,
    symbols: Optional[ConvolutionSymbols] = None,
) -> ConditionReport:
    """Non-spiral condition: walk check on the quotient plus the boxed graph
    check.  Pass requires both to find nothing; the scale is reported.  Both
    read the supports of `seed_symbols`, built here unless given."""
    omega0 = spec.omega0()
    sups = (symbols or seed_symbols(spec)).supports()
    supports = dict(zip(("uv", "uu", "vv"), sups))

    maxj = max(max(abs(c) for c in j) for j in spec.j_list)
    walk_j_radius = (2 * spec.p + 1) * maxj + 1
    graph_q = build_walk_graph(supports, omega0, spec.d,
                               j_radius=walk_j_radius if spec.d > 1 else None)
    walk_verdict, walk_witness, walk_stats = _walk_check(graph_q, omega0, m_max)

    if box is None:
        box = default_box(spec)
    rg = resonance_graph(spec, box, sups)

    witnesses = []
    if walk_verdict == "fail" and walk_witness is not None:
        witnesses.append({"kind": "walk", "violation": walk_witness})
    sizes = np.diff(rg.bounds)
    pairs = _spiral_pairs(rg.vertices[:, spec.b:], rg.tags, rg.labels)
    if len(pairs):
        i, k = pairs[0].tolist()
        first, second = rg.vertices[[i, k]].tolist()
        witnesses.append({
            "kind": "graph",
            "sites": (site(first[:spec.b], first[spec.b:]),
                      site(second[:spec.b], second[spec.b:])),
            "tag": TAG_CLASS[int(rg.tags[i])].value,
            "component_size": int(sizes[rg.labels[i]]),
        })

    return ConditionReport(
        name="non_spiral",
        verdict="fail" if witnesses else walk_verdict,  # a failed walk leaves a witness
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


def oned_check(spec: ProblemSpec, symbols: Optional[ConvolutionSymbols] = None
               ) -> ConditionReport:
    """Direct 1d enumeration of the connected-pair equations.

    Enumerates Gamma+ (the diagonal symbol support) and Gamma- (the vv
    symbol support) of `seed_symbols` (built here unless given), solves the
    two connection equations over the integers (on the C+ branch, as the
    walk graph's source equations), records every solution pair, and fails
    when a pure time shift occurs or when two overlapping pairs of
    different spatial step are not both of cubic type (endpoints among
    +-j_k).
    """
    if spec.d != 1:
        raise ValueError("oned_check is defined for d = 1 only")
    js = [j for (j,) in spec.j_list]
    symbols = symbols or seed_symbols(spec)
    w = np.array(spec.omega0().as_ints(), dtype=np.int64)

    gamma_plus = symbols.uv_p.support()
    gamma_minus = symbols.vv.support()

    witnesses = [{"kind": "pure_time_shift", "element": g} for g in gamma_plus + gamma_minus
                 if not any(g.j) and any(g.n)]

    cubic_set = {j for j in js} | {-j for j in js}
    pairs: List[ConnectedPair] = []

    gamma, cut = gamma_plus + gamma_minus, len(gamma_plus)
    at, j_at, _ = _step_sources(_site_rows(gamma, spec.b + 1), w, 1, 1,
                                np.arange(len(gamma)) >= cut)
    for e, j in zip(at.tolist(), j_at[:, 0].tolist()):
        g = gamma[e]
        pairs.append(ConnectedPair(j=j, j_next=j + g.j[0], element=g,
                                   branch_relation="cross" if e >= cut else "same",
                                   cubic_type=j in cubic_set and j + g.j[0] in cubic_set))

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
