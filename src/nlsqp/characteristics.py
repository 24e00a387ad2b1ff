"""Bi-characteristic geometry of the linear flow.

The characteristic variety C = {(n, j) : +-n.w0 + |j|^2 = 0} splits into a
C+ branch (carrying the u-component of the doubled system) and a C- branch
(the v-component); sites with j = 0 and n.w0 = 0 satisfy both equations and
are assigned by the sign of n_1 (`branch_tags`).  On top of the variety live
the difference classes C^{++}, C^{+-}, C^{-+}, C^{--} and the connectivity
graph induced by the convolution symbols of the linearized operator.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _intlinalg
from .lattice import (
    Box,
    BoxTooLarge,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    conjugate_flip,
    conv_power,
    convolve,
    linear_solution,
)


class CharClass(enum.Enum):
    CPLUS = "C+"
    CMINUS = "C-"
    OFF = "off"


# The most sites an enumeration may build: the box inverse and the theta
# scan enumerate their box, the resonance graph (so check and sweep) its
# (n_1 .. n_{b-1}, j) grid, and a solve's gate the sites of Lambda in its box
# (`lattice_in_box`).
SITE_CAP = 2_000_000


def enumerate_box_sites(b: int, d: int, box: Box) -> np.ndarray:
    """Every site of the box as a (count, b + d) int64 array in lexicographic
    order, which is also the order of the box's linear index.  A box of
    more than SITE_CAP sites raises BoxTooLarge before anything is built."""
    total = box.site_count(b, d)
    if total > SITE_CAP:
        raise BoxTooLarge(f"box holds {total} sites of {b} n-axes, past the cap of {SITE_CAP}")
    ranges = [np.arange(-r, r + 1) for r in [box.n_radius] * b + [box.j_radius] * d]
    out = np.empty([len(r) for r in ranges] + [b + d], dtype=np.int64)
    for axis, values in enumerate(np.ix_(*ranges)):  # broadcast, not copied per axis
        out[..., axis] = values
    return out.reshape(-1, b + d)


def box_strides(b: int, d: int, box: Box) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis radii of the box and the strides of its linear index: the
    site x has index (x + radii) . strides."""
    radii = np.array([box.n_radius] * b + [box.j_radius] * d, dtype=np.int64)
    sizes = 2 * radii + 1
    strides = np.ones(b + d, dtype=np.int64)
    for i in range(b + d - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return radii, strides


def row_keys(rows: np.ndarray) -> np.ndarray:
    """An int64 id per row of a nonempty (count, width) integer array:
    equal rows get equal ids, and ids order as the rows do lexicographically.

    The id is the row's number in the mixed radix of its columns' spans,
    exact while the spans' product fits in int64.  For the package's site
    keys it does: a graph's (label, tag, j) rows span at most 4e6 x 3 x 2e6
    (its grid is under SITE_CAP), and the sites of a box span its site
    count.  Past int64 the ids are dense ranks."""
    cols = np.ascontiguousarray(rows.T)  # whole-column passes run several times faster
    lo = cols.min(axis=1)
    spans = (cols.max(axis=1) - lo + 1).tolist()
    if math.prod(spans) > np.iinfo(np.int64).max:
        order = np.lexsort(cols[::-1])
        ranks = np.cumsum(np.any(np.diff(rows[order], axis=0) != 0, axis=1))
        return np.concatenate([[0], ranks])[np.argsort(order)]
    return np.cumprod([1] + spans[:0:-1])[::-1] @ (cols - lo[:, None])


def branch_tags(coords: np.ndarray, omega0: FrequencyVector | Tuple[int, ...]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Branch membership of the rows of a (count, b + d) site array: the
    tags, +1 on C+ (n.w0 + |j|^2 = 0), -1 on C- (-n.w0 + |j|^2 = 0) and 0
    off the variety, with C+ at j = 0 for n_1 <= 0 and C- for n_1 > 0; and
    the two branch equations themselves, without that tie-break,
    concatenated into one (2 count,) mask.  This is the package's one
    tie-break rule.  omega0 is the seed frequencies or their ints."""
    w0 = omega0 if isinstance(omega0, tuple) else omega0.as_ints()
    b = len(w0)
    cols = coords.T  # column by column: rows are too short to reduce fast
    nw = sum((w * n for w, n in zip(w0[1:], cols[1:b])), w0[0] * cols[0])
    jsq = sum((j * j for j in cols[b + 1:]), cols[b] * cols[b])
    plus_eq, minus_eq = nw == -jsq, nw == jsq
    # Both equations hold only at j = 0, n.w0 = 0; sign(n_1) picks the branch.
    tags = plus_eq.view(np.int8) - minus_eq.view(np.int8)
    both = np.flatnonzero(plus_eq & minus_eq)
    tags[both] = np.where(cols[0, both] > 0, -1, 1)
    return tags, np.concatenate([plus_eq, minus_eq])


# The class of each tag of `branch_tags`, and the tag of each branch (the
# difference classes are defined for C+ / C- only).
TAG_CLASS = {1: CharClass.CPLUS, -1: CharClass.CMINUS, 0: CharClass.OFF}
CLASS_TAG = {CharClass.CPLUS: 1, CharClass.CMINUS: -1}


# ---------------------------------------------------------------------------
# Difference classes


@dataclass(frozen=True)
class Membership:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[Tuple[SiteIndex, SiteIndex]] = None
    reason: str = ""


LIFT_ROWS = 256  # the most j' a round of `diff_class_members` lifts per search


def diff_class_members(queries: Sequence[Tuple[SiteIndex, Tuple[CharClass, CharClass]]],
                       omega0: FrequencyVector | Tuple[int, ...], search_radius: int = 30
                       ) -> List[Membership]:
    """Decide delta in {s' - s'' : s' in C^a, s'' in C^b} over the full
    lattice for each query (delta, (C^a, C^b)): "yes" with the first j' of
    `_j_search` that an n' completes to s' = (n', j') and s'' = s' - delta
    on their branches (`lift_chains`), "unknown" when a bounded search runs
    out.  Rounds lift the next 1, 2, 4 .. LIFT_ROWS j' of every undecided
    search in one call.  omega0 is the seed frequencies or their ints."""
    w = omega0 if isinstance(omega0, tuple) else omega0.as_ints()
    out: List[Optional[Membership]] = [None] * len(queries)
    searches = {}
    for k, (delta, pair) in enumerate(queries):
        eps = (CLASS_TAG[pair[0]], CLASS_TAG[pair[1]])
        found = _j_search(delta, w, *eps, search_radius)
        if isinstance(found, Membership):
            out[k] = found
        else:
            searches[k] = (delta, eps, iter(found[0]), found[1])
    size = 1
    while searches:
        chains, want, tried = [], [], []
        for k, (delta, eps, candidates, exhaustive) in searches.items():
            jps = list(itertools.islice(candidates, size))
            if not jps:
                out[k] = (Membership("no", reason="all solutions fail the frequency divisibility")
                          if exhaustive else
                          Membership("unknown", reason="bounded j search exhausted"))
                continue
            tried.append((k, len(jps)))
            # s' = (n', j') and s'' = s' - delta, as n-offsets from n' and modes.
            back = tuple(-x for x in delta.n)
            chains += [((0,) * len(w) + jp, back + tuple(a - b for a, b in zip(jp, delta.j)))
                       for jp in jps]
            want += [eps] * len(jps)
        if chains:
            lifts, start = lift_chains(np.array(chains), np.array(want), w), 0
            for k, count in tried:
                sites = next(filter(None, lifts[start:start + count]), None)
                if sites:
                    out[k] = Membership("yes", witness=tuple(sites))
                start += count
        searches = {k: q for k, q in searches.items() if out[k] is None}
        size = min(2 * size, LIFT_ROWS)
    return out


def _j_search(delta: SiteIndex, w: Tuple[int, ...], eps1: int, eps2: int,
              search_radius: int) -> Membership | Tuple[Iterable[Tuple[int, ...]], bool]:
    """The j' whose s' = (n', j') on the eps1 branch and s'' = s' - delta
    on the eps2 branch meet their branch equations, unique and in (l1 norm,
    j') order, and whether they are all; or the Membership decided with no
    j' to lift.  The equations leave one constraint on j': linear when the
    classes agree, a sphere when they differ.  Bounded searches read the j'
    of |j'|_inf <= search_radius from `_small_j_blocks`: a pure time shift
    every row, the hyperplane 2 j'.dj = c the rows one float64 product
    over a block keeps."""
    d, dj = delta.d, delta.j
    dn_w, djsq = sum(a * b for a, b in zip(delta.n, w)), sum(a * a for a in dj)
    if eps1 == eps2:
        c = djsq - eps1 * dn_w
        if all(x == 0 for x in dj):
            if c != 0:
                return Membership("no", reason="pure time shift off the kernel of w0")
            # Any j' works arithmetically; search small representatives.
            return (tuple(jp.tolist()) for block, _ in _small_j_blocks(d, search_radius)
                    for jp in block), False
        if d == 1:
            if c % (2 * dj[0]) != 0:
                return Membership("no", reason="linear constraint has no integer solution")
            return [(c // (2 * dj[0]),)], True
        if c % _intlinalg.vector_gcd([2 * x for x in dj]) != 0:
            return Membership("no", reason="linear constraint has no integer solution")
        # The hyperplane j'.dj = c / 2 (the gcd is even).  The products are
        # sums of integers far below 2^53, so exact in float64.
        half, djf = c // 2, np.array(dj, dtype=np.float64)
        return (tuple(jp) for block, cols in _small_j_blocks(d, search_radius)
                for jp in block[djf @ cols == half].tolist()), False
    rhs = -djsq - 2 * eps1 * dn_w
    if rhs < 0:
        return Membership("no", reason="sphere constraint is empty")
    if math.isqrt(rhs) > 4 * search_radius:
        return Membership("unknown", reason="sphere radius exceeds the search bound")
    points = sorted(sphere_points(dj, rhs), key=lambda jp: (sum(abs(x) for x in jp), jp))
    if not points:
        return Membership("no", reason="no lattice point on the sphere")
    return points, True


# The first block of the membership search holds the j' of l1 norm below
# this; each later block doubles the bound: [0, 8), [8, 16), [16, 32), ...
J_BLOCK_L1 = 8


def _small_j_blocks(d: int, radius: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every j' with |j'|_inf <= radius, sorted by (l1 norm, j'), one l1
    range of `J_BLOCK_L1` at a time: per block the read-only (count, d)
    int64 rows and a read-only (d, count) float64 copy of their columns.
    Each block is built on its first read and kept per (d, radius)."""
    built = _built_j_blocks(d, radius)
    for k in itertools.count():
        hi = J_BLOCK_L1 << k
        lo = hi // 2 if k else 0
        if lo > d * radius:  # every range up to the largest l1 is nonempty
            return
        if k == len(built):
            built.append(_j_block(d, radius, lo, hi))
        yield built[k]


@functools.lru_cache(maxsize=16)
def _built_j_blocks(d: int, radius: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The blocks of `_small_j_blocks` built so far, in order."""
    return []


def _j_block(d: int, radius: int, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """The block of `_small_j_blocks` with lo <= l1 < hi, grown one axis at a
    time over the l1 < hi ball: each prefix row is extended by the values
    that keep it in the ball, in ascending order, so rows stay
    lexicographic and no row past the ball is built."""
    values = np.arange(-min(radius, hi - 1), min(radius, hi - 1) + 1)
    rows, l1 = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(d):
        at, pick = np.nonzero(l1[:, None] + np.abs(values) < hi)
        rows = np.concatenate([rows[at], values[pick, None]], axis=1)
        l1 = l1[at] + np.abs(values[pick])
    keep = np.flatnonzero(l1 >= lo)
    block = rows[keep[np.argsort(l1[keep], kind="stable")]]  # stable: j' ascending per l1
    cols = block.T.astype(np.float64, order="C")
    block.setflags(write=False)  # shared by every search through the cache
    cols.setflags(write=False)
    return block, cols


def sphere_points(center: Sequence[int], rsq: int) -> List[Tuple[int, ...]]:
    """Every integer j with |2j - center|^2 = rsq, in ascending order.

    x = 2j - center runs over the lattice points of the sphere |x|^2 = rsq
    whose coordinates have the parity of center's.
    """
    if rsq < 0:
        return []
    root = math.isqrt(rsq)
    spans = [range(-root + (root + ci) % 2, root + 1, 2) for ci in center]
    return [tuple((x + ci) // 2 for x, ci in zip(two, center))
            for two in itertools.product(*spans) if sum(x * x for x in two) == rsq]


@functools.lru_cache(maxsize=16)
def _lift_basis(w: Tuple[int, ...]) -> Tuple[int, np.ndarray, np.ndarray, int, int]:
    """gcd(w), one Bezout vector x0 (`solve_dot(w, gcd(w))`, so x0.w =
    gcd(w)) and the n-shifts along the integer kernel of w that a lift
    tries, read-only int64: zero, then the kernel-basis combinations whose
    largest coefficient is 1, 2 and 3 in turn; and the largest |entry| of
    x0 and of the shifts.  solve_dot is linear in its target, so
    (t // gcd(w)) x0 is solve_dot(w, t) for every t it solves."""
    g = _intlinalg.vector_gcd(w)
    kernel = np.array(_intlinalg.kernel_basis([list(w)]), dtype=np.int64).reshape(-1, len(w))
    combos = sorted(itertools.product(range(-3, 4), repeat=len(kernel)),  # stable: by max |c|
                    key=lambda combo: max(map(abs, combo), default=0))
    x0 = np.array(_intlinalg.solve_dot(w, g), dtype=np.int64)
    shifts = np.array(combos, dtype=np.int64).reshape(len(combos), len(kernel)) @ kernel
    for a in (x0, shifts):
        a.setflags(write=False)
    return g, x0, shifts, int(np.abs(x0).max()), int(np.abs(shifts).max())


def lift_chains(chains: np.ndarray, want: np.ndarray, w: Tuple[int, ...]
                ) -> List[Optional[List[SiteIndex]]]:
    """Lift each chain of a (count, length, b + d) int64 stack of n-offsets
    (the first zero) and modes to the first sites (n0 + chain[k, :b],
    chain[k, b:]) that `branch_tags` marks want[., k] (+1 C+, -1 C-) at
    every k, or None.  The n0 tried solve n0.w = t = -want[., 0] |j_0|^2:
    (t // gcd(w)) x0 of `_lift_basis` plus each of its kernel shifts, in
    order, all of every chain tagged in one `branch_tags` pass (where
    gcd(w) does not divide t they miss t, and the first site's tag misses
    want).  The sites are int64: OverflowError when n0.w0 + |j|^2 could
    pass it."""
    g, x0, shifts, x0_max, shift_max = _lift_basis(w)
    b, (count, length, width) = len(w), chains.shape
    m, d = int(np.abs(chains).max()), width - b  # |n0| <= d m^2 |x0| + |shift|
    if sum(map(abs, w)) * (d * m * m * x0_max + shift_max + m) + d * m * m >= 2 ** 63:
        raise OverflowError(f"lifting sites of entries up to {m} at w0 = {w} passes int64")
    target = -want[:, 0] * (chains[:, 0, b:] ** 2).sum(axis=1)
    sites = np.repeat(chains[:, None], len(shifts), axis=1)  # (chain, shift, site, coord)
    sites[..., :b] += ((target // g)[:, None, None] * x0 + shifts)[:, :, None]
    tags, _ = branch_tags(sites.reshape(-1, width), w)
    ok = (tags.reshape(count, len(shifts), length) == want[:, None]).all(axis=2)
    lifted, out = np.flatnonzero(ok.any(axis=1)), [None] * count
    for i, rows in zip(lifted.tolist(), sites[lifted, ok[lifted].argmax(axis=1)].tolist()):
        out[i] = [SiteIndex(tuple(x[:b]), tuple(x[b:])) for x in rows]
    return out


def ordered_components(n: int, rows: np.ndarray, cols: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of the graph on range(n) with edges rows[k] --
    cols[k], numbered by their smallest vertex.

    Returns the component label of each vertex, the vertices sorted by
    (label, vertex), and the bounds of each component in that order:
    component c is order[bounds[c]:bounds[c + 1]], members ascending.
    A component's label is the number of `_min_labels` roots (vertices that
    are their own smallest vertex) below its root, a cumulative count over
    the vertices with no sort.
    """
    low, _ = _min_labels(n, rows, cols)
    labels = (np.cumsum(low == np.arange(n)) - 1)[low]  # roots counted in vertex order
    order = np.argsort(labels, kind="stable")  # stable: members ascending
    return labels, order, np.concatenate([[0], np.cumsum(np.bincount(labels))])


def members_of_size(order: np.ndarray, bounds: np.ndarray, k: int) -> np.ndarray:
    """The members of the size-k components of `ordered_components`, as a
    (count, k) array: one component per row, in component order."""
    starts = bounds[:-1][np.diff(bounds) == k]
    return order[starts[:, None] + np.arange(k)]


def component_terms(n: int, order: np.ndarray, bounds: np.ndarray, links: np.ndarray,
                    diagonal: Sequence[SiteIndex]) -> Dict[int, np.ndarray]:
    """The terms that the blocks of F' on the groups order[bounds[c]:bounds[c
    + 1]] of n vertices read, as a (count, k, k) stack per group size k,
    ascending, groups as in `members_of_size`: entry (r, s) holds the term
    of the link (`resonance_links`) from member r to member s, -1 for none,
    and each diagonal entry the origin's position in diagonal, uv_p's
    support (-1 for none).  Links with an end in no group are dropped."""
    sizes = np.diff(bounds)
    by_size = np.argsort(sizes, kind="stable")  # stable: groups in order per size
    start = np.empty_like(sizes)
    start[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
    # Per vertex: its group's start in one array of the stacks, size and slot.
    base, width, slot = np.full((3, n), -1)
    base[order], width[order] = np.repeat(start, sizes), np.repeat(sizes, sizes)
    slot[order] = np.arange(len(order)) - np.repeat(bounds[:-1], sizes)
    x, y, term = links.compress((slot[links[0]] >= 0) & (slot[links[1]] >= 0), axis=1)
    flat = np.full(int(sizes @ sizes), -1)
    flat[base[order] + slot[order] * (width[order] + 1)] = next(
        (i for i, s in enumerate(diagonal) if s.is_zero()), -1)
    flat[base[x] + slot[x] * width[x] + slot[y]] = term
    counts = np.bincount(sizes)
    present = np.flatnonzero(counts)
    parts = np.split(flat, np.cumsum(counts[present] * present ** 2)[:-1])
    return {k: part.reshape(counts[k], k, k) for k, part in zip(present.tolist(), parts)}


def _min_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, int]:
    """The smallest vertex of each vertex's component, and the number of
    propagation rounds it took.

    Each vertex points to a vertex of its component no larger than itself,
    at first to itself.  A round hooks the root of each edge's end to the
    other end's root when that is smaller (np.minimum.at over the edges),
    then jumps pointers (low = low[low]) until every vertex points to a
    root.  Edges whose ends share a root are dropped; when none is left,
    every vertex points to the smallest vertex of its component.

    Rounds: every root is either hooked, hooked onto, or (a local minimum
    whose neighbours all hooked elsewhere, onto smaller roots) hooked in the
    next round, so the number of roots in a component at least halves every
    two rounds: at most 2 * ceil(log2 n) rounds for n vertices.
    """
    low = np.arange(n, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    rounds = 0
    while True:
        r, c = low[rows], low[cols]
        cut = r != c
        if not cut.any():
            return low, rounds
        rows, cols, r, c = rows[cut], cols[cut], r[cut], c[cut]
        rounds += 1
        np.minimum.at(low, r, c)
        np.minimum.at(low, c, r)
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped


# ---------------------------------------------------------------------------
# Convolution symbols and the resonance graph


@dataclass
class ConvolutionSymbols:
    """The three distinct convolution symbols of the linearized operator:

    diag : (p+1) (u*v)^{*p}           (same-branch couplings)
    uu   : p (u*v)^{*(p-1)} * u * u   (u-row to v-column)
    vv   : p (u*v)^{*(p-1)} * v * v   (v-row to u-column)

    Stored without the (p+1) / p prefactors; amplitudes carry them.  Those
    of fields (`from_fields`) keep the fields' other products, each
    convolved once: uv_pm1 = (u*v)^{*(p-1)}, gu = uv_p * u, gv = uv_p * v.
    """

    uv_p: SparseSeries
    uu: SparseSeries
    vv: SparseSeries
    p: int
    uv_pm1: Optional[SparseSeries] = None
    gu: Optional[SparseSeries] = None
    gv: Optional[SparseSeries] = None

    @classmethod
    def from_fields(cls, u: SparseSeries, v: SparseSeries, p: int) -> "ConvolutionSymbols":
        uv = convolve(u, v)
        uv_pm1 = conv_power(uv, p - 1)
        uu = convolve(uv_pm1, convolve(u, u))
        uv_p = convolve(uv_pm1, uv)
        return cls(uv_p=uv_p, uu=uu, vv=conjugate_flip(uu), p=p, uv_pm1=uv_pm1,
                   gu=convolve(uv_p, u), gv=convolve(uv_p, v))

    def supports(self) -> Tuple[Tuple[SiteIndex, ...], ...]:
        """The supports of uv_p, uu and vv, all a graph's links read."""
        return tuple(tuple(series.support()) for series in (self.uv_p, self.uu, self.vv))


def seed_symbols(spec: ProblemSpec) -> ConvolutionSymbols:
    """The symbols of the linear seed, which every check reads."""
    return ConvolutionSymbols.from_fields(*linear_solution(spec), spec.p)


@dataclass
class ResonanceGraph:
    """The characteristic sites of a box and their connectivity, as arrays.

    vertices is (n_vertices, b + d) int64, n then j, in lexicographic order,
    and tags is (n_vertices,) int8, +1 on C+ and -1 on C-.  links is the
    (3, count) int64 array of `resonance_links` between them under the
    graph's supports.  labels, order and bounds are those of
    `ordered_components`: component c is order[bounds[c]:bounds[c + 1]],
    numbered by its smallest vertex with members ascending.
    """

    vertices: np.ndarray
    tags: np.ndarray
    links: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    bounds: np.ndarray


def resonance_graph(spec: ProblemSpec, box: Box,
                    supports: Optional[Sequence[Sequence[SiteIndex]]] = None) -> ResonanceGraph:
    """Connectivity of characteristic sites under the supports of uv_p, uu
    and vv, the seed's (`seed_symbols`) unless given.

    The vertices are the u-copies of the box's C+ sites and the v-copies of
    its C- sites (`branch_tags` at the seed frequencies), solved from the
    branch equations over the box's (n_1 .. n_{b-1}, j) grid, which SITE_CAP
    bounds: sigma's n_b = (-sigma |j|^2 - sum_{k<b} w0_k n_k) / w0_b, kept
    where an integer within n_radius and tagged sigma by `branch_tags` (at
    j = 0 both equations hold and its tie-break keeps one), rows sorted
    by `row_keys`.  An edge joins x and y when the symbol selected by their
    tags is supported at x - y: the diagonal symbol for equal tags, uu for x
    in C+ against y in C-, vv for the mirror pairing (`resonance_links`).
    Components are numbered by their smallest vertex with members ascending,
    so the order of the links and their repeats change nothing.
    """
    if supports is None:
        supports = seed_symbols(spec).supports()
    b, w0 = spec.b, spec.omega0().as_ints()
    w = np.array(w0, dtype=np.int64)
    grid = enumerate_box_sites(b - 1, spec.d, box)
    jsq = sum(c * c for c in grid[:, b - 1:].T)  # column by column, as in branch_tags
    # Row 0 solves C+ (sigma = 1), row 1 C- (sigma = -1).
    nb, left = np.divmod(np.outer([-1, 1], jsq) - grid[:, :b - 1] @ w[:-1], w[-1])
    branch, at = np.nonzero((left == 0) & (np.abs(nb) <= box.n_radius))
    rows = grid[at]
    coords = np.concatenate([rows[:, :b - 1], nb[branch, at, None], rows[:, b - 1:]], axis=1)
    tags, _ = branch_tags(coords, w0)
    keep = np.flatnonzero(tags == 1 - 2 * branch)  # the origin is a C+ site: never empty
    order = keep[np.argsort(row_keys(coords)[keep])]
    coords, tags = coords[order], tags[order]
    links = resonance_links(box, coords, tags, supports, b)
    labels, order, bounds = ordered_components(len(coords), links[0], links[1])
    return ResonanceGraph(vertices=coords, tags=tags, links=links, labels=labels, order=order,
                          bounds=bounds)


def resonance_links(box: Box, vertices: np.ndarray, copies: np.ndarray,
                    supports: Sequence[Sequence[SiteIndex]], b: int) -> np.ndarray:
    """The links of `resonance_graph`'s rule between the vertices, the
    copies copies[i] (+1 u, -1 v) of the rows vertices[i] of a site array in
    the box (b n-axes), under the supports of uv_p, uu and vv, as a (3,
    count) array of (vertex, other vertex, term) columns: the entry of F' at
    that row and column reads the term-th site of the supports in turn.
    One array pass over the u-copies and their shifts (uv_p but its origin
    to u, uu to v), one over the v-copies (uv_p, vv).

    Each vertex is looked up by its doubled index among the sorted ones:
    its index in the box of thrice the radii, plus that box's site count
    ns for a v-copy.  Shifts past twice the radii link no two box sites and
    are dropped, so x - s stays in the tripled box, where its index is no
    other site's: no test of the box faces, and O(vertices x shifts) memory.
    6r + 1 <= (2r + 1)^2, so under SITE_CAP indices stay below 8e12; a box
    whose doubled indices would pass int64 (one `resonance_graph` reads
    through its grid alone) raises BoxTooLarge."""
    d = vertices.shape[1] - b
    wide = Box(3 * box.n_radius, 3 * box.j_radius)
    wide_radii, strides = box_strides(b, d, wide)
    radii = wide_radii // 3
    ns = wide.site_count(b, d)
    if 2 * ns > np.iinfo(np.int64).max:
        raise BoxTooLarge(f"box {box} has indices past int64 in its tripled box")
    index = (vertices + wide_radii) @ strides  # x - s has index(x) - s . strides
    keys = index + ns * (copies < 0)
    rank = np.argsort(keys)
    keys = np.append(keys[rank], np.iinfo(np.int64).max)  # no query reaches the sentinel
    sv = np.array([s.n + s.j for sup in supports for s in sup], dtype=np.int64).reshape(-1, b + d)
    kind = np.repeat([0, 1, 2], [len(sup) for sup in supports])
    kept = (np.abs(sv) <= 2 * radii).all(axis=1) & ((kind > 0) | sv.any(axis=1))
    found = []
    for tag, cross in ((1, 1), (-1, 2)):
        own = np.flatnonzero(copies == tag)
        term = np.flatnonzero(kept & ((kind == 0) | (kind == cross)))
        # x - s on the copy its kind selects: a v-copy's key is offset by ns.
        shift = sv[term] @ strides - ns * ((kind[term] == 0) == (tag < 0))
        # Shift-major, so each shift's queries ascend with the vertices'
        # index: searchsorted takes sorted queries about twice as fast.
        query = index[own][None, :] - shift[:, None]
        pos = np.searchsorted(keys, query)
        at, col = np.nonzero(keys[pos] == query)
        found.append((own[col], rank[pos[at, col]], term[at]))
    return np.concatenate(found, axis=1)


# ---------------------------------------------------------------------------
# The conservation lattice


def conservation_sites(spec: ProblemSpec, radius: int) -> np.ndarray:
    """The sites of Lambda_R as a (count, b + d) int64 array, in
    lexicographic order.

    Lambda holds sum_k c_k s_k for c in Z^b with sum c = 1, s_k = (-e_k, j_k)
    the seed sites: the sites with the seed's mass (sum n = -1) and momentum
    (j = -sum_k n_k j_k).  u lives on Lambda at every Newton step and v on
    -Lambda, since every convolution the iteration takes maps them there.
    Lambda_R keeps the sites of generation at most R (`lattice_generation`);
    Lambda_0 holds the seeds.
    """
    sites = _lattice(spec, -radius, radius + 1)
    sites = sites[lattice_generation(sites, spec.b) <= radius]
    return sites[np.lexsort(sites.T[::-1])]


def lattice_in_box(spec: ProblemSpec, box: Box) -> np.ndarray:
    """The sites of Lambda in a box as a (count, b + d) int64 array, in
    lexicographic order: every c with sum c = 1, |c_k| <= n_radius and
    |j|_inf <= j_radius (n = -c, j = sum_k c_k j_k).

    No candidate grid is built.  c_1 .. c_{b-2} run over their grid, and
    each bound leaves an interval for c_{b-1}: its own, that of c_b =
    1 - sum_{k<b} c_k, and each j coordinate, affine in c_{b-1}.  n = -c
    orders the sites as c descending, so the grid and every interval run
    down.  The rows are counted before any is built: more than SITE_CAP of
    them, or a c_1 .. c_{b-2} grid of more than SITE_CAP, raises
    BoxTooLarge."""
    b, nr, jr = spec.b, box.n_radius, box.j_radius
    jmat = np.array(spec.j_list, dtype=np.int64).reshape(b, -1)
    if b == 1:  # Lambda is the seed site alone
        seed = np.concatenate([[-1], jmat[0]])[None]
        return seed[:int(nr >= 1 and np.abs(jmat[0]).max() <= jr)]
    grid = (2 * nr + 1) ** (b - 2)
    if grid > SITE_CAP:
        raise BoxTooLarge(f"Lambda in box {box} needs a grid of {grid} c-prefixes, "
                          f"past the cap of {SITE_CAP}")
    prefix = nr - np.indices((2 * nr + 1,) * (b - 2), dtype=np.int64).reshape(b - 2, grid).T
    rest = 1 - prefix.sum(axis=1)  # c_{b-1} + c_b
    lo, hi = np.maximum(-nr, rest - nr), np.minimum(nr, rest + nr)
    # j = base + c_{b-1} (j_{b-1} - j_b), per coordinate.
    base = jmat[b - 1] + prefix @ (jmat[:b - 2] - jmat[b - 1])
    for slope, at in zip((jmat[b - 2] - jmat[b - 1]).tolist(), base.T):
        if slope < 0:
            slope, at = -slope, -at
        if slope == 0:
            hi = np.where(np.abs(at) <= jr, hi, lo - 1)
        else:
            lo, hi = np.maximum(lo, -((jr + at) // slope)), np.minimum(hi, (jr - at) // slope)
    counts = np.maximum(hi - lo + 1, 0)
    total = int(counts.sum())
    if total > SITE_CAP:
        raise BoxTooLarge(f"Lambda in box {box} holds {total} sites, past the cap of {SITE_CAP}")
    rows = np.repeat(np.arange(grid), counts)
    step = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    free = np.column_stack([prefix[rows], hi[rows] - step])
    c = np.concatenate([free, 1 - free.sum(axis=1, keepdims=True)], axis=1)
    return np.concatenate([-c, c @ jmat], axis=1)


def lattice_generation(sites: np.ndarray, b: int) -> np.ndarray:
    """The generation of each row of a site array of Lambda: the sum of its
    positive n entries, which are the negative entries of its c = -n."""
    return np.maximum(sites[:, :b], 0).sum(axis=1)


def on_lattice(sites: np.ndarray, copies: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Whether each row of a site array, taken as the u-copy (copies +1) or
    the v-copy (-1), lies where the iteration moves it: a u-site on Lambda
    (sum n = -1) or a v-site on -Lambda (sum n = 1), j = -sum_k n_k j_k."""
    n, j = sites[:, :spec.b], sites[:, spec.b:]
    jmat = np.array(spec.j_list, dtype=np.int64).reshape(spec.b, -1)
    return (n.sum(axis=1) == -copies) & np.all(j == -(n @ jmat), axis=1)


def _lattice(spec: ProblemSpec, lo: int, hi: int) -> np.ndarray:
    """The sites sum_k c_k s_k (n = -c, j = sum_k c_k j_k) of every c with
    sum c = 1 and c_1 .. c_{b-1} in [lo, hi]."""
    b = spec.b
    free = np.indices((hi - lo + 1,) * (b - 1), dtype=np.int64).reshape(
        b - 1, (hi - lo + 1) ** (b - 1)).T + lo
    c = np.concatenate([free, 1 - free.sum(axis=1, keepdims=True)], axis=1)
    return np.concatenate([-c, c @ np.array(spec.j_list, dtype=np.int64).reshape(b, -1)],
                          axis=1)
