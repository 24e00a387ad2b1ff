"""Bi-characteristic geometry of the linear flow.

The characteristic variety C = {(n, j) : +-n.w0 + |j|^2 = 0} splits into a
C+ branch (carrying the u-component of the doubled system) and a C- branch
(the v-component); sites with j = 0 and n.w0 = 0 satisfy both equations and
are assigned by the sign of n_1.  On top of the variety live the difference
classes C^{++}, C^{+-}, C^{-+}, C^{--} and the connectivity graph induced
by the convolution symbols of the linearized operator.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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
    exact while the spans' product fits in int64.  For the package's keys it
    does: a graph's (label, tag, j) rows span at most 4e6 x 3 x 2e6 (its
    grid is under SITE_CAP), and site differences in a box under SITE_CAP
    span 4r + 1 <= (2r + 1)^2 per axis.  Past int64 the ids are dense ranks."""
    cols = np.ascontiguousarray(rows.T)  # whole-column passes run several times faster
    lo = cols.min(axis=1)
    spans = (cols.max(axis=1) - lo + 1).tolist()
    if math.prod(spans) > np.iinfo(np.int64).max:
        order = np.lexsort(cols[::-1])
        ranks = np.cumsum(np.any(np.diff(rows[order], axis=0) != 0, axis=1))
        return np.concatenate([[0], ranks])[np.argsort(order)]
    return np.cumprod([1] + spans[:0:-1])[::-1] @ (cols - lo[:, None])


def branch_tags(coords: np.ndarray, omega0: FrequencyVector
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Branch membership of the rows of a (count, b + d) site array: the
    tags, +1 on C+ (n.w0 + |j|^2 = 0), -1 on C- (-n.w0 + |j|^2 = 0) and 0
    off the variety, with C+ at j = 0 for n_1 <= 0 and C- for n_1 > 0; and
    the two branch equations themselves, without that tie-break,
    concatenated into one (2 count,) mask."""
    w0 = omega0.as_ints()
    b = len(w0)
    cols = coords.T  # column by column: rows are too short to reduce fast
    nw = sum(w * n for w, n in zip(w0, cols[:b]))
    jsq = sum(j * j for j in cols[b:])
    plus_eq, minus_eq = nw + jsq == 0, -nw + jsq == 0
    # At j = 0 both equations read n.w0 = 0; sign(n_1) picks the branch.
    free = jsq != 0
    tags = np.zeros(len(coords), dtype=np.int8)
    tags[plus_eq & (free | (cols[0] <= 0))] = 1
    tags[minus_eq & (free | (cols[0] > 0))] = -1
    return tags, np.concatenate([plus_eq, minus_eq])


# The class of each tag of `branch_tags`.
TAG_CLASS = {1: CharClass.CPLUS, -1: CharClass.CMINUS, 0: CharClass.OFF}


def classify_site(s: SiteIndex, omega0: FrequencyVector) -> CharClass:
    """`branch_tags` on one site."""
    tags, _ = branch_tags(np.array([s.n + s.j], dtype=np.int64), omega0)
    return TAG_CLASS[int(tags[0])]


# ---------------------------------------------------------------------------
# Difference classes


@dataclass(frozen=True)
class Membership:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[Tuple[SiteIndex, SiteIndex]] = None
    reason: str = ""


def _eps(cls: CharClass) -> int:
    if cls is CharClass.CPLUS:
        return 1
    if cls is CharClass.CMINUS:
        return -1
    raise ValueError("difference classes are defined for C+ / C- only")


def diff_class_member(
    delta: SiteIndex,
    omega0: FrequencyVector | Tuple[int, ...],
    class_pair: Tuple[CharClass, CharClass],
    search_radius: int = 30,
) -> Membership:
    """Decide delta in {s' - s'' : s' in C^a, s'' in C^b} over the full lattice.

    Intersecting the two branch equations leaves a single constraint on the
    j-coordinate of s': linear in j' when the classes agree, a sphere when
    they differ.  Each integer solution j' is then completed (or not) by an
    integer n' with n'.w0 = -eps * |j'|^2; the j = 0 sign conditions are
    honored by shifting n' along the kernel of w0.  Exhausting the bounded
    search without a certificate in either direction yields "unknown".

    omega0 is the seed frequencies or their ints (`as_ints()`), which a
    caller deciding many deltas reads once.  The bounded searches try the
    j' with |j'|_inf <= search_radius in (l1 norm, j') order, one block of
    `_small_j_blocks` at a time: a pure time shift tries every row, the
    hyperplane 2 j'.dj = c the rows that one float64 product over the
    block's columns keeps.
    """
    eps1, eps2 = _eps(class_pair[0]), _eps(class_pair[1])
    w = omega0 if isinstance(omega0, tuple) else omega0.as_ints()
    d = delta.d
    dn_w = sum(a * b for a, b in zip(delta.n, w))
    dj = delta.j
    djsq = sum(a * a for a in dj)

    # Every branch leaves the candidates unique and sorted by (l1 norm, j').
    candidates: Iterable[Tuple[int, ...]] = ()
    exhaustive = True  # did we enumerate every possible j'?

    if eps1 == eps2:
        c = djsq - eps1 * dn_w
        if all(x == 0 for x in dj):
            if c != 0:
                return Membership("no", reason="pure time shift off the kernel of w0")
            # Any j' works arithmetically; search small representatives,
            # each row read when it is tried.
            candidates = (tuple(jp.tolist()) for block, _ in _small_j_blocks(d, search_radius)
                          for jp in block)
            exhaustive = False
        elif d == 1:
            twice = 2 * dj[0]
            if c % twice == 0:
                candidates = [(c // twice,)]
            else:
                return Membership("no", reason="linear constraint has no integer solution")
        else:
            g = _intlinalg.vector_gcd([2 * x for x in dj])
            if c % g != 0:
                return Membership("no", reason="linear constraint has no integer solution")
            # The hyperplane j'.dj = c / 2 (g is even).  The products are
            # sums of integers far below 2^53, so exact in float64.
            half, djf = c // 2, np.array(dj, dtype=np.float64)
            candidates = (tuple(jp) for block, cols in _small_j_blocks(d, search_radius)
                          for jp in block[djf @ cols == half].tolist())
            exhaustive = False
    else:
        rhs = -djsq - 2 * eps1 * dn_w
        if rhs < 0:
            return Membership("no", reason="sphere constraint is empty")
        if math.isqrt(rhs) > 4 * search_radius:
            return Membership("unknown", reason="sphere radius exceeds the search bound")
        candidates = sorted(sphere_points(dj, rhs),
                            key=lambda jp: (sum(abs(x) for x in jp), jp))
        if not candidates:
            return Membership("no", reason="no lattice point on the sphere")

    for jp in candidates:
        jpp = tuple(a - b for a, b in zip(jp, dj))
        wit = _complete_witness(jp, jpp, delta, w, eps1, eps2)
        if wit is not None:
            return Membership("yes", witness=wit)
    if exhaustive:
        return Membership("no", reason="all solutions fail the frequency divisibility")
    return Membership("unknown", reason="bounded j search exhausted")


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
def kernel_shifts(w: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """The n-shifts along the integer kernel of w tried when a j is lifted
    to a site: zero, then the kernel-basis combinations whose largest
    coefficient is 1, 2 and 3 in turn."""
    kernel = _intlinalg.kernel_basis([list(w)])
    shifts = [tuple(0 for _ in w)]
    for r in range(1, 4):
        for combo in itertools.product(range(-r, r + 1), repeat=len(kernel)):
            if max((abs(c) for c in combo), default=0) != r:
                continue
            shifts.append(tuple(sum(c * k[i] for c, k in zip(combo, kernel))
                                for i in range(len(w))))
    return tuple(shifts)


def _complete_witness(jp, jpp, delta, w, eps1, eps2):
    """Find n' realizing s' = (n', jp) in the eps1 branch with s'' = s' - delta
    in the eps2 branch, or None."""
    target = -eps1 * sum(a * a for a in jp)
    base = _intlinalg.solve_dot(w, target)
    if base is None:
        return None

    def ok(nvec) -> bool:
        n1 = nvec[0]
        if all(x == 0 for x in jp):
            if (eps1 == 1 and n1 > 0) or (eps1 == -1 and n1 <= 0):
                return False
        n2 = tuple(a - b for a, b in zip(nvec, delta.n))
        if all(x == 0 for x in jpp):
            if (eps2 == 1 and n2[0] > 0) or (eps2 == -1 and n2[0] <= 0):
                return False
        return True

    for sh in kernel_shifts(w):
        cand = tuple(a + b for a, b in zip(base, sh))
        if ok(cand):
            s1 = SiteIndex(cand, tuple(jp))
            return s1, s1 - delta
    return None


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
    and tags is (n_vertices,) int8, +1 on C+ and -1 on C-.  labels, order
    and bounds are those of `ordered_components`: component c is
    order[bounds[c]:bounds[c + 1]], numbered by its smallest vertex with
    members ascending.  spiral_pairs is (count, 2) int64, in component
    order: for each component holding two same-branch vertices that share
    j but not n (the geometric signature of a non-spiral violation inside
    the box), the first such pair, earlier vertex first.
    """

    vertices: np.ndarray
    tags: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    spiral_pairs: np.ndarray


def resonance_graph(spec: ProblemSpec, box: Box,
                    symbols: Optional[ConvolutionSymbols] = None) -> ResonanceGraph:
    """Connectivity of characteristic sites under the operator symbols.

    The vertices are the u-copies of the box's C+ sites and the v-copies of
    its C- sites (`branch_tags` at the seed frequencies), solved from the
    branch equations over the box's (n_1 .. n_{b-1}, j) grid, which SITE_CAP
    bounds: sigma's n_b = (-sigma |j|^2 - sum_{k<b} w0_k n_k) / w0_b, kept
    where an integer within n_radius (at j = 0, n_1 <= 0 is C+), rows sorted
    by `row_keys`.  An edge joins x and y when the symbol selected by their
    tags is supported at x - y: the diagonal symbol for equal tags, uu for x
    in C+ against y in C-, vv for the mirror pairing (`resonance_links`).
    The symbols are the seed's unless given.  Components are numbered by
    their smallest vertex with members ascending, so the order of the links
    and their repeats change nothing.
    """
    symbols = symbols or seed_symbols(spec)
    b, w = spec.b, np.array(spec.omega0().as_ints(), dtype=np.int64)
    grid = enumerate_box_sites(b - 1, spec.d, box)
    jsq = (grid[:, b - 1:] ** 2).sum(axis=1)
    # Row 0 solves C+ (sigma = 1), row 1 C- (sigma = -1).
    nb, left = np.divmod(np.outer([-1, 1], jsq) - grid[:, :b - 1] @ w[:-1], w[-1])
    tie = (jsq != 0) | (((grid[:, 0] if b > 1 else nb) <= 0) == [[True], [False]])
    branch, at = np.nonzero((left == 0) & (np.abs(nb) <= box.n_radius) & tie)
    coords = np.concatenate([grid[at, :b - 1], nb[branch, at, None], grid[at, b - 1:]], axis=1)
    order = np.argsort(row_keys(coords))  # the origin is a C+ site: never empty
    coords, tags = coords[order], (1 - 2 * branch[order]).astype(np.int8)
    found = resonance_links(box, coords, tags, symbols)
    labels, order, bounds = ordered_components(len(coords), found[0], found[1])
    return ResonanceGraph(vertices=coords, tags=tags, labels=labels, order=order,
                          bounds=bounds,
                          spiral_pairs=_spiral_pairs(coords[:, spec.b:], tags, labels))


def resonance_links(box: Box, vertices: np.ndarray, copies: np.ndarray,
                    symbols: ConvolutionSymbols) -> np.ndarray:
    """The links of `resonance_graph`'s rule between the vertices, the
    copies copies[i] (+1 u, -1 v) of the rows vertices[i] of a site array in
    the box, as a (2, count) array of (vertex, other vertex) columns: one
    array pass over the u-copies and their shifts (uv_p to u, uu to v), one
    over the v-copies (uv_p, vv).

    Each vertex is looked up by its doubled index among the sorted ones:
    its index in the box of thrice the radii, plus that box's site count
    for a v-copy.  Shifts past twice the radii link no two box sites and are
    dropped, so x - s stays in the tripled box, where its index is no other
    site's: no test of the box faces, and O(vertices x shifts) memory.
    6r + 1 <= (2r + 1)^2, so under SITE_CAP indices stay below 8e12; a box
    whose doubled indices would pass int64 (one `resonance_graph` reads
    through its grid alone) raises BoxTooLarge."""
    b, d = symbols.uv_p.b, symbols.uv_p.d
    radii, _ = box_strides(b, d, box)
    wide = Box(3 * box.n_radius, 3 * box.j_radius)
    wide_radii, strides = box_strides(b, d, wide)
    ns = wide.site_count(b, d)
    if 2 * ns > np.iinfo(np.int64).max:
        raise BoxTooLarge(f"box {box} has indices past int64 in its tripled box")
    index = (vertices + wide_radii) @ strides  # x - s has index(x) - s . strides
    keys = index + ns * (copies < 0)
    rank = np.argsort(keys)
    keys = np.append(keys[rank], np.iinfo(np.int64).max)  # no query reaches the sentinel

    def offsets(shifts: List[SiteIndex], dst_tag: int) -> np.ndarray:
        """s . strides of the kept shifts, less the v-copies' key offset."""
        sv = np.array([s.n + s.j for s in shifts], dtype=np.int64).reshape(-1, b + d)
        sv = sv[np.all(np.abs(sv) <= 2 * radii, axis=1)]
        return sv @ strides - (ns if dst_tag < 0 else 0)

    diag = offsets([s for s in symbols.uv_p.support() if not s.is_zero()], 1)
    found = []
    for tag, cross in ((1, symbols.uu), (-1, symbols.vv)):
        own = np.nonzero(copies == tag)[0]
        shift = np.concatenate([diag - ns * (tag < 0), offsets(cross.support(), -tag)])
        # Shift-major, so each shift's queries ascend with the vertices'
        # index: searchsorted takes sorted queries about twice as fast.
        query = index[own][None, :] - shift[:, None]
        pos = np.searchsorted(keys, query)
        hit = keys[pos] == query
        found.append(np.stack([np.broadcast_to(own, query.shape)[hit], rank[pos[hit]]]))
    return np.concatenate(found, axis=1)


def _spiral_pairs(jarr: np.ndarray, tags: np.ndarray, labels: np.ndarray
                  ) -> np.ndarray:
    """Per component, the first vertex (in ascending order) that shares its
    tag and j with an earlier one, paired with the first such earlier
    vertex, as a (count, 2) array in component order.  Distinct vertices
    with equal tag and j differ in n.  The (label, tag, j) rows are compared
    by their `row_keys`."""
    keys = row_keys(np.column_stack([labels, tags, jarr]))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = first[inverse]
    second = np.nonzero(first != np.arange(len(labels)))[0]
    _, head = np.unique(labels[second], return_index=True)  # smallest repeat per component
    return np.stack([first[second[head]], second[head]], axis=1)


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
