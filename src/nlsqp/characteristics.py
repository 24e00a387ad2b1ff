"""Bi-characteristic geometry of the linear flow.

The characteristic variety C = {(n, j) : +-n.w0 + |j|^2 = 0} splits into a
C+ branch (carrying the u-component of the doubled system) and a C- branch
(the v-component); sites with j = 0 and n.w0 = 0 satisfy both equations and
are assigned by the sign of n_1.  On top of the variety live the difference
classes C^{++}, C^{+-}, C^{-+}, C^{--}, the convexity partition of Z^d, and
the connectivity graph induced by the convolution symbols of the linearized
operator.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
)


class CharClass(enum.Enum):
    CPLUS = "C+"
    CMINUS = "C-"
    OFF = "off"


# The most sites a truncation box may hold: every operator, variety and
# graph is built from the site array of its box.
SITE_CAP = 2_000_000


def enumerate_box_sites(b: int, d: int, box: Box) -> np.ndarray:
    """Every site of the box as a (count, b + d) int64 array in lexicographic
    order, which is also the order of the box's linear index.  A box of
    more than SITE_CAP sites raises BoxTooLarge before anything is built."""
    _check_site_cap(b, d, box)
    ranges = ([np.arange(-box.n_radius, box.n_radius + 1)] * b
              + [np.arange(-box.j_radius, box.j_radius + 1)] * d)
    out = np.empty([len(r) for r in ranges] + [b + d], dtype=np.int64)
    for axis, values in enumerate(np.ix_(*ranges)):  # broadcast, not copied per axis
        out[..., axis] = values
    return out.reshape(-1, b + d)


def _check_site_cap(b: int, d: int, box: Box):
    """Raise BoxTooLarge if the box holds more than SITE_CAP sites."""
    total = box.site_count(b, d)
    if total > SITE_CAP:
        raise BoxTooLarge(
            f"box holds {total} sites, exceeding the cap of {SITE_CAP}")


def box_strides(b: int, d: int, box: Box) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis radii of the box and the strides of its linear index: the
    site x has index (x + radii) . strides."""
    radii = np.array([box.n_radius] * b + [box.j_radius] * d, dtype=np.int64)
    sizes = 2 * radii + 1
    strides = np.ones(b + d, dtype=np.int64)
    for i in range(b + d - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return radii, strides


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


@dataclass
class BoxVariety:
    """What the resonance graphs and certificates of a box read that does
    not move with the Newton iterate.  coords is the box's site array and
    resonant the mask of its doubled indices (box index, plus the site
    count for a v-copy) with a vanishing seed diagonal (`branch_tags`).
    Those are the vertices: the n_tagged graph vertices (u-copies of C+
    sites, v-copies of C- sites, lexicographic), then the other copy of
    each with j = 0; vertices and copies (+1 u, -1 v; int8) give their site
    and copy, and vertex_of maps a doubled index to its vertex, else -1."""

    box: Box
    coords: np.ndarray
    resonant: np.ndarray
    vertices: np.ndarray
    copies: np.ndarray
    n_tagged: int
    vertex_of: np.ndarray


def box_variety(omega0: FrequencyVector, d: int, box: Box) -> BoxVariety:
    """The `BoxVariety` of a box; a box of more than SITE_CAP sites raises
    BoxTooLarge."""
    b = len(omega0)
    coords = enumerate_box_sites(b, d, box)
    tags, resonant = branch_tags(coords, omega0)
    on = np.nonzero(tags)[0]
    twin = on[~coords[on, b:].any(axis=1)]
    vertices = np.concatenate([coords[on], coords[twin]])
    copies = np.concatenate([tags[on], -tags[twin]])
    radii, strides = box_strides(b, d, box)
    vertex_of = np.full(2 * len(coords), -1, dtype=np.int64)
    vertex_of[(vertices + radii) @ strides + len(coords) * (copies < 0)] = \
        np.arange(len(vertices))
    return BoxVariety(box=box, coords=coords, resonant=resonant, vertices=vertices,
                      copies=copies, n_tagged=len(on), vertex_of=vertex_of)


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
    omega0: FrequencyVector,
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
    """
    eps1, eps2 = _eps(class_pair[0]), _eps(class_pair[1])
    w = omega0.as_ints()
    d = delta.d
    dn_w = sum(a * b for a, b in zip(delta.n, w))
    dj = delta.j
    djsq = sum(a * a for a in dj)

    # Every branch leaves the candidates unique and sorted by (l1 norm, j').
    candidates: Sequence[Tuple[int, ...]] = ()
    exhaustive = True  # did we enumerate every possible j'?

    if eps1 == eps2:
        c = djsq - eps1 * dn_w
        if all(x == 0 for x in dj):
            if c != 0:
                return Membership("no", reason="pure time shift off the kernel of w0")
            # Any j' works arithmetically; search small representatives.
            candidates = _small_j_candidates(d, search_radius)
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
            candidates = hyperplane_points(dj, c, search_radius)
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


@functools.lru_cache(maxsize=16)
def _small_j_candidates(d: int, radius: int) -> Tuple[Tuple[int, ...], ...]:
    """Every j' with |j'|_inf <= radius, sorted by (l1 norm, j').  Built once
    per (d, radius) and shared by every membership search."""
    return tuple(sorted(itertools.product(range(-radius, radius + 1), repeat=d),
                        key=lambda jp: (sum(abs(x) for x in jp), jp)))


@functools.lru_cache(maxsize=16)
def _small_j_table(d: int, radius: int) -> np.ndarray:
    """`_small_j_candidates` as a read-only (count, d) int64 array."""
    table = np.array(_small_j_candidates(d, radius), dtype=np.int64).reshape(-1, d)
    table.setflags(write=False)  # shared by every search through the cache
    return table


def hyperplane_points(normal: Sequence[int], c: int, radius: int
                      ) -> List[Tuple[int, ...]]:
    """Every j with |j|_inf <= radius on the hyperplane 2 j.normal = c, in
    the order of `_small_j_candidates`."""
    table = _small_j_table(len(normal), radius)
    hits = table[2 * (table @ np.array(normal, dtype=np.int64)) == c]
    return [tuple(j) for j in hits.tolist()]


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


def verify_diff_witness(
    delta: SiteIndex,
    omega0: FrequencyVector,
    class_pair: Tuple[CharClass, CharClass],
    witness: Tuple[SiteIndex, SiteIndex],
) -> bool:
    s1, s2 = witness
    return (classify_site(s1, omega0) is class_pair[0]
            and classify_site(s2, omega0) is class_pair[1]
            and (s1 - s2) == delta)


# ---------------------------------------------------------------------------
# Convexity partition of the spatial lattice


@dataclass
class Partition:
    B: float
    blocks: List[List[Tuple[int, ...]]]
    diameters: List[int]
    c0_hat: float

    def block_of(self) -> Dict[Tuple[int, ...], int]:
        return {j: i for i, blk in enumerate(self.blocks) for j in blk}


def build_partition(B: float, d: int, j_radius: int) -> Partition:
    """Connected components of |j - j'|_1 + ||j|^2 - |j'|^2| <= B on the box.

    Cross-block separation > B then holds by construction; block diameters
    are measured and reported (never assumed).
    """
    if B <= 0:
        raise ValueError("partition scale B must be positive")
    pts = [tuple(v) for v in itertools.product(range(-j_radius, j_radius + 1), repeat=d)]
    arr = np.array(pts, dtype=np.int64)
    jsq = np.sum(arr * arr, axis=1)
    m = len(pts)
    # Pairwise proximity, a block of rows at a time to bound memory.
    pairs = []
    for lo in range(0, m, 256):
        dist = (np.sum(np.abs(arr[lo:lo + 256, None, :] - arr[None, :, :]), axis=2)
                + np.abs(jsq[lo:lo + 256, None] - jsq[None, :]))
        pairs.append(np.argwhere(dist <= B) + [lo, 0])
    rows, cols = np.concatenate(pairs).T
    _, order, bounds = ordered_components(m, rows, cols)
    flat, cuts = order.tolist(), bounds.tolist()
    blocks = [[pts[i] for i in flat[a:z]] for a, z in zip(cuts[:-1], cuts[1:])]
    diameters = _l1_diameters(arr, order, bounds).tolist()
    c0 = max((math.log(dm) / math.log(B) for dm in diameters if dm >= 1 and B > 1),
             default=0.0)
    return Partition(B=B, blocks=blocks, diameters=diameters, c0_hat=c0)


def ordered_components(n: int, rows: np.ndarray, cols: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of the graph on range(n) with edges rows[k] --
    cols[k], numbered by their smallest vertex.

    Returns the component label of each vertex, the vertices sorted by
    (label, vertex), and the bounds of each component in that order:
    component c is order[bounds[c]:bounds[c + 1]], members ascending.
    """
    low, _ = _min_labels(n, rows, cols)
    _, labels = np.unique(low, return_inverse=True)
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


def _l1_diameters(coords: np.ndarray, order: np.ndarray, bounds: np.ndarray
                 ) -> np.ndarray:
    """Largest l1 distance between two rows of coords in each component of
    `ordered_components`.

    |x - y|_1 is the largest s.(x - y) over sign vectors s, so a diameter is
    the largest spread of one projection s.x over the component; sign
    vectors up to a global flip suffice.
    """
    dim = coords.shape[1]
    signs = np.array([(1,) + t for t in itertools.product((1, -1), repeat=dim - 1)],
                     dtype=np.int64)
    proj = (coords @ signs.T)[order]
    starts = bounds[:-1]
    spread = np.maximum.reduceat(proj, starts) - np.minimum.reduceat(proj, starts)
    return spread.max(axis=1)


# ---------------------------------------------------------------------------
# Convolution symbols and the resonance graph


@dataclass
class ConvolutionSymbols:
    """The three distinct convolution symbols of the linearized operator:

    diag : (p+1) (u*v)^{*p}           (same-branch couplings)
    uu   : p (u*v)^{*(p-1)} * u * u   (u-row to v-column)
    vv   : p (u*v)^{*(p-1)} * v * v   (v-row to u-column)

    Stored without the (p+1) / p prefactors; amplitudes carry them.
    """

    uv_p: SparseSeries
    uu: SparseSeries
    vv: SparseSeries
    p: int

    @classmethod
    def from_fields(cls, u: SparseSeries, v: SparseSeries, p: int) -> "ConvolutionSymbols":
        uv = convolve(u, v)
        uv_pm1 = conv_power(uv, p - 1)
        uu = convolve(uv_pm1, convolve(u, u))
        return cls(uv_p=convolve(uv_pm1, uv), uu=uu, vv=conjugate_flip(uu), p=p)


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


def resonance_graph(
    u: SparseSeries,
    v: SparseSeries,
    spec: ProblemSpec,
    omega0: FrequencyVector,
    box: Box,
    symbols: Optional[ConvolutionSymbols] = None,
) -> ResonanceGraph:
    """Connectivity of characteristic sites under the operator symbols.

    An edge joins x and y when the symbol selected by their branch tags is
    supported at x - y: the diagonal symbol for equal tags, uu for x in C+
    against y in C-, vv for the mirror pairing.  The symbols are those of
    (u, v) unless given.

    Each kind of edge is found in one array pass over all vertices and
    shifts, through a lookup from box index to vertex number
    (`resonance_links`).  Components are numbered by their smallest vertex
    with members ascending, so the order of the links and their repeats
    change nothing.
    """
    if symbols is None:
        symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    variety = box_variety(omega0, spec.d, box)
    b, nv = len(omega0), variety.n_tagged
    coords, tags = variety.vertices[:nv], variety.copies[:nv]
    found = resonance_links(variety, np.arange(nv), symbols)
    found = found[:, found[1] < nv]  # the j = 0 twins are not graph vertices
    labels, order, bounds = ordered_components(nv, found[0], found[1])
    return ResonanceGraph(vertices=coords, tags=tags, labels=labels, order=order,
                          bounds=bounds, spiral_pairs=_spiral_pairs(coords[:, b:], tags, labels))


def resonance_links(variety: BoxVariety, src: np.ndarray, symbols: ConvolutionSymbols
                    ) -> np.ndarray:
    """The links of `resonance_graph`'s rule from the variety's vertices
    src to any of its vertices, as a (2, count) array of (src vertex, other
    vertex) columns: one array pass over src and the shifts of each kind of
    link, through the variety's lookup from doubled index to vertex."""
    b, d = symbols.uv_p.b, symbols.uv_p.d
    radii, strides = box_strides(b, d, variety.box)
    ns = len(variety.coords)
    coords, tags, vertex_of = variety.vertices, variety.copies, variety.vertex_of

    def links(shifts: List[SiteIndex], src_tag: int, dst_tag: int):
        own = src[tags[src] == src_tag]
        sv = np.array([s.n + s.j for s in shifts], dtype=np.int64).reshape(-1, b + d)
        y = coords[own][:, None, :] - sv[None, :, :]
        inside = np.all(np.abs(y) <= radii, axis=2)
        k = vertex_of[(y[inside] + radii) @ strides + (ns if dst_tag < 0 else 0)]
        i = np.broadcast_to(own[:, None], inside.shape)[inside]
        return np.stack([i[k >= 0], k[k >= 0]])  # k = -1: no vertex there

    diag_shifts = [s for s in symbols.uv_p.support() if not s.is_zero()]
    return np.concatenate([links(diag_shifts, 1, 1), links(diag_shifts, -1, -1),
                           links(symbols.uu.support(), 1, -1),
                           links(symbols.vv.support(), -1, 1)], axis=1)


def _spiral_pairs(jarr: np.ndarray, tags: np.ndarray, labels: np.ndarray
                  ) -> np.ndarray:
    """Per component, the first vertex (in ascending order) that shares its
    tag and j with an earlier one, paired with the first such earlier
    vertex, as a (count, 2) array in component order.  Distinct vertices
    with equal tag and j differ in n."""
    keys = np.column_stack([labels, tags, jarr])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    first = first[inverse.ravel()]
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


def box_lattice_radius(spec: ProblemSpec, box: Box) -> int:
    """The smallest R whose Lambda_R holds every site of Lambda in the box.
    A box of more than SITE_CAP sites raises BoxTooLarge."""
    _check_site_cap(spec.b, spec.d, box)
    sites = _lattice(spec, -box.n_radius, box.n_radius)
    radii = np.array([box.n_radius] * spec.b + [box.j_radius] * spec.d)
    inside = np.all(np.abs(sites) <= radii, axis=1)
    return int(lattice_generation(sites[inside], spec.b).max(initial=0))


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
    free = np.array(list(itertools.product(range(lo, hi + 1), repeat=b - 1)), dtype=np.int64)
    c = np.concatenate([free, 1 - free.sum(axis=1, keepdims=True)], axis=1)
    return np.concatenate([-c, c @ np.array(spec.j_list, dtype=np.int64).reshape(b, -1)],
                          axis=1)
