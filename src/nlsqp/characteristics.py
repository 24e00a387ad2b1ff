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
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


def classify_site(s: SiteIndex, omega0: FrequencyVector) -> CharClass:
    """Branch membership of a site, with the j = 0 tie broken on sign(n_1).

    C+ : n.w0 + |j|^2 = 0 with j != 0, or j = 0, n.w0 = 0, n_1 <= 0.
    C- : -n.w0 + |j|^2 = 0 with j != 0, or j = 0, n.w0 = 0, n_1 > 0.
    """
    w = omega0.as_ints()
    nw = sum(ni * wi for ni, wi in zip(s.n, w))
    jsq = s.jsq()
    if any(c != 0 for c in s.j):
        if nw + jsq == 0:
            return CharClass.CPLUS
        if -nw + jsq == 0:
            return CharClass.CMINUS
        return CharClass.OFF
    if nw != 0:
        return CharClass.OFF
    return CharClass.CPLUS if s.n[0] <= 0 else CharClass.CMINUS


def characteristic_set(
    omega0: FrequencyVector,
    d: int,
    box: Box,
    site_cap: int = 2_000_000,
) -> List[Tuple[SiteIndex, CharClass]]:
    """All characteristic sites in the box, tagged, in lexicographic order."""
    b = len(omega0)
    total = box.site_count(b, d)
    if total > site_cap:
        raise BoxTooLarge(
            f"box holds {total} sites, exceeding the cap of {site_cap}")
    w = np.array(omega0.as_ints(), dtype=np.int64)
    n_range = np.arange(-box.n_radius, box.n_radius + 1, dtype=np.int64)
    j_range = np.arange(-box.j_radius, box.j_radius + 1, dtype=np.int64)
    grids = np.meshgrid(*([n_range] * b + [j_range] * d), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)  # lex order
    narr, jarr = coords[:, :b], coords[:, b:]
    nw = narr @ w
    jsq = np.sum(jarr * jarr, axis=1)
    jzero = np.all(jarr == 0, axis=1)
    plus = (~jzero & (nw + jsq == 0)) | (jzero & (nw == 0) & (narr[:, 0] <= 0))
    minus = (~jzero & (-nw + jsq == 0)) | (jzero & (nw == 0) & (narr[:, 0] > 0))
    out: List[Tuple[SiteIndex, CharClass]] = []
    for idx in np.nonzero(plus | minus)[0]:
        s = SiteIndex(tuple(int(x) for x in narr[idx]), tuple(int(x) for x in jarr[idx]))
        out.append((s, CharClass.CPLUS if plus[idx] else CharClass.CMINUS))
    return out


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
            candidates = [jp for jp in _small_j_candidates(d, search_radius)
                          if 2 * sum(a * b for a, b in zip(jp, dj)) == c]
            exhaustive = False
    else:
        rhs = -djsq - 2 * eps1 * dn_w
        if rhs < 0:
            return Membership("no", reason="sphere constraint is empty")
        root = math.isqrt(rhs)
        if root > 4 * search_radius:
            return Membership("unknown", reason="sphere radius exceeds the search bound")
        # Enumerate 2j' - dj on the sphere of squared radius rhs; coordinates
        # must match the parity of dj.
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
            return Membership("no", reason="no lattice point on the sphere")

    kernel = _intlinalg.kernel_basis([list(w)])
    for jp in candidates:
        jpp = tuple(a - b for a, b in zip(jp, dj))
        wit = _complete_witness(jp, jpp, delta, w, eps1, eps2, kernel)
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


def _complete_witness(jp, jpp, delta, w, eps1, eps2, kernel):
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

    shifts = [tuple(0 for _ in w)]
    for r in range(1, 4):
        for combo in itertools.product(range(-r, r + 1), repeat=len(kernel)):
            if max((abs(c) for c in combo), default=0) != r:
                continue
            shifts.append(tuple(sum(c * k[i] for c, k in zip(combo, kernel))
                                for i in range(len(w))))
    for sh in shifts:
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
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # Pairwise proximity, vectorized one row at a time to bound memory.
    for i in range(m):
        dist = np.sum(np.abs(arr[i + 1:] - arr[i]), axis=1) + np.abs(jsq[i + 1:] - jsq[i])
        for off in np.nonzero(dist <= B)[0]:
            union(i, i + 1 + int(off))

    groups: Dict[int, List[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    blocks, diameters = [], []
    for root in sorted(groups):
        idxs = groups[root]
        blocks.append(sorted(pts[i] for i in idxs))
        sub = arr[idxs]
        diam = 0
        for i in range(len(idxs)):
            diam = max(diam, int(np.max(np.sum(np.abs(sub - sub[i]), axis=1))))
        diameters.append(diam)
    c0 = 0.0
    if B > 1:
        for dm in diameters:
            if dm >= 1:
                c0 = max(c0, math.log(dm) / math.log(B))
    return Partition(B=B, blocks=blocks, diameters=diameters, c0_hat=c0)


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

    def interaction_range(self) -> int:
        r = 0
        for series in (self.uv_p, self.uu, self.vv):
            for s in series.support():
                r = max(r, s.l1())
        return r


@dataclass
class Component:
    indices: List[int]
    size: int
    diameter: int
    # Two same-branch vertices sharing j but not n, if present: the geometric
    # signature of a non-spiral violation inside the box.
    spiral_pair: Optional[Tuple[int, int]] = None


@dataclass
class ResonanceGraph:
    vertices: List[Tuple[SiteIndex, CharClass]]
    edges: List[Tuple[int, int]]
    components: List[Component]
    interaction_range: int
    symbols: ConvolutionSymbols

    def has_spiral_pair(self) -> bool:
        return any(c.spiral_pair is not None for c in self.components)

    def max_component_size(self) -> int:
        return max((c.size for c in self.components), default=0)


def resonance_graph(
    u: SparseSeries,
    v: SparseSeries,
    spec: ProblemSpec,
    omega0: FrequencyVector,
    box: Box,
    site_cap: int = 2_000_000,
) -> ResonanceGraph:
    """Connectivity of characteristic sites under the operator symbols.

    An edge joins x and y when the symbol selected by their branch tags is
    supported at x - y: the diagonal symbol for equal tags, uu for x in C+
    against y in C-, vv for the mirror pairing.
    """
    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    vertices = characteristic_set(omega0, spec.d, box, site_cap=site_cap)
    index: Dict[SiteIndex, int] = {s: i for i, (s, _) in enumerate(vertices)}
    tags = [t for _, t in vertices]

    diag_shifts = [s for s in symbols.uv_p.support() if not s.is_zero()]
    uu_shifts = symbols.uu.support()
    vv_shifts = symbols.vv.support()

    edges: Set[Tuple[int, int]] = set()
    for i, (x, tag) in enumerate(vertices):
        same = diag_shifts
        cross = uu_shifts if tag is CharClass.CPLUS else vv_shifts
        want_cross = CharClass.CMINUS if tag is CharClass.CPLUS else CharClass.CPLUS
        for shift in same:
            y = x - shift
            k = index.get(y)
            if k is not None and tags[k] is tag:
                edges.add((min(i, k), max(i, k)))
        for shift in cross:
            y = x - shift
            k = index.get(y)
            if k is not None and tags[k] is want_cross:
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

    groups: Dict[int, List[int]] = {}
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
        seen: Dict[Tuple[CharClass, Tuple[int, ...]], int] = {}
        for i in idxs:
            s, t = vertices[i]
            key = (t, s.j)
            if key in seen and vertices[seen[key]][0].n != s.n:
                pair = (seen[key], i)
                break
            seen.setdefault(key, i)
        comps.append(Component(indices=idxs, size=len(idxs), diameter=diam,
                               spiral_pair=pair))

    return ResonanceGraph(
        vertices=vertices,
        edges=sorted(edges),
        components=comps,
        interaction_range=symbols.interaction_range(),
        symbols=symbols,
    )
