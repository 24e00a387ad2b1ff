"""Sparse Fourier series on the product lattice Z^b x Z^d.

A space-time series  u(t, x) = sum_{(n,j)} u_hat(n, j) e^{i n.w t} e^{i j.x}
is stored as a finite map from lattice sites (n, j) to complex amplitudes.
Everything downstream (error terms, linearized operators, admissibility
checks) is generated by three operations on these maps: convolution, which
represents pointwise products of series, convolution powers, and the
conjugate flip (n, j) -> (-n, -j) representing complex conjugation.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# Relative threshold below which post-convolution amplitudes are treated as
# cancellation noise and dropped.
DROP_TOL = 1e-14

# Convolutions key sites by packed integers: coordinate i of the b + d
# coordinates (n then j) is field i, most significant first, each 64 bits
# wide and holding the coordinate plus 2^63.  Integer order is then the
# lexicographic order of the sites.  A convolved series keeps every
# coordinate below FIELD_LIMIT in modulus, so the fields of a sum of two
# sites stay in range and never carry into one another.
FIELD_LIMIT = 1 << 62


class LatticeError(ValueError):
    pass


class SpecError(LatticeError):
    """Invalid problem data (zero mode, duplicate mode, bad amplitude...)."""


class DimensionMismatch(LatticeError):
    pass


class BoxTooLarge(RuntimeError):
    """Requested truncation box exceeds the configured site-count cap."""


class SiteIndex(NamedTuple):
    """A lattice point (n, j) in Z^b x Z^d.

    n indexes the time-frequency multi-index, j the spatial Fourier mode.
    Tuple comparison gives the lexicographic total order used for all
    deterministic iteration.
    """

    n: Tuple[int, ...]
    j: Tuple[int, ...]

    @property
    def b(self) -> int:
        return len(self.n)

    @property
    def d(self) -> int:
        return len(self.j)

    def __add__(self, other: "SiteIndex") -> "SiteIndex":  # type: ignore[override]
        return SiteIndex(
            tuple(a + b for a, b in zip(self.n, other.n)),
            tuple(a + b for a, b in zip(self.j, other.j)),
        )

    def __sub__(self, other: "SiteIndex") -> "SiteIndex":
        return SiteIndex(
            tuple(a - b for a, b in zip(self.n, other.n)),
            tuple(a - b for a, b in zip(self.j, other.j)),
        )

    def __neg__(self) -> "SiteIndex":
        return SiteIndex(tuple(-a for a in self.n), tuple(-a for a in self.j))

    def l1(self) -> int:
        """l1 norm of the full (n, j) vector; the lattice distance used throughout."""
        return sum(abs(a) for a in self.n) + sum(abs(a) for a in self.j)

    def jsq(self) -> int:
        """|j|^2, the Laplacian symbol at this site."""
        return sum(a * a for a in self.j)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.n) and all(a == 0 for a in self.j)

    def __str__(self) -> str:
        """The (n | j) form reports and messages print, e.g. (-1 0 | 2)."""
        return f"({' '.join(map(str, self.n))} | {' '.join(map(str, self.j))})"


def site(n: Sequence[int], j: Sequence[int]) -> SiteIndex:
    return SiteIndex(tuple(int(a) for a in n), tuple(int(a) for a in j))


def unit_n(k: int, b: int) -> Tuple[int, ...]:
    """k-th unit vector of Z^b (0-based)."""
    return tuple(1 if i == k else 0 for i in range(b))


@dataclass(frozen=True)
class FrequencyVector:
    """Vector of b basic frequencies; the seed value (|j_k|^2)_k is integral."""

    omega: Tuple[float, ...]

    def __post_init__(self):
        for w in self.omega:
            if w != w or abs(w) == float("inf"):
                raise SpecError("non-finite frequency entry")

    def __len__(self) -> int:
        return len(self.omega)

    def dot(self, n: Sequence[int]) -> float:
        return sum(ni * wi for ni, wi in zip(n, self.omega))

    def is_integral(self) -> bool:
        return all(float(w).is_integer() for w in self.omega)

    def as_ints(self) -> Tuple[int, ...]:
        if not self.is_integral():
            raise SpecError("frequency vector is not integral")
        return tuple(int(w) for w in self.omega)


@dataclass(frozen=True)
class ProblemSpec:
    """Seed data: dimension d, b modes (j_k, a_k), nonlinearity p, coupling delta.

    Amplitudes are the rescaled ones, a_k in (0, 1]; the physical mode
    amplitude is delta^(1/2p) * a_k.  phase_m is an optional overall phase
    added to the dispersion relation.
    """

    d: int
    b: int
    p: int
    delta: float
    modes: Tuple[Tuple[Tuple[int, ...], float], ...]
    phase_m: float = 0.0

    def __post_init__(self):
        if self.d < 1 or self.b < 1 or self.p < 1:
            raise SpecError("require d >= 1, b >= 1, p >= 1")
        if not (0.0 < self.delta < 1.0):
            raise SpecError("delta must lie in (0, 1)")
        if len(self.modes) != self.b:
            raise SpecError("number of modes must equal b")
        seen = set()
        for k, (j, a) in enumerate(self.modes):
            if len(j) != self.d:
                raise SpecError(f"mode {k}: j has length {len(j)}, expected d={self.d}")
            if all(c == 0 for c in j):
                raise SpecError(f"mode {k}: j_k = 0 is not allowed")
            if j in seen:
                raise SpecError(f"mode {k}: duplicate spatial mode {j}")
            seen.add(j)
            if not (0.0 < a <= 1.0):
                raise SpecError(f"mode {k}: amplitude must lie in (0, 1], got {a}")

    @property
    def j_list(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(j for j, _ in self.modes)

    @property
    def amplitudes(self) -> Tuple[float, ...]:
        return tuple(a for _, a in self.modes)

    def seed_sites(self) -> Tuple[SiteIndex, ...]:
        """Support of the linear seed: (-e_k, j_k), k = 1..b."""
        return tuple(
            SiteIndex(tuple(-x for x in unit_n(k, self.b)), j)
            for k, (j, _) in enumerate(self.modes)
        )

    def omega0(self) -> FrequencyVector:
        return FrequencyVector(tuple(float(sum(c * c for c in j)) for j, _ in self.modes))

    def with_amplitudes(self, a: Sequence[float]) -> "ProblemSpec":
        if len(a) != self.b:
            raise SpecError("amplitude vector length mismatch")
        return ProblemSpec(
            d=self.d,
            b=self.b,
            p=self.p,
            delta=self.delta,
            modes=tuple((j, float(ak)) for (j, _), ak in zip(self.modes, a)),
            phase_m=self.phase_m,
        )


def make_spec(d, b, p, delta, j_list, amplitudes, phase_m=0.0) -> ProblemSpec:
    js = [tuple(int(c) for c in (j if isinstance(j, (tuple, list)) else (j,))) for j in j_list]
    return ProblemSpec(
        d=d,
        b=b,
        p=p,
        delta=float(delta),
        modes=tuple((j, float(a)) for j, a in zip(js, amplitudes)),
        phase_m=float(phase_m),
    )


class SparseSeries:
    """Finite map SiteIndex -> complex amplitude.

    Entries with modulus below drop_tol * max modulus are removed, so the
    support always equals the key set.  Instances are treated as immutable,
    so a series sorts its terms once, on first use (`_sorted_terms`), and a
    convolved series keeps its sorted terms on packed site keys
    (`_packed_terms`).
    """

    __slots__ = ("b", "d", "_terms", "_sorted", "_packed")

    def __init__(self, b: int, d: int, terms: Optional[Dict[SiteIndex, complex]] = None,
                 drop_tol: float = DROP_TOL):
        self.b = b
        self.d = d
        self._terms: Dict[SiteIndex, complex] = {}
        self._sorted: Optional[Tuple[Tuple[SiteIndex, complex], ...]] = None
        self._packed: Optional[Tuple[List[Tuple[int, complex]], int]] = None
        if terms:
            cutoff = drop_tol * max(abs(v) for v in terms.values()) if drop_tol else 0.0
            for s, v in terms.items():
                if len(s.n) != b or len(s.j) != d:
                    raise DimensionMismatch(f"site {s} does not match (b={b}, d={d})")
                if v != 0 and abs(v) > cutoff:
                    self._terms[s] = complex(v)

    # -- basic access -------------------------------------------------------

    def _sorted_terms(self) -> Tuple[Tuple[SiteIndex, complex], ...]:
        """The terms in lexicographic site order, sorted on first use."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._terms.items()))
        return self._sorted

    def items(self) -> List[Tuple[SiteIndex, complex]]:
        """Terms in deterministic (lexicographic) order."""
        return list(self._sorted_terms())

    def support(self) -> List[SiteIndex]:
        return [s for s, _ in self._sorted_terms()]

    def __getitem__(self, s: SiteIndex) -> complex:
        return self._terms.get(s, 0j)

    def __contains__(self, s: SiteIndex) -> bool:
        return s in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[SiteIndex]:
        return iter(self.support())

    def __repr__(self) -> str:
        return f"SparseSeries(b={self.b}, d={self.d}, nterms={len(self)})"

    def norm2(self) -> float:
        return sum(abs(v) ** 2 for _, v in self._sorted_terms()) ** 0.5

    def _packed_terms(self) -> Tuple[List[Tuple[int, complex]], int]:
        """The terms as (packed key, value) in ascending key order, which is
        the order of `items`, and the largest coordinate modulus; packed on
        first use (`_pack_sites`)."""
        if self._packed is None:
            keys, bound = _pack_sites(self._terms, self.b + self.d)
            self._packed = (sorted(zip(keys, self._terms.values())), bound)
        return self._packed

    @classmethod
    def _from_packed(cls, b: int, d: int, terms: Dict[int, complex], bound: int,
                     drop_tol: float) -> "SparseSeries":
        """The series of a map from packed keys to values, kept and dropped
        by the rule of the constructor, in the map's order; bound is at least
        every coordinate's modulus and below 2^63."""
        cutoff = drop_tol * max(map(abs, terms.values())) if terms and drop_tol else 0.0
        kept = {k: v for k, v in terms.items() if v != 0 and abs(v) > cutoff}
        sites = _unpack_sites(kept, b, d)
        if bound >= FIELD_LIMIT:
            bound = _pack_sites(sites, b + d)[1]
        out = cls(b, d)
        out._terms = dict(zip(sites, kept.values()))
        out._packed = (sorted(kept.items()), bound)
        return out

    # -- algebra ------------------------------------------------------------

    def _check_compatible(self, other: "SparseSeries"):
        if (self.b, self.d) != (other.b, other.d):
            raise DimensionMismatch(
                f"series on Z^{self.b}+{self.d} vs Z^{other.b}+{other.d}")

    def add(self, other: "SparseSeries") -> "SparseSeries":
        self._check_compatible(other)
        out = dict(self._terms)
        for s, v in other.items():
            out[s] = out.get(s, 0j) + v
        return SparseSeries(self.b, self.d, out, drop_tol=0.0)

    def sub(self, other: "SparseSeries") -> "SparseSeries":
        return self.add(other.scale(-1.0))

    def scale(self, c: complex) -> "SparseSeries":
        return SparseSeries(self.b, self.d,
                            {s: c * v for s, v in self._terms.items()}, drop_tol=0.0)

    def restrict(self, sites: Iterable[SiteIndex]) -> "SparseSeries":
        keep = set(sites)
        return SparseSeries(self.b, self.d,
                            {s: v for s, v in self._terms.items() if s in keep},
                            drop_tol=0.0)


def delta_series(b: int, d: int, s: SiteIndex, amp: complex = 1.0) -> SparseSeries:
    return SparseSeries(b, d, {s: complex(amp)})


def _site_bias(m: int) -> int:
    """The packed key of the origin of m coordinates: 2^63 in each field.
    A key XOR the bias is the big-endian two's complement of the site."""
    return int.from_bytes(b"\x80\0\0\0\0\0\0\0" * m, "big")


def _pack_sites(sites: Iterable[SiteIndex], m: int) -> Tuple[List[int], int]:
    """The packed keys of sites of m coordinates, and the largest modulus of
    their coordinates; LatticeError unless it is below FIELD_LIMIT."""
    coords = [s.n + s.j for s in sites]
    bound = max(map(abs, itertools.chain.from_iterable(coords)), default=0)
    if bound >= FIELD_LIMIT:
        raise LatticeError(f"a site coordinate of modulus {bound} is not below 2^62")
    pack, bias = struct.Struct(f">{m}q").pack, _site_bias(m)
    return [int.from_bytes(pack(*c), "big") ^ bias for c in coords], bound


def _unpack_sites(keys: Iterable[int], b: int, d: int) -> List[SiteIndex]:
    """The sites of packed keys whose coordinates lie below 2^63 in modulus."""
    unpack, bias, width = struct.Struct(f">{b + d}q").unpack, _site_bias(b + d), 8 * (b + d)
    return [SiteIndex(c[:b], c[b:])
            for c in map(unpack, [(k ^ bias).to_bytes(width, "big") for k in keys])]


def _pair_sums(f_terms: Sequence[Tuple[int, Any]], g_terms: Sequence[Tuple[int, Any]],
               m: int) -> Dict[int, Any]:
    """The sorted double loop of a convolution on (packed key, value) lists:
    out[k] = out.get(k, 0j) + v1 * v2 at the key k = k1 + k2 - bias of the
    sum site, in the order first reached.  Values may be numbers or arrays."""
    bias = _site_bias(m)
    out: Dict[int, Any] = {}
    get = out.get
    for k1, v1 in f_terms:
        k1 -= bias
        for k2, v2 in g_terms:
            k = k1 + k2
            out[k] = get(k, 0j) + v1 * v2
    return out


def convolve(f: SparseSeries, g: SparseSeries, drop_tol: float = DROP_TOL) -> SparseSeries:
    """(f*g)(s) = sum_{s'} f(s') g(s - s').

    Accumulation runs over the lexicographically sorted term lists so the
    floating-point result is reproducible bit for bit.  Sums are keyed by
    packed sites (`SparseSeries._packed_terms`), and one SiteIndex is
    decoded per output site.
    """
    f._check_compatible(g)
    (f_terms, f_bound), (g_terms, g_bound) = f._packed_terms(), g._packed_terms()
    return SparseSeries._from_packed(f.b, f.d, _pair_sums(f_terms, g_terms, f.b + f.d),
                                     f_bound + g_bound, drop_tol)


def convolve_sorted(f_terms: Sequence[Tuple[SiteIndex, Any]],
                    g_terms: Sequence[Tuple[SiteIndex, Any]], b: int, d: int
                    ) -> Dict[SiteIndex, Any]:
    """The sums of `convolve` on two lists of (site, value) in site order,
    values numbers or arrays, keyed by site in the order first reached and
    with no drop rule."""
    packed = [list(zip(_pack_sites([s for s, _ in terms], b + d)[0], [v for _, v in terms]))
              for terms in (f_terms, g_terms)]
    out = _pair_sums(*packed, b + d)
    return dict(zip(_unpack_sites(out, b, d), out.values()))


def conv_power(f: SparseSeries, p: int, drop_tol: float = DROP_TOL) -> SparseSeries:
    """p-fold convolution power; p = 0 is the unit mass at the origin.  The
    first factor is the convolution of the unit mass with f written out:
    0j + (1 + 0j) v per term, then the drop rule."""
    if p < 0:
        raise LatticeError("convolution power requires p >= 0")
    if p == 0:
        return delta_series(f.b, f.d, SiteIndex((0,) * f.b, (0,) * f.d))
    terms, bound = f._packed_terms()
    out = SparseSeries._from_packed(f.b, f.d, {k: 0j + (1 + 0j) * v for k, v in terms},
                                    bound, drop_tol)
    for _ in range(p - 1):
        out = convolve(out, f, drop_tol=drop_tol)
    return out


def conjugate_flip(f: SparseSeries) -> SparseSeries:
    """Fourier image of complex conjugation: result(n, j) = conj(f(-n, -j))."""
    return SparseSeries(f.b, f.d,
                        {-s: v.conjugate() for s, v in f._terms.items()},
                        drop_tol=0.0)


def linear_solution(spec: ProblemSpec) -> Tuple[SparseSeries, SparseSeries]:
    """Seed solution of the linear flow and its conjugate.

    u0 carries amplitude a_k at (-e_k, j_k); v0 is the conjugate flip.
    """
    terms = {}
    for s, (j, a) in zip(spec.seed_sites(), spec.modes):
        terms[s] = complex(a)
    u0 = SparseSeries(spec.b, spec.d, terms, drop_tol=0.0)
    return u0, conjugate_flip(u0)


@dataclass(frozen=True)
class Box:
    """Rectangular truncation |n|_inf <= n_radius, |j|_inf <= j_radius."""

    n_radius: int
    j_radius: int

    def __post_init__(self):
        if self.n_radius < 0 or self.j_radius < 0:
            raise LatticeError("box radii must be nonnegative")

    def site_count(self, b: int, d: int) -> int:
        return (2 * self.n_radius + 1) ** b * (2 * self.j_radius + 1) ** d


def default_box(spec: ProblemSpec) -> Box:
    """j-radius covers the seed modes plus interaction room; n-radius is the
    square of the j-radius so characteristic solutions are not clipped."""
    jr = max(3, max(max(abs(c) for c in j) for j in spec.j_list) + 1)
    return Box(n_radius=jr * jr, j_radius=jr)
