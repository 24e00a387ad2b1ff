"""Sparse Fourier series on the product lattice Z^b x Z^d.

A space-time series  u(t, x) = sum_{(n,j)} u_hat(n, j) e^{i n.w t} e^{i j.x}
is stored as a finite map from lattice sites (n, j) to complex amplitudes.
Everything downstream (error terms, linearized operators, admissibility
checks) is generated by three operations on these maps: convolution, which
represents pointwise products of series, convolution powers, and the
conjugate flip (n, j) -> (-n, -j) representing complex conjugation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

# Relative threshold below which post-convolution amplitudes are treated as
# cancellation noise and dropped.
DROP_TOL = 1e-14


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
    support always equals the key set.  Instances are treated as immutable.
    """

    __slots__ = ("b", "d", "_terms")

    def __init__(self, b: int, d: int, terms: Optional[Dict[SiteIndex, complex]] = None,
                 drop_tol: float = DROP_TOL):
        self.b = b
        self.d = d
        self._terms: Dict[SiteIndex, complex] = {}
        if terms:
            cutoff = drop_tol * max(abs(v) for v in terms.values()) if drop_tol else 0.0
            for s, v in terms.items():
                if len(s.n) != b or len(s.j) != d:
                    raise DimensionMismatch(f"site {s} does not match (b={b}, d={d})")
                if v != 0 and abs(v) > cutoff:
                    self._terms[s] = complex(v)

    # -- basic access -------------------------------------------------------

    def items(self) -> List[Tuple[SiteIndex, complex]]:
        """Terms in deterministic (lexicographic) order."""
        return sorted(self._terms.items())

    def support(self) -> List[SiteIndex]:
        return sorted(self._terms.keys())

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

    def max_abs(self) -> float:
        return max((abs(v) for v in self._terms.values()), default=0.0)

    def norm2(self) -> float:
        return sum(abs(v) ** 2 for _, v in self.items()) ** 0.5

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

    def clean(self, drop_tol: float = DROP_TOL) -> "SparseSeries":
        return SparseSeries(self.b, self.d, dict(self._terms), drop_tol=drop_tol)


def delta_series(b: int, d: int, s: SiteIndex, amp: complex = 1.0) -> SparseSeries:
    return SparseSeries(b, d, {s: complex(amp)})


def convolve(f: SparseSeries, g: SparseSeries, drop_tol: float = DROP_TOL) -> SparseSeries:
    """(f*g)(s) = sum_{s'} f(s') g(s - s').

    Accumulation runs over the lexicographically sorted term lists so the
    floating-point result is reproducible bit for bit; sums are keyed by
    flat n + j tuples, so one SiteIndex is built per output site.
    """
    f._check_compatible(g)
    out: Dict[Tuple[int, ...], complex] = {}
    g_terms = [(s.n + s.j, v) for s, v in g.items()]
    add = operator.add
    for s1, v1 in f.items():
        k1 = s1.n + s1.j
        for k2, v2 in g_terms:
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0j) + v1 * v2
    b = f.b
    return SparseSeries(b, f.d, {SiteIndex(k[:b], k[b:]): v for k, v in out.items()},
                        drop_tol=drop_tol)


def conv_power(f: SparseSeries, p: int, drop_tol: float = DROP_TOL) -> SparseSeries:
    """p-fold convolution power; p = 0 is the unit mass at the origin."""
    if p < 0:
        raise LatticeError("convolution power requires p >= 0")
    out = delta_series(f.b, f.d, SiteIndex((0,) * f.b, (0,) * f.d))
    for _ in range(p):
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

    def contains(self, s: SiteIndex) -> bool:
        return (all(abs(a) <= self.n_radius for a in s.n)
                and all(abs(a) <= self.j_radius for a in s.j))

    def site_count(self, b: int, d: int) -> int:
        return (2 * self.n_radius + 1) ** b * (2 * self.j_radius + 1) ** d


def default_box(spec: ProblemSpec) -> Box:
    """j-radius covers the seed modes plus interaction room; n-radius is the
    square of the j-radius so characteristic solutions are not clipped."""
    jr = max(3, max(max(abs(c) for c in j) for j in spec.j_list) + 1)
    return Box(n_radius=jr * jr, j_radius=jr)
