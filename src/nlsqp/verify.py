"""Independent validation of constructed solutions.

None of this feeds back into the constructor: weighted lattice norms,
pointwise PDE residuals at space-time collocation points, and a split-step
spectral integrator that evolves the initial data and watches the seed
modes drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._intlinalg import lattice_basis
from .lattice import ProblemSpec, SiteIndex, SparseSeries, FrequencyVector


class VerifyError(RuntimeError):
    pass


class GridTooCoarse(VerifyError):
    pass


class IntegratorInstability(VerifyError):
    def __init__(self, message: str, suggested_dt: float):
        super().__init__(f"{message} (suggested dt = {suggested_dt!r})")
        self.suggested_dt = suggested_dt


@dataclass(frozen=True)
class WeightSpec:
    """Exponential lattice weight, flat on the core |x|_1 <= x0:
    rho(x) = exp(beta * max(0, |x|_1 - x0))."""

    beta: float = 0.1
    x0: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise VerifyError("weight exponent beta must lie in (0, 1)")
        if self.x0 < 0:
            raise VerifyError("x0 must be nonnegative")

    def log_weight(self, s: SiteIndex) -> float:
        return self.beta * max(0.0, s.l1() - self.x0)


def default_weight(spec: ProblemSpec) -> WeightSpec:
    """The weight flat on the seed sites, with the default exponent."""
    x0 = max(s.l1() for s in spec.seed_sites())
    return WeightSpec(x0=float(x0))


def weighted_norm(f: SparseSeries, w: WeightSpec) -> float:
    """sqrt(sum |f(x)|^2 rho(x)^2), accumulated in the log domain so large
    supports cannot overflow."""
    logs = []
    for s, val in f.items():
        a = abs(val)
        if a > 0:
            logs.append(2.0 * (math.log(a) + w.log_weight(s)))
    if not logs:
        return 0.0
    top = max(logs)
    acc = sum(math.exp(x - top) for x in logs)
    log_norm = 0.5 * (top + math.log(acc))
    if log_norm > 709.0:  # beyond float range; the log was still exact
        return math.inf
    return math.exp(log_norm)


# ---------------------------------------------------------------------------
# Collocation residual


def _sub_torus(js: List[Tuple[int, ...]], spec: ProblemSpec
               ) -> Tuple[int, np.ndarray, np.ndarray]:
    """The rank r of the lattice L spanned by j - j0 over the modes js and
    the seeds (j0 the first seed), a Z-basis B of L as a float (d, r) array
    (one unit vector when r = 0), and the coordinates c (j = j0 + Bc) of js
    and then the seeds, one row each: psi(x) = e^{i j0.x} phi(B^T x)."""
    j0 = spec.j_list[0]
    js = list(js) + list(spec.j_list)
    basis = lattice_basis([tuple(a - b for a, b in zip(j, j0)) for j in js])
    bmat = np.array(basis or [(1,) + (0,) * (spec.d - 1)], dtype=float).T
    coords = np.rint(np.linalg.lstsq(bmat, (np.array(js) - j0).T, rcond=None)[0])
    return len(basis), bmat, coords.T.astype(int)


@dataclass
class ResidualReport:
    sup: float
    mean: float
    t_points: int
    x_points: int


def pde_residual(
    u: SparseSeries,
    omega: FrequencyVector,
    spec: ProblemSpec,
    grid: Optional[Tuple[int, int]] = None,
) -> ResidualReport:
    """Evaluate i u_t + Lap(u) - |u|^{2p} u - m u on a collocation grid.

    The series is in physical scaling.  Time and space derivatives are
    exact on each term (in.w and -|j|^2); the nonlinearity is applied
    pointwise.  The grid must resolve the support: at least 2*max|j|+1
    points per space dimension and at least 2*max|n.w| in time.

    As u = e^{i j0.x} phi(B^T x) (`_sub_torus`) and |u| = |phi|, the residual
    is evaluated for phi on x_points points per axis of the r-torus; B^T
    maps the x-grid into that grid.
    """
    terms = u.items()
    if not terms:
        return ResidualReport(0.0, 0.0, 0, 0)
    narr = np.array([s.n for s, _ in terms], dtype=float)
    jarr = np.array([s.j for s, _ in terms], dtype=float)
    amps = np.array([v for _, v in terms], dtype=complex)
    coords = _sub_torus([s.j for s, _ in terms], spec)[2][:len(terms)]
    w = np.array(omega.omega, dtype=float)
    tfreq = narr @ w
    jsq = np.sum(jarr * jarr, axis=1)

    max_j = int(np.max(np.abs(jarr))) if jarr.size else 0
    max_t = float(np.max(np.abs(tfreq))) if tfreq.size else 0.0
    if grid is None:
        grid = (max(2 * int(math.ceil(max_t)) + 1, 16), max(2 * max_j + 1, 9))
    t_points, x_points = grid
    if x_points < 2 * max_j + 1:
        raise GridTooCoarse(f"need at least {2 * max_j + 1} spatial points "
                            f"per dimension, got {x_points}")
    if t_points < 2 * max_t:
        raise GridTooCoarse(f"need at least {math.ceil(2 * max_t)} time points, got {t_points}")

    tg = np.linspace(0.0, 2 * math.pi, t_points, endpoint=False)
    yg = np.linspace(0.0, 2 * math.pi, x_points, endpoint=False)
    # e^{i n.w t} factor: (terms, T)
    et = np.exp(1j * np.outer(tfreq, tg))
    # e^{i c.y} factor per axis of the sub-torus, collapsed to (terms, Y^r)
    ex = np.ones((len(terms), 1), dtype=complex)
    for c in coords.T:
        phase = np.exp(1j * np.outer(c, yg))
        ex = (ex[:, :, None] * phase[:, None, :]).reshape(len(terms), -1)

    u_field = np.einsum("kt,kx,k->tx", et, ex, amps)
    lin_field = np.einsum("kt,kx,k->tx", et, ex, -(tfreq + jsq) * amps)
    resid = lin_field - (np.abs(u_field) ** (2 * spec.p)) * u_field \
        - spec.phase_m * u_field
    flat = np.abs(resid).ravel()
    return ResidualReport(sup=float(flat.max()), mean=float(flat.mean()),
                          t_points=t_points, x_points=x_points)


# ---------------------------------------------------------------------------
# Split-step evolution


@dataclass
class DriftReport:
    times: np.ndarray
    mode_amps: np.ndarray       # (samples, b) |psi_hat(t, j_k)|
    mode_phases: np.ndarray     # (samples, b) unwrapped phase of psi_hat(t, j_k)
    amp_drift: float            # max relative drift of the seed amplitudes
    phase_error: np.ndarray     # (samples, b) phase minus the -omega_k t law
    mass_drift: float           # relative l2 mass drift over the run
    trajectory_error: float     # max relative l2 gap of psi_hat to the series' field
    dt: float
    grid: int                   # points per axis of the sub-torus
    rank: int                   # rank r of the lattice the support spans


# Blanes & Moan's S6 (J. Comput. Appl. Math. 142, 2002): the symmetric
# 6-stage order-4 splitting B1 A1 B2 A2 ... A6 B7, B the phase flow, A the
# free flow, each over its coefficient times dt.
_B1, _B2, _B3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_A1, _A2 = 0.209515106613362, -0.143851773179818
S6_PHASE = (_B1, _B2, _B3, 1 - 2 * (_B1 + _B2 + _B3), _B3, _B2, _B1)
S6_FREE = (_A1, _A2, 0.5 - _A1 - _A2, 0.5 - _A1 - _A2, _A2, _A1)


def _linear_propagator(symbol: np.ndarray, dt: float) -> np.ndarray:
    """Dense m x m free flow over dt along one periodic axis of m points, for
    the Fourier multiplier e^{-i symbol dt} with `symbol` given on the FFT
    frequencies (np.fft.fftfreq order): P @ f is ifft(fft(f) e^{-i symbol dt}).
    P is circulant, P[x, y] = c[(x - y) mod m] for c = ifft(e^{-i symbol dt}),
    one length-m transform taken in long double and rounded to complex128
    once, so P is unitary to about the last bit.  Where long double is
    float64 that accuracy is lost, but P is still correct to rounding."""
    c = np.fft.ifft(np.exp(-1j * symbol.astype(np.longdouble) * np.longdouble(dt)))
    shift = np.arange(len(symbol))
    return c.astype(complex)[(shift[:, None] - shift) % len(symbol)]


def evolve_drift(
    u: SparseSeries,
    omega: FrequencyVector,
    spec: ProblemSpec,
    T: float,
    dt: float,
) -> DriftReport:
    """Split-step integration of the physical equation from psi(0, x) =
    u(0, x), tracking the seed-mode amplitudes and phases.

    The flow keeps the Fourier support in the coset j0 + L of the first seed
    j0, where L is the lattice spanned by the differences j - j0 over the
    support and the seeds: the free flow is diagonal in j, and |psi|^{2p}psi
    adds and subtracts support points.  With B a Z-basis of L (d x r, from
    `lattice_basis`; one unit vector when r = 0), psi(t, x) = e^{i j0.x}
    phi(t, B^T x), phi on the r-torus, and |psi| = |phi| pointwise.  So the
    loop integrates phi on m^r points, m a power of two resolving the modes
    the nonlinearity reaches in the coordinates c of j = j0 + Bc, with the
    free-flow multiplier e^{-i |j0 + Bc|^2 dt}; psi_hat(j0 + Bc) =
    phi_hat(c).  A support of rank r > 2 raises VerifyError.

    A step is the S6 composition: phase flows over S6_PHASE * dt between
    free flows over S6_FREE * dt.  The nonlinear sub-flow
    phi -> phi e^{-i tau (|phi|^{2p} + m)} keeps |phi| fixed at every point,
    so the last phase flow of one step and the first of the next compose
    exactly into one phase over 2 b1 dt; the loop splits it back only where
    a sample is recorded.  For r <= 1 a free flow is one product with a
    dense m x m propagator of `_linear_propagator` (one per distinct
    coefficient), which on 16-64 points costs less than an FFT pair; for
    r = 2 it is FFT, multiply, inverse FFT, which also covers the cross
    terms of B^T B, written into the spare buffer.  A phase flow is one
    complex multiply of the base |phi|^{2p} + m by -i tau (a 0-d array)
    and one exp in place; the base is |phi|^2 itself for p = 1, m = 0
    (numpy casts it), else the real half of a complex buffer whose
    imaginary half stays +0.0 (the cast's bits, no cast).  The six free
    flows alternate phi and the spare buffer, so phi ends each step in its
    own.  On r <= 1 a stage is six numpy calls (dot, conjugate, multiply,
    multiply, exp, multiply; one more each for p > 1 and m != 0).  The l2
    mass is read off |phi|^2 after the last stage of every step; one that
    is not finite or drifts by more than 1e-3 raises IntegratorInstability.
    Each sampled phi is copied into a preallocated (samples, m^r) array
    (206 KB on tp3); after the loop one fftn over its grid axes and one
    exp of the (samples, terms) phases give trajectory_error, the largest
    relative l2 gap between phi_hat and the series' own field
    sum_n u_{n,j} e^{i (n.omega) t} on the c bins.
    """
    terms = u.items()
    j0 = spec.j_list[0]
    rank, bmat, coords = _sub_torus([s.j for s, _ in terms], spec)
    if rank > 2:
        raise VerifyError(
            f"split-step validator needs a support of rank <= 2, got rank {rank}")
    # A power of two resolving the modes the nonlinearity reaches.
    max_c = int(np.abs(coords).max())
    m = max(16, 2 ** math.ceil(math.log2(2 * (2 * spec.p + 1) * max_c + 2)))
    if dt > 0.5:
        raise IntegratorInstability("dt too large for the phase rotation", 0.1)
    if not math.isfinite(T / dt):
        raise VerifyError(f"T = {T!r} over dt = {dt!r} is no finite step count")
    steps = int(round(T / dt))
    if steps < 1:
        raise VerifyError(f"T = {T!r} rounds to no step of dt = {dt!r}")

    shape = (m,) * bmat.shape[1]
    # |j0 + Bc|^2 on the FFT frequencies c of the grid.
    freqs = np.meshgrid(*[np.fft.fftfreq(m, d=1.0 / m)] * len(shape), indexing="ij")
    jc = np.array(j0, dtype=float)[:, None] + bmat @ np.stack([f.ravel() for f in freqs])
    symbol = np.sum(jc * jc, axis=0).reshape(shape)
    # The free flow of each stage, phi -> P phi written into the other
    # buffer: a bound dot on r <= 1; FFT, multiply, inverse FFT on r = 2.
    props = {a: _linear_propagator(symbol, a * dt).dot if len(shape) == 1
             else (lambda f, out, e=np.exp(-1j * symbol * (a * dt)): np.fft.ifftn(
                 np.multiply(np.fft.fftn(f, out=out), e, out), out=out))
             for a in set(S6_FREE)}
    flows = [props[a] for a in S6_FREE]
    # -i tau of each stage's phase flow, as 0-d arrays (numpy converts a
    # Python scalar on every call); the sixth is fused, or split at a sample.
    tau1 = S6_PHASE[0] * dt
    ntaus = [np.array(-1j * (b * dt)) for b in S6_PHASE[1:-1]] + [None]
    fused, split = np.array(-1j * (2.0 * tau1)), np.array(-1j * tau1)

    # At least 200 samples, and densely enough that no mode advances more
    # than ~pi/2 between samples, but at most one per step.
    max_omega = max(1.0, max(abs(w) for w in omega.omega))
    max_interval = 0.5 * math.pi / max_omega
    sample_every = max(1, min(steps // 200, int(max_interval / dt)))
    times = np.array([0.0] + [s * dt for s in range(1, steps + 1)
                              if s % sample_every == 0 or s == steps])
    bins = np.ravel_multi_index(tuple((coords % m).T), shape)
    term_bins, mode_bins = bins[:len(terms)], bins[len(terms):]
    term_freqs = np.array([s.n for s, _ in terms], dtype=float) @ np.array(omega.omega)
    term_vals = np.array([v for _, v in terms], dtype=complex)

    # phi(0, y) on the grid: collapse the n direction (t = 0).
    phi = np.zeros(shape, dtype=complex)
    np.add.at(phi.reshape(-1), term_bins, term_vals)
    phi = np.fft.ifftn(phi) * phi.size  # values on the grid
    snaps = np.empty((len(times),) + shape, dtype=complex)
    snaps[0] = phi
    # Stage k's free flow writes bufs[k - 1] into bufs[k]; six end in phi.
    spare, sq, rot = np.empty((3,) + shape, dtype=complex)
    bufs = (spare, phi) * 3
    mod2 = sq.real  # phi conj(phi) is written into sq: mod2 is |phi|^2
    # The rotation's base |phi|^{2p} + m: mod2, or a zeroed complex buffer.
    p, pm, m0 = spec.p, spec.phase_m, np.array(spec.phase_m)
    base = mod2 if p == 1 and not pm else np.zeros(shape, dtype=complex)
    lifted = base.real
    pw = mod2 if p == 1 else lifted  # |phi|^{2p}
    mul, conj, exp, add, power = np.multiply, np.conjugate, np.exp, np.add, np.power
    mul(phi, conj(phi, sq), sq)
    mass0 = float(add.reduce(mod2, None))
    if p > 1:  # the first phase flow, with the stage's calls
        mul(mod2, mod2, lifted) if p == 2 else power(mod2, p, lifted)
    if pm:
        add(pw, m0, lifted)
    mul(phi, exp(mul(base, split, rot), rot), phi)
    mass, sample = mass0, 1
    for step in range(1, steps + 1):
        sampled = step % sample_every == 0 or step == steps
        ntaus[5] = split if sampled else fused
        for k in range(6):
            x = bufs[k]
            flows[k](bufs[k - 1], x)
            mul(x, conj(x, sq), sq)
            if p > 1:  # the order of numpy's mod2 ** p + m
                mul(mod2, mod2, lifted) if p == 2 else power(mod2, p, lifted)
            if pm:
                add(pw, m0, lifted)
            mul(x, exp(mul(base, ntaus[k], rot), rot), x)
        # A phase flow leaves |phi|^2 as it is: mod2 still holds it.
        mass = float(add.reduce(mod2, None))
        if not math.isfinite(mass) or (
                mass0 > 0 and abs(mass - mass0) / mass0 > 1e-3):
            raise IntegratorInstability(
                f"mass drifted {abs(mass - mass0) / mass0:.2e} "
                f"at t={step * dt:.3f}", suggested_dt=dt / 4.0)
        if sampled:  # the boundary's second half, as rot still holds it
            snaps[sample] = phi
            mul(phi, rot, phi)
            sample += 1

    ft = np.fft.fftn(snaps, axes=range(1, snaps.ndim)).reshape(len(times), -1) / phi.size
    modes = ft[:, mode_bins]
    field = np.zeros_like(ft)
    np.add.at(field, (slice(None), term_bins),
              term_vals * np.exp(1j * np.outer(times, term_freqs)))
    gaps = np.linalg.norm(ft - field, axis=1) / np.linalg.norm(field, axis=1)

    amps_a = np.hypot(modes.real, modes.imag)  # abs() of a complex, bit for bit
    a0 = amps_a[0]
    amp_drift = float(np.max(np.abs(amps_a - a0) / np.maximum(a0, 1e-300)))
    expected = -np.outer(times, np.array(omega.omega))
    # Unwrap the slow gap to the -omega_k t law, not the phase itself, which
    # turns by more than pi between samples once |omega_k| dt > pi.
    raw = np.arctan2(modes.imag, modes.real)
    phase_err = np.unwrap(raw - expected, axis=0) - (raw[0] - expected[0])
    phases_a = raw[0] + expected + phase_err
    mass_drift = abs(mass - mass0) / mass0 if mass0 > 0 else 0.0
    return DriftReport(times=times, mode_amps=amps_a, mode_phases=phases_a,
                       amp_drift=amp_drift, phase_error=phase_err,
                       mass_drift=mass_drift, trajectory_error=float(gaps.max()),
                       dt=dt, grid=m, rank=rank)
