"""Lyapunov-Schmidt iteration for the lattice system.

Each step solves the off-seed (P) equations by one certified Newton update
at the frequency that currently solves the seed (Q) equations, then
re-solves the Q equations at the new point.  The first step carries the
whole construction: it is where the exactly resonant integer frequency
picks up its amplitude modulation and becomes Diophantine.  The update
lives on the conservation lattice Lambda (u on Lambda, v on -Lambda),
truncated at a radius R that grows with the residual; the admissibility
certificate covers Lambda (+) -Lambda inside the truncation box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    SITE_CAP,
    ConvolutionSymbols,
    ResonanceGraph,
    branch_tags,
    component_terms,
    conservation_sites,
    lattice_generation,
    members_of_size,
    resonance_graph,
    row_keys,
    seed_symbols,
)
from .conditions import ConditionReport, check_condition_i, check_condition_ii
from .lattice import (
    DROP_TOL,
    Box,
    BoxTooLarge,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    conjugate_flip,
    convolve,
    convolve_sorted,
    default_box,
    linear_solution,
)
from .linop import (
    LatticeBox,
    LatticeFrame,
    admissibility_gate,
    lattice_box,
    lattice_frame,
    lattice_inverse,
    lattice_operator,
)
from .verify import default_weight, weighted_norm


class NewtonError(RuntimeError):
    pass


class ConditionGateError(NewtonError):
    """Refusal to iterate: an admissibility condition did not pass."""


class NonRealFrequency(NewtonError):
    pass


class StepRejected(NewtonError):
    pass


class ConvergenceError(NewtonError):
    def __init__(self, message: str, history: List[Tuple[float, float]]):
        super().__init__(message)
        self.history = history


@dataclass
class IterationState:
    u: SparseSeries
    v: SparseSeries
    omega: FrequencyVector
    residual_plain: float
    residual_weighted: float
    step_index: int
    lattice_radius: int  # R of the step's Lambda_R; for the seed, 2p
    symbols: Optional[ConvolutionSymbols] = None  # from_fields(u, v, p): its products
    # residual_series at omega, which the residual norms were read from
    residual: Optional[Tuple[SparseSeries, SparseSeries]] = None
    frame: Optional[LatticeFrame] = None  # of the step's Lambda_R; none for the seed


@dataclass
class DiophantineReport:
    passed: bool
    worst_n: Optional[Tuple[int, ...]]
    worst_margin: float          # ||n.omega||_T at the minimizer
    fitted_kappa: float          # min over n of ||n.omega||_T |n|^gamma / delta
    kappa: float
    gamma: float
    n_radius: int


@dataclass
class ModulationReport:
    delta_omega: Tuple[float, ...]
    jac_det: float                      # det of `analytic_q_jacobian`
    diophantine: DiophantineReport
    seed_residual: Tuple[float, float]  # (plain, weighted) residual of the seed


def residual_series(u: SparseSeries, v: SparseSeries, omega: FrequencyVector,
                    spec: ProblemSpec, symbols: Optional[ConvolutionSymbols] = None
                    ) -> Tuple[SparseSeries, SparseSeries]:
    """Full sparse residual of the doubled system at (u, v, omega):
    delta (u*v)^{*p} * u + (n.omega + |j|^2 + m) u, and the same for v with
    -n.omega, the convolutions read from the symbols of (u, v), built here
    unless given: only the diagonal moves with omega.

    Each part is delta g, exact zeros dropped, in g's order, then the
    nonzero diagonal terms added in site order: the terms and their order
    of `g.scale(delta).add(diagonal)`, in one pass."""
    symbols = symbols or ConvolutionSymbols.from_fields(u, v, spec.p)
    delta, m, dot = spec.delta, spec.phase_m, omega.dot

    def part(f: SparseSeries, g: SparseSeries, sign: int) -> SparseSeries:
        out = {}
        for s, val in g._terms.items():
            x = delta * val
            if x != 0 and abs(x) > 0.0:
                out[s] = x
        get = out.get
        for s, val in f.items():
            x = (sign * dot(s.n) + s.jsq() + m) * val
            if x != 0 and abs(x) > 0.0:
                out[s] = get(s, 0j) + x
        return SparseSeries(f.b, f.d, out, drop_tol=0.0)

    return part(u, symbols.gu, 1), part(v, symbols.gv, -1)


def residual_norms(u, v, omega, spec, symbols=None) -> Tuple[float, float]:
    """Plain and weighted (`default_weight`) norms of the whole residual."""
    return _norms(*residual_series(u, v, omega, spec, symbols), spec)


def _norms(fu: SparseSeries, fv: SparseSeries, spec: ProblemSpec) -> Tuple[float, float]:
    """Plain and weighted norms of a residual's two parts."""
    weight = default_weight(spec)
    return (math.hypot(fu.norm2(), fv.norm2()),
            math.hypot(weighted_norm(fu, weight), weighted_norm(fv, weight)))


def q_solve(u: SparseSeries, spec: ProblemSpec,
            symbols: Optional[ConvolutionSymbols] = None) -> FrequencyVector:
    """Frequencies solving the 2b seed-mode equations at the given u:
    omega_k = |j_k|^2 + m + (delta / a_k) gu(-e_k, j_k), gu = (u*v)^{*p} * u
    of its symbols (built here unless given).  A bracket whose imaginary
    part exceeds 1e-12 of max(1, |real part|) raises NonRealFrequency."""
    gu = (symbols or ConvolutionSymbols.from_fields(u, conjugate_flip(u), spec.p)).gu
    out = []
    for s, (j, a) in zip(spec.seed_sites(), spec.modes):
        if a == 0:
            raise NewtonError("zero seed amplitude in q_solve")
        bracket = gu[s]
        if abs(bracket.imag) > 1e-12 * max(1.0, abs(bracket.real)):
            raise NonRealFrequency(
                f"Q bracket at mode {j} has imaginary part {bracket.imag:.3e}")
        out.append(s.jsq() + spec.phase_m + spec.delta * bracket.real / a)
    return FrequencyVector(tuple(out))


def newton_step(
    state: IterationState,
    spec: ProblemSpec,
    box: Box,
    tol: float = 1e-11,
    eps_second: float = 0.5,
    lattice: Optional[LatticeBox] = None,
) -> IterationState:
    """One P-then-Q update.

    The step first certifies Lambda (+) -Lambda inside the box at the
    frequency solving the Q equations for the current u
    (`admissibility_gate`, on the box's `LatticeBox`, built there unless
    given).  The linear solve then runs on Lambda_R, R the
    state's radius (2p for the seed) grown until at most tol / 2 of the
    weighted residual lies off it (`_lattice_radius`): one dense LU of F'
    there, off the 2b seed equations, so seed amplitudes are anchored
    exactly and the post-step residual picks up the full quadratic
    (delta-cubed) gain of the scheme, the first step's included.  The box bounds only the gate.  After the
    first step, a step that grows the weighted residual more than 1.5-fold
    raises StepRejected.  Each iterate is convolved once: the state
    carries its symbols (built here if it does not) and the new state those
    of u - du, kept whole however small its entries.  Each iterate's
    residual is formed once: the step reads the state's own when it was
    taken at the frequency the step works at, and the new state carries
    the one its norms are read from; it carries the step's `lattice_frame`
    too, which the next step reads again at the same R.
    """
    u, v = state.u, state.v
    symbols = state.symbols or ConvolutionSymbols.from_fields(u, v, spec.p)
    omega_work = q_solve(u, spec, symbols)
    admissibility_gate(omega_work, spec, box, symbols, eps_second, lattice)

    if state.residual is not None and state.omega == omega_work:
        fu, fv = state.residual
    else:
        fu, fv = residual_series(u, v, omega_work, spec, symbols)
    radius = _lattice_radius(state.lattice_radius, fu, fv, spec, tol)
    frame = (state.frame if state.frame is not None and state.lattice_radius == radius
             else lattice_frame(spec, conservation_sites(spec, radius)))
    mat, keep = lattice_operator(symbols, omega_work, spec, frame)
    points = frame.points
    rhs = np.array([fu[s] for s in points] + [fv[-s] for s in points], dtype=complex)
    step = np.zeros(len(rhs), dtype=complex)
    step[keep] = np.linalg.solve(mat[np.ix_(keep, keep)], rhs[keep])

    du = SparseSeries(u.b, u.d, {s: x for s, x in zip(points, step[:len(points)].tolist())
                                 if x != 0}, drop_tol=0.0)
    u_next = u.sub(du)
    v_next = conjugate_flip(u_next)
    symbols_next = ConvolutionSymbols.from_fields(u_next, v_next, spec.p)
    omega_next = q_solve(u_next, spec, symbols_next)
    residual = residual_series(u_next, v_next, omega_next, spec, symbols_next)
    plain, weighted = _norms(*residual, spec)

    if weighted > max(1.5 * state.residual_weighted, 1e-13) and state.step_index > 0:
        raise StepRejected(
            f"step {state.step_index + 1}: weighted residual grew "
            f"{state.residual_weighted:.3e} -> {weighted:.3e}")
    return IterationState(u=u_next, v=v_next, omega=omega_next,
                          residual_plain=plain, residual_weighted=weighted,
                          step_index=state.step_index + 1, lattice_radius=radius,
                          symbols=symbols_next, residual=residual, frame=frame)


def _lattice_radius(radius: int, fu: SparseSeries, fv: SparseSeries, spec: ProblemSpec,
                    tol: float) -> int:
    """The smallest R >= radius that leaves at most tol / 2 of the weighted
    residual (fu on Lambda, fv on -Lambda) off Lambda_R.  The residual is a
    finite series, so R is finite."""
    weight = default_weight(spec)
    gens = []
    for f, sign in ((fu, 1), (fv, -1)):  # a v-site of -Lambda flips to a u-site
        coords = np.array([s.n + s.j for s in f.support()], dtype=np.int64)
        gens.append((f, lattice_generation(sign * coords.reshape(-1, spec.b + spec.d), spec.b)))

    def off(r: int) -> float:
        return math.hypot(*(weighted_norm(f.restrict(
            [s for s, g in zip(f.support(), gen) if g > r]), weight) for f, gen in gens))

    while off(radius) > tol / 2:
        radius += 1
    return radius


# ---------------------------------------------------------------------------
# First iteration and its modulation diagnostics


def analytic_q_jacobian(spec: ProblemSpec, symbols: Optional[ConvolutionSymbols] = None
                        ) -> np.ndarray:
    """Exact d(omega)/d(a) at the seed, by differentiating the convolution,
    from the seed's symbols (`seed_symbols`), built here unless given."""
    u0, v0 = linear_solution(spec)
    p = spec.p
    symbols = symbols or seed_symbols(spec)
    uv_pm1, uv_p, gu = symbols.uv_pm1, symbols.uv_p, symbols.gu
    seeds = spec.seed_sites()
    amps = spec.amplitudes
    jac = np.zeros((spec.b, spec.b))
    for mcol in range(spec.b):
        du = SparseSeries(spec.b, spec.d, {seeds[mcol]: 1.0 + 0j}, drop_tol=0.0)
        dv = conjugate_flip(du)
        duv = convolve(du, v0).add(convolve(u0, dv))
        dg = convolve(convolve(uv_pm1, duv), u0).scale(p).add(convolve(uv_p, du))
        for k, s in enumerate(seeds):
            jac[k, mcol] = spec.delta * (dg[s].real * amps[k] - gu[s].real
                                         * (1.0 if k == mcol else 0.0)) / amps[k] ** 2
    return jac


def default_dio_radius(b: int) -> int:
    """Scan radius keeping the exhaustive candidate set around 10^6.

    The scan enumerates (2r+1)^b integer vectors, so the affordable radius
    drops quickly with the number of frequencies.
    """
    return {1: 20, 2: 20, 3: 12, 4: 8}.get(b, 5)


@functools.lru_cache(maxsize=16, typed=True)
def _dio_table(b: int, n_radius: int, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """The Diophantine candidates, as read-only int64 rows: the canonical
    representatives n (first nonzero positive) of the nonzero n with
    |n|_inf <= n_radius, sorted by (sup norm, l1 norm, preferring earlier
    coordinates: -n ascending); and |n|^gamma (sup norm) of each, taken with
    Python's `**` on each sup norm so that an int gamma stays exact up to
    the one rounding of `float`.  Built once per (b, n_radius, gamma) and
    shared by every scan; a grid of more than SITE_CAP n raises BoxTooLarge
    before it is built."""
    if n_radius < 1:
        raise NewtonError("n_radius must be >= 1")
    if (2 * n_radius + 1) ** b > SITE_CAP:
        raise BoxTooLarge(f"the Diophantine scan of radius {n_radius} needs a grid of "
                          f"{(2 * n_radius + 1) ** b} n, past the cap of {SITE_CAP}")
    grid = np.indices((2 * n_radius + 1,) * b, dtype=np.int64).reshape(b, -1).T - n_radius
    cands = grid[grid[np.arange(len(grid)), np.argmax(grid != 0, axis=1)] > 0]
    size = np.abs(cands)
    sup = size.max(axis=1)
    order = np.lexsort((*(-cands).T[::-1], size.sum(axis=1), sup))
    table = cands[order]
    weights = np.array([float(r ** gamma) for r in range(n_radius + 1)])[sup[order]]
    table.setflags(write=False)  # shared by every scan through the cache
    weights.setflags(write=False)
    return table, weights


def _dio_scan(omegas: np.ndarray, gamma: float, n_radius: int,
              work: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """||n.omega||_T |n|^gamma (not yet over delta) and ||n.omega||_T for
    each row of an (N, b) frequency array and each `_dio_table` candidate n.

    The arithmetic is that of a per-candidate `omega.dot(n)` scan, so the
    result is the same to the bit: n.omega summed left to right as in
    `FrequencyVector.dot` and `np.rint` rounding half to even as `round`
    does.  It works in the first N rows of `work`, a (2, >= N, candidates)
    float array, which a sweep reuses over its passes.
    """
    cands, weights = _dio_table(omegas.shape[1], n_radius, gamma)
    x, margins = (np.empty((2, len(omegas), len(cands))) if work is None
                  else work)[:, :len(omegas)]
    np.multiply(cands[:, 0], omegas[:, 0, None], out=x)
    for k in range(1, omegas.shape[1]):
        x += np.multiply(cands[:, k], omegas[:, k, None], out=margins)
    np.subtract(x, np.rint(x, out=margins), out=margins)
    np.abs(margins, out=margins)
    return np.multiply(margins, weights, out=x), margins


def diophantine_check(omega: FrequencyVector, delta: float, kappa: float,
                      gamma: float, n_radius: int) -> DiophantineReport:
    """Exhaustive scan of ||n.omega||_T >= kappa*delta/|n|^gamma over the box.

    |n| is the sup norm; the fitted kappa (the smallest normalized margin)
    is reported alongside the worst offender, the first candidate that
    attains it.  All candidates are scanned at once by `_dio_scan`, bitwise
    as a per-candidate scan would.
    """
    cands = _dio_table(len(omega), n_radius, gamma)[0]
    weighted, margins = _dio_scan(np.array([omega.omega], dtype=float), gamma, n_radius)
    fitted = weighted[0] / delta
    best = int(np.argmin(fitted))
    fitted_kappa = float(fitted[best])
    return DiophantineReport(passed=bool(fitted_kappa >= kappa),
                             worst_n=tuple(cands[best].tolist()),
                             worst_margin=float(margins[0, best]), fitted_kappa=fitted_kappa,
                             kappa=kappa, gamma=gamma, n_radius=n_radius)


MIN_AMPLITUDE = 1e-6


def first_iteration(
    spec: ProblemSpec,
    box: Optional[Box] = None,
    condition_reports: Optional[Dict[str, ConditionReport]] = None,
    kappa: float = 1e-2,
    gamma: Optional[float] = None,
    dio_radius: Optional[int] = None,
    m_max: int = 8,
    eps_second: float = 0.5,
    tol: float = 1e-11,
    symbols: Optional[ConvolutionSymbols] = None,
    lattice: Optional[LatticeBox] = None,
) -> Tuple[IterationState, ModulationReport]:
    """Seed -> first corrected state, with the modulation diagnostics.

    Refuses to run unless both admissibility conditions pass.  Reports
    passed in are used as they are; a condition without one ("i" or "ii")
    is checked here, so each is decided once.  Condition (i) is how the
    error term enters the first bound: it must avoid its resonant set off
    the seed support.  The returned delta-omega is the exact first-order
    modulation, evaluated at the seed.  The step reads the seed's
    `seed_symbols`, built here unless given, and its gate the box's
    `LatticeBox`, built by the gate unless given.  Lambda_R starts at R = 2p,
    set by the nonlinearity, not the box: the seed residual delta (u
    v)^{*p} u reaches generation p and the step's coupling delta A p
    generations further, so du is O(delta^2) beyond generation p and the
    part of delta A du that leaves Lambda_{2p} is O(delta^3).
    """
    if box is None:
        box = default_box(spec)
    if gamma is None:
        gamma = 2 * spec.b + 2
    if dio_radius is None:
        dio_radius = default_dio_radius(spec.b)
    _admissible(spec, box, condition_reports, m_max)
    symbols = symbols or seed_symbols(spec)

    u0, v0 = linear_solution(spec)
    omega0 = spec.omega0()

    residual0 = residual_series(u0, v0, omega0, spec, symbols)
    plain0, weighted0 = _norms(*residual0, spec)
    state0 = IterationState(u=u0, v=v0, omega=omega0, residual_plain=plain0,
                            residual_weighted=weighted0, step_index=0,
                            lattice_radius=2 * spec.p, symbols=symbols, residual=residual0)

    omega1 = q_solve(u0, spec, symbols)
    delta_omega = tuple(w1 - w0 for w1, w0 in zip(omega1.omega, omega0.omega))
    dio = diophantine_check(omega1, spec.delta, kappa, gamma, dio_radius)
    report = ModulationReport(delta_omega=delta_omega,
                              jac_det=float(np.linalg.det(analytic_q_jacobian(spec, symbols))),
                              diophantine=dio, seed_residual=(plain0, weighted0))

    state1 = newton_step(state0, spec, box, tol=tol, eps_second=eps_second, lattice=lattice)
    return state1, report


def _admissible(spec: ProblemSpec, box: Box,
                condition_reports: Optional[Dict[str, ConditionReport]], m_max: int
                ) -> Dict[str, ConditionReport]:
    """The verdicts of conditions (i) and (ii), each checked here (on the
    box) unless passed in; ConditionGateError unless both pass and every
    amplitude is at least MIN_AMPLITUDE."""
    if min(spec.amplitudes) < MIN_AMPLITUDE:
        raise ConditionGateError(
            "an amplitude below 1e-6 leaves effectively fewer frequencies; refusing")
    reports = dict(condition_reports or {})
    if "i" not in reports:
        reports["i"] = check_condition_i(spec)
    if "ii" not in reports:
        reports["ii"] = check_condition_ii(spec, m_max=m_max, box=box)
    for key, rep in reports.items():
        if not rep.passed:
            raise ConditionGateError(
                f"condition ({key}) verdict is {rep.verdict}; refusing to iterate")
    return reports


# ---------------------------------------------------------------------------
# Full solve


@dataclass
class SolveReport:
    spec: ProblemSpec
    converged: bool
    steps: int
    omega: Tuple[float, ...]
    omega0: Tuple[float, ...]
    delta_omega_first: Tuple[float, ...]
    omega_shifts: Tuple[float, ...]          # |omega_k - |j_k|^2 - m|
    amplitudes_physical: Tuple[float, ...]   # delta^{1/2p} a_k
    residual_history: List[Tuple[float, float]]  # (plain, weighted) per state, in full
    quad_ratios: List[float]                 # w_next / w_prev^2 per Newton step
    quad_constant: Optional[float]           # their max over steps above the floor
    cs_mass: float                           # max |u| on C \ S
    modulation: ModulationReport
    inverse_norm: float                      # ||F'^{-1}|| on Lambda_R, off the seed equations
    decay_beta: float
    decay_bound_ok: bool
    min_block_value: float
    lattice_sites: int                       # sites of Lambda_R
    state: IterationState

    def physical_u(self) -> SparseSeries:
        return self.state.u.scale(self.spec.delta ** (1.0 / (2 * self.spec.p)))


def solve(
    spec: ProblemSpec,
    box: Optional[Box] = None,
    tol: float = 1e-11,
    max_iter: int = 12,
    condition_reports: Optional[Dict[str, ConditionReport]] = None,
    kappa: float = 1e-2,
    gamma: Optional[float] = None,
    dio_radius: Optional[int] = None,
    m_max: int = 8,
    eps_second: float = 0.5,
    symbols: Optional[ConvolutionSymbols] = None,
) -> SolveReport:
    """Iterate Newton steps until the weighted residual, taken in full,
    drops below tol; report frequencies, certificates and convergence data.

    The steps run on Lambda_R with R grown from the residual (`newton_step`)
    and certify Lambda (+) -Lambda inside the box; the final state is
    certified once more, and its inverse norm and decay fit are those of F'
    on its Lambda_R, through the frame of its last step.  min_block_value
    is the final gate's, inf when no resonance block of Lambda (+) -Lambda
    lies in the box.  Each state
    carries its iterate's symbols (the seed's given or built by
    `first_iteration`).  Lambda (+) -Lambda inside the box depends on the
    spec and the box alone, so its `LatticeBox` is built once, here, and
    every gate reads it."""
    if box is None:
        box = default_box(spec)
    condition_reports = _admissible(spec, box, condition_reports, m_max)
    lattice = lattice_box(spec, box)

    state, modreport = first_iteration(
        spec, box=box, condition_reports=condition_reports,
        kappa=kappa, gamma=gamma, dio_radius=dio_radius, m_max=m_max,
        eps_second=eps_second, tol=tol, symbols=symbols, lattice=lattice)

    u0, v0 = linear_solution(spec)
    omega0 = spec.omega0()
    history: List[Tuple[float, float]] = [modreport.seed_residual,
                                          (state.residual_plain, state.residual_weighted)]

    while state.residual_weighted > tol and state.step_index < max_iter:
        state = newton_step(state, spec, box, tol=tol, eps_second=eps_second, lattice=lattice)
        history.append((state.residual_plain, state.residual_weighted))

    converged = state.residual_weighted <= tol
    if not converged:
        raise ConvergenceError(
            f"no convergence after {state.step_index} steps "
            f"(weighted residual {state.residual_weighted:.3e})", history)

    # w_next / w_prev^2 per Newton step; a step landing within 1e2 of the
    # roundoff floor divides roundoff by a small square and is left out of quad_c.
    floor = 1e-13
    gains = [(w_next / w_prev ** 2, w_next) for (_, w_prev), (_, w_next)
             in zip(history[1:], history[2:]) if w_prev > floor and w_next > 0]
    ratios = [r for r, _ in gains]
    quad_c = max((r for r, w_next in gains if w_next > 1e2 * floor), default=None)

    min_block = admissibility_gate(state.omega, spec, box, state.symbols, eps_second, lattice)
    inverse_norm, decay = lattice_inverse(state.symbols, state.omega, spec, state.frame)

    # u vanishes off its support, so only its own sites can carry C \ S mass.
    s_set = set(u0.support()) | set(v0.support())
    off_seed = [s for s in state.u.support() if s not in s_set]
    tags, _ = branch_tags(np.array([s.n + s.j for s in off_seed], dtype=np.int64)
                          .reshape(-1, spec.b + spec.d), omega0)
    cs_mass = max((abs(state.u[s]) for s, t in zip(off_seed, tags.tolist()) if t),
                  default=0.0)

    pw = spec.delta ** (1.0 / (2 * spec.p))
    shifts = tuple(abs(wk - s.jsq() - spec.phase_m)
                   for wk, s in zip(state.omega.omega, spec.seed_sites()))
    return SolveReport(
        spec=spec, converged=converged, steps=state.step_index,
        omega=state.omega.omega, omega0=omega0.omega,
        delta_omega_first=modreport.delta_omega,
        omega_shifts=shifts,
        amplitudes_physical=tuple(pw * a for a in spec.amplitudes),
        residual_history=history, quad_ratios=ratios, quad_constant=quad_c,
        cs_mass=cs_mass, modulation=modreport,
        inverse_norm=inverse_norm, decay_beta=decay.beta_hat,
        decay_bound_ok=decay.bound_ok, min_block_value=min_block,
        lattice_sites=len(state.frame.points), state=state,
    )


# ---------------------------------------------------------------------------
# Excision sweep over the amplitude cube


# Samples per array pass of the sweep (the gathered block stacks hold one
# block per class, a few per sample).
SWEEP_CHUNK = 128
# Float cells (rows x candidates) of a Diophantine pass of 1 to SWEEP_CHUNK
# rows: its pair of buffers stays at 512 KB unless one row passes it (b >= 4).
DIO_CELLS = 2 ** 15
# Samples whose seed symbols are convolved together: the batched
# convolution's per-site Python work is paid once per group, and the
# group's symbol table stays at a few MB.
SYMBOL_CHUNK = 8 * SWEEP_CHUNK


@dataclass
class SweepResult:
    epsilons: List[float]
    fractions: List[float]
    counts: List[int]
    n_samples: int
    seed: int
    min_block_values: np.ndarray
    dio_kappas: np.ndarray
    kappa: float
    gamma: float


def excision_sweep(
    spec: ProblemSpec,
    epsilons: Sequence[float],
    n_samples: int = 1000,
    seed: int = 0,
    kappa: float = 1e-2,
    gamma: Optional[float] = None,
    dio_radius: Optional[int] = None,
    box: Optional[Box] = None,
) -> SweepResult:
    """Monte Carlo measure of the excised amplitude set.

    Samples a uniformly from (0, 1]^b, computes the delta-free normalized
    block determinants of the first-step operator and the Diophantine
    margin of the modulated frequency.  Fractions are computed per epsilon
    from a single sample set, hence monotone by construction.

    The blocks are the resonance-graph components, whose support pattern
    does not depend on a, so the graph is built once, on the supports of
    the first group's symbols.  Every block entry reads the term of its
    graph link (`component_terms`), times p + 1 for uv_p and p for uu or
    vv.  Components whose term matrices are equal give equal blocks in
    every sample, so one block per class of them is kept (`_sweep_classes`):
    5 blocks instead of 773 on tp3, 2 instead of 50 on tp2.  The samples
    then go through the array pass in groups of SYMBOL_CHUNK, so memory does
    not grow with n_samples: a group's seed symbols and Q brackets are
    convolved at once (`_seed_symbols_batch`), its scaled terms form one
    table (`_term_table`), and per SWEEP_CHUNK samples det runs once per
    block size over a (chunk, n_classes, k, k) stack.  The Diophantine scan,
    at radius min(10, dio_radius), dio_radius `default_dio_radius` if none,
    runs in passes of at most DIO_CELLS cells and divides only each row's
    smallest margin x |n|^gamma by delta: rounded division by delta > 0 is
    monotone, so that is the smallest quotient to the bit.  Every value is
    bitwise that of building each sample's fields, symbols, blocks,
    `q_solve` and `diophantine_check` one sample at a time.
    """
    if n_samples < 100:
        raise NewtonError("n_samples must be at least 100")
    if gamma is None:
        gamma = 2 * spec.b + 2
    if box is None:
        box = default_box(spec)
    dio_radius = min(10, default_dio_radius(spec.b) if dio_radius is None else dio_radius)

    p = spec.p

    rng = np.random.default_rng(seed)
    samples = 1.0 - rng.random((n_samples, spec.b))  # uniform on (0, 1]
    outside = ~((samples > 0.0) & (samples <= 1.0)).all(axis=1)
    if outside.any():
        spec.with_amplitudes(samples[np.argmax(outside)])  # raises SpecError

    jsq_m = np.array([s.jsq() + spec.phase_m for s in spec.seed_sites()])
    min_vals = np.empty(n_samples)
    dio_vals = np.empty(n_samples)
    n_cands = len(_dio_table(spec.b, dio_radius, gamma)[0])
    dio_rows = min(SWEEP_CHUNK, max(1, DIO_CELLS // n_cands))
    dio_work = np.empty((2, dio_rows, n_cands))
    classes = None
    for start in range(0, n_samples, SYMBOL_CHUNK):
        group = slice(start, start + SYMBOL_CHUNK)
        amps, group_min, group_dio = samples[group], min_vals[group], dio_vals[group]
        # q_solve's realness test and frequency formula, in its evaluation order.
        uv_p, uu, vv, bracket = _seed_symbols_batch(spec, amps)
        nonreal = np.abs(bracket.imag) > 1e-12 * np.maximum(1.0, np.abs(bracket.real))
        if nonreal.any():
            i, k = np.argwhere(nonreal)[0]
            raise NonRealFrequency(f"Q bracket at mode {spec.modes[k][0]} has imaginary "
                                   f"part {bracket[i, k].imag:.3e}")
        omegas = jsq_m + spec.delta * bracket.real / amps
        terms = ((p + 1, uv_p), (p, uu), (p, vv))
        if classes is None:  # every group's symbols have the same sites
            supports = [sorted(sym) for _, sym in terms]
            classes = _sweep_classes(resonance_graph(spec, box, supports), supports)
        table = _term_table(terms, supports, len(amps))
        for lo in range(0, len(amps), SWEEP_CHUNK):
            rows = slice(lo, lo + SWEEP_CHUNK)
            worst = np.full(len(amps[rows]), math.inf)
            for _, at in classes:
                dets = np.linalg.det(table[rows, at])
                # np.hypot equals Python's abs() of a complex bit for bit;
                # numpy's vectorised complex abs can differ in the last bit.
                worst = np.minimum(worst, np.hypot(dets.real, dets.imag).min(axis=1))
            group_min[rows] = worst
        for lo in range(0, len(amps), dio_rows):
            weighted = _dio_scan(omegas[lo:lo + dio_rows], gamma, dio_radius, dio_work)[0]
            np.divide(weighted.min(axis=1), spec.delta, out=group_dio[lo:lo + dio_rows])
        del uv_p, uu, vv, bracket, terms, table  # freed before the next group is built

    eps_list = list(epsilons)
    counts = [int(np.sum(min_vals < eps)) for eps in eps_list]
    return SweepResult(epsilons=eps_list, fractions=[c / n_samples for c in counts], counts=counts,
                       n_samples=n_samples, seed=seed, min_block_values=min_vals,
                       dio_kappas=dio_vals, kappa=kappa, gamma=gamma)


BatchSeries = Dict[SiteIndex, np.ndarray]


def _batch_drop(terms: BatchSeries) -> BatchSeries:
    """`SparseSeries`'s drop rule, per sample, on sites mapped to (N,)
    arrays: a value is kept if it is nonzero and its modulus exceeds
    DROP_TOL times the largest modulus of its sample, else set to 0."""
    sites = sorted(terms)
    vals = np.array([terms[s] for s in sites])
    mods = np.hypot(vals.real, vals.imag)  # abs() of a complex, bit for bit
    keep = (vals != 0) & (mods > DROP_TOL * mods.max(axis=0))
    return dict(zip(sites, np.where(keep, vals, 0)))


def _batch_convolve(f: BatchSeries, g: BatchSeries) -> BatchSeries:
    """`lattice.convolve` for N samples at once: the same sorted term order
    and sums (`convolve_sorted`), then the drop rule per sample.  A term
    dropped from a sample is 0 there, so it adds only signed zeros, which
    change no nonzero sum.

    numpy's complex products equal Python's here only because every seed
    value is real (imaginary part +-0): numpy may fuse a complex product's
    multiply and add, and on random complex operands it differs from
    Python's in the last bit for about 44 % of products."""
    first = next(iter(f))
    return _batch_drop(convolve_sorted(sorted(f.items()), sorted(g.items()), first.b, first.d))


def _seed_symbols_batch(spec: ProblemSpec, amps: np.ndarray
                        ) -> Tuple[BatchSeries, BatchSeries, BatchSeries, np.ndarray]:
    """Convolution symbols of the linear seed for N amplitude vectors
    (rows of amps) at once.

    Returns uv_p, uu and vv as maps from sites to (N,) arrays, equal sample
    by sample to `ConvolutionSymbols.from_fields` of the seed fields of
    `spec.with_amplitudes(a)`, with 0 where that series has no term, and
    the Q bracket [(u*v)^{*p} * u] at the seed sites as an (N, b) array,
    equal to the one `q_solve` reads.
    """
    u = {s: amps[:, k].astype(complex) for k, s in enumerate(spec.seed_sites())}
    v = {-s: np.conj(val) for s, val in u.items()}
    uv = _batch_convolve(u, v)
    origin = SiteIndex((0,) * spec.b, (0,) * spec.d)
    uv_pm1 = {origin: np.ones(len(amps), dtype=complex)}
    for _ in range(spec.p - 1):
        uv_pm1 = _batch_convolve(uv_pm1, uv)
    uv_p = _batch_convolve(uv_pm1, uv)
    uu = _batch_convolve(uv_pm1, _batch_convolve(u, u))
    vv = {-s: np.conj(val) for s, val in uu.items()}
    gu = _batch_convolve(uv_p, u)
    bracket = np.stack([gu[s] for s in spec.seed_sites()], axis=1)
    return uv_p, uu, vv, bracket


def _term_table(terms: Sequence[Tuple[int, BatchSeries]],
                supports: Sequence[Sequence[SiteIndex]], n: int) -> np.ndarray:
    """The sweep's (n, n_terms + 1) table of n samples: coef times each
    symbol of the (coef, symbol) pairs of terms at the sites of supports in
    turn, then a column of zeros, read where no term is."""
    cols = [coef * sym[s] for (coef, sym), sup in zip(terms, supports) for s in sup]
    return np.array(cols + [np.zeros(n)], dtype=complex).T


def _sweep_classes(graph: ResonanceGraph, supports: Sequence[Sequence[SiteIndex]]
                   ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One block per class of equal blocks: per block size, ascending, the
    (n_classes, k) members of the first component of each class and their
    (n_classes, k, k) term matrices, `component_terms` of the graph's links,
    which read the supports.

    Two components of one size fall in the same class when their term
    matrices are equal: their blocks then read the same term entry by
    entry, so they are equal in every sample and one det stands for all of
    them.  Classes keep the order of their first components.
    """
    out = []
    for k, terms in component_terms(len(graph.vertices), graph.order, graph.bounds,
                                    graph.links, supports[0]).items():
        ids = row_keys(terms.reshape(len(terms), k * k))
        by_id = np.argsort(ids, kind="stable")
        first = np.sort(by_id[np.diff(ids[by_id], prepend=-1) != 0])
        out.append((members_of_size(graph.order, graph.bounds, k)[first], terms[first]))
    return out
