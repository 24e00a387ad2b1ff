"""Lyapunov-Schmidt iteration for the lattice system.

Each step solves the off-seed (P) equations by one certified Newton update
at the frequency that currently solves the seed (Q) equations, then
re-solves the Q equations at the new point.  The first step carries the
whole construction: it is where the exactly resonant integer frequency
picks up its amplitude modulation and becomes Diophantine.  The update
lives on the conservation lattice Lambda (u on Lambda, v on -Lambda),
truncated at a radius R that grows with the residual; the admissibility
certificate covers the whole truncation box.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    BoxVariety,
    ConvolutionSymbols,
    ResonanceGraph,
    box_lattice_radius,
    box_variety,
    branch_tags,
    conservation_sites,
    lattice_generation,
    members_of_size,
)
from .conditions import ConditionReport, check_condition_i, check_condition_ii
from .lattice import (
    DROP_TOL,
    Box,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    conjugate_flip,
    conv_power,
    convolve,
    default_box,
    linear_solution,
)
from .linop import admissibility_gate, lattice_inverse, lattice_operator
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
    lattice_radius: int  # R of the step's Lambda_R; for the seed, the box's


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
                    spec: ProblemSpec) -> Tuple[SparseSeries, SparseSeries]:
    """Full sparse residual of the doubled system at (u, v, omega):
    delta (u*v)^{*p} * u + (n.omega + |j|^2 + m) u, and the same for v with
    -n.omega."""
    m = spec.phase_m
    uv_p = conv_power(convolve(u, v), spec.p)

    def part(f: SparseSeries, sign: int) -> SparseSeries:
        diagonal = SparseSeries(f.b, f.d, {s: (sign * omega.dot(s.n) + s.jsq() + m) * val
                                           for s, val in f.items()}, drop_tol=0.0)
        return convolve(uv_p, f).scale(spec.delta).add(diagonal)

    return part(u, 1), part(v, -1)


def residual_norms(u, v, omega, spec) -> Tuple[float, float]:
    """Plain and weighted (`default_weight`) norms of the whole residual."""
    fu, fv = residual_series(u, v, omega, spec)
    weight = default_weight(spec)
    return (math.hypot(fu.norm2(), fv.norm2()),
            math.hypot(weighted_norm(fu, weight), weighted_norm(fv, weight)))


def q_solve(u: SparseSeries, spec: ProblemSpec) -> FrequencyVector:
    """Frequencies solving the 2b seed-mode equations at the given u:
    omega_k = |j_k|^2 + m + (delta / a_k) [(u*v)^{*p} * u](-e_k, j_k).
    A bracket whose imaginary part exceeds 1e-12 of max(1, |real part|)
    raises NonRealFrequency."""
    v = conjugate_flip(u)
    gu = convolve(conv_power(convolve(u, v), spec.p), u)
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
    variety: BoxVariety,
    tol: float = 1e-11,
    eps_first: float = 1e-4,
    eps_second: float = 0.5,
) -> IterationState:
    """One P-then-Q update.

    The step first certifies the whole box of the variety at the frequency
    solving the Q equations for the current u (`admissibility_gate`).  The
    linear solve then runs on Lambda_R, R the state's radius grown until at
    most tol / 2 of the weighted residual lies off it (`_lattice_radius`):
    one dense LU of F' there, off the 2b seed equations, so seed
    amplitudes are anchored exactly and the post-step residual picks up
    the full quadratic (delta-cubed) gain of the scheme.  After the first
    step, a step that grows the weighted residual more than 1.5-fold
    raises StepRejected.
    """
    u, v = state.u, state.v
    omega_work = q_solve(u, spec)
    symbols = ConvolutionSymbols.from_fields(u, v, spec.p)
    admissibility_gate(omega_work, spec, variety, symbols,
                       eps_first=eps_first, eps_second=eps_second)

    fu, fv = residual_series(u, v, omega_work, spec)
    radius = _lattice_radius(state.lattice_radius, fu, fv, spec, tol)
    sites = conservation_sites(spec, radius)
    mat, keep = lattice_operator(symbols, omega_work, spec, sites)
    points = [SiteIndex(tuple(r[:spec.b]), tuple(r[spec.b:])) for r in sites.tolist()]
    rhs = np.array([fu[s] for s in points] + [fv[-s] for s in points], dtype=complex)
    step = np.zeros(len(rhs), dtype=complex)
    step[keep] = np.linalg.solve(mat[np.ix_(keep, keep)], rhs[keep])

    du = SparseSeries(u.b, u.d, {s: x for s, x in zip(points, step[:len(points)].tolist())
                                 if x != 0}, drop_tol=0.0)
    u_next = u.sub(du).clean()
    v_next = conjugate_flip(u_next)
    omega_next = q_solve(u_next, spec)
    plain, weighted = residual_norms(u_next, v_next, omega_next, spec)

    if weighted > max(1.5 * state.residual_weighted, 1e-13) and state.step_index > 0:
        raise StepRejected(
            f"step {state.step_index + 1}: weighted residual grew "
            f"{state.residual_weighted:.3e} -> {weighted:.3e}")
    return IterationState(u=u_next, v=v_next, omega=omega_next,
                          residual_plain=plain, residual_weighted=weighted,
                          step_index=state.step_index + 1, lattice_radius=radius)


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


def analytic_q_jacobian(spec: ProblemSpec) -> np.ndarray:
    """Exact d(omega)/d(a) at the seed, by differentiating the convolution."""
    u0, v0 = linear_solution(spec)
    p = spec.p
    uv = convolve(u0, v0)
    uv_pm1 = conv_power(uv, p - 1)
    uv_p = convolve(uv_pm1, uv)
    gu = convolve(uv_p, u0)
    seeds = spec.seed_sites()
    amps = spec.amplitudes
    jac = np.zeros((spec.b, spec.b))
    for mcol in range(spec.b):
        du = SparseSeries(spec.b, spec.d, {seeds[mcol]: 1.0 + 0j}, drop_tol=0.0)
        dv = conjugate_flip(du)
        duv = convolve(du, v0).add(convolve(u0, dv))
        dg = convolve(convolve(uv_pm1, duv), u0).scale(p).add(convolve(uv_p, du))
        for k in range(spec.b):
            gk = gu[seeds[k]].real
            dgk = dg[seeds[k]].real
            jac[k, mcol] = spec.delta * (dgk * amps[k] - gk * (1.0 if k == mcol else 0.0)) \
                / amps[k] ** 2
    return jac


def fd_q_jacobian(spec: ProblemSpec, h: float = 1e-7) -> np.ndarray:
    """d(omega)/d(a) at the seed by central differences of `q_solve`."""
    jac = np.zeros((spec.b, spec.b))
    a0 = np.array(spec.amplitudes)
    for mcol in range(spec.b):
        ap = a0.copy(); ap[mcol] += h
        am = a0.copy(); am[mcol] -= h
        spec_p, spec_m = spec.with_amplitudes(ap), spec.with_amplitudes(am)
        wp = np.array(q_solve(linear_solution(spec_p)[0], spec_p).omega)
        wm = np.array(q_solve(linear_solution(spec_m)[0], spec_m).omega)
        jac[:, mcol] = (wp - wm) / (2 * h)
    return jac


def default_dio_radius(b: int) -> int:
    """Scan radius keeping the exhaustive candidate set around 10^6.

    The scan enumerates (2r+1)^b integer vectors, so the affordable radius
    drops quickly with the number of frequencies.
    """
    return {1: 20, 2: 20, 3: 12, 4: 8}.get(b, 5)


@functools.lru_cache(maxsize=16)
def _dio_candidates(b: int, n_radius: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical representatives n (first nonzero positive), sorted by
    (sup norm, l1 norm, preferring earlier coordinates).  Built once per
    (b, n_radius) and shared by every scan."""
    cands = set()
    for n in itertools.product(range(-n_radius, n_radius + 1), repeat=b):
        if all(x == 0 for x in n):
            continue
        for x in n:
            if x != 0:
                if x < 0:
                    n = tuple(-y for y in n)
                break
        cands.add(n)
    return tuple(sorted(cands, key=lambda n: (max(abs(x) for x in n),
                                              sum(abs(x) for x in n),
                                              tuple(-x for x in n))))


@functools.lru_cache(maxsize=16, typed=True)
def _dio_table(b: int, n_radius: int, gamma: float
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The candidates of `_dio_candidates` as an int64 array, and |n|^gamma
    (sup norm) of each, taken with Python's `**` so that an int gamma stays
    exact up to the one rounding of `float`."""
    cands = _dio_candidates(b, n_radius)
    weights = np.array([float(max(abs(c) for c in n) ** gamma) for n in cands])
    table = np.array(cands, dtype=np.int64).reshape(len(cands), b)
    table.setflags(write=False)  # shared by every scan through the cache
    weights.setflags(write=False)
    return table, weights


def _dio_scan(omegas: np.ndarray, delta: float, gamma: float, n_radius: int
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan of every candidate n for each row of an (N, b) frequency array:
    per row the index of the first minimiser of ||n.omega||_T |n|^gamma /
    delta in `_dio_candidates`, that fitted kappa, and ||n.omega||_T there.

    The arithmetic is that of a per-candidate `omega.dot(n)` scan, so the
    result is the same to the bit: n.omega summed left to right as in
    `FrequencyVector.dot`, `np.rint` rounding half to even as `round` does,
    and the first minimum kept.
    """
    if n_radius < 1:
        raise NewtonError("n_radius must be >= 1")
    cands, weights = _dio_table(omegas.shape[1], n_radius, gamma)
    x = 0
    for k in range(omegas.shape[1]):
        x = x + cands[:, k] * omegas[:, k, None]
    margins = np.abs(x - np.rint(x))
    fitted = margins * weights / delta
    best = np.argmin(fitted, axis=1)
    rows = np.arange(len(best))
    return best, fitted[rows, best], margins[rows, best]


def diophantine_check(omega: FrequencyVector, delta: float, kappa: float,
                      gamma: float, n_radius: int) -> DiophantineReport:
    """Exhaustive scan of ||n.omega||_T >= kappa*delta/|n|^gamma over the box.

    |n| is the sup norm; the fitted kappa (the smallest normalized margin)
    is reported alongside the worst offender.  All candidates are scanned
    at once by `_dio_scan`, bitwise as a per-candidate scan would.
    """
    best, fitted, margins = _dio_scan(np.array([omega.omega], dtype=float), delta,
                                      gamma, n_radius)
    fitted_kappa = float(fitted[0])
    return DiophantineReport(passed=bool(fitted_kappa >= kappa),
                             worst_n=_dio_candidates(len(omega), n_radius)[int(best[0])],
                             worst_margin=float(margins[0]), fitted_kappa=fitted_kappa,
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
    eps_first: float = 1e-4,
    eps_second: float = 0.5,
    tol: float = 1e-11,
    variety: Optional[BoxVariety] = None,
) -> Tuple[IterationState, ModulationReport]:
    """Seed -> first corrected state, with the modulation diagnostics.

    Refuses to run unless both admissibility conditions pass.  Reports
    passed in are used as they are; a condition without one ("i" or "ii")
    is checked here, so each is decided once.  Condition (i) is how the
    error term enters the first bound: it must avoid its resonant set off
    the seed support.  The returned delta-omega is the exact first-order
    modulation, evaluated at the seed.  The lattice radius starts at the
    smallest R whose Lambda_R holds Lambda inside the box.  The step reads
    the box's `box_variety`, built here unless given.
    """
    if box is None:
        box = default_box(spec)
    if gamma is None:
        gamma = 2 * spec.b + 2
    if dio_radius is None:
        dio_radius = default_dio_radius(spec.b)
    _admissible(spec, box, condition_reports, m_max)

    u0, v0 = linear_solution(spec)
    omega0 = spec.omega0()

    plain0, weighted0 = residual_norms(u0, v0, omega0, spec)
    state0 = IterationState(u=u0, v=v0, omega=omega0, residual_plain=plain0,
                            residual_weighted=weighted0, step_index=0,
                            lattice_radius=box_lattice_radius(spec, box))

    omega1 = q_solve(u0, spec)
    delta_omega = tuple(w1 - w0 for w1, w0 in zip(omega1.omega, omega0.omega))
    dio = diophantine_check(omega1, spec.delta, kappa, gamma, dio_radius)
    report = ModulationReport(delta_omega=delta_omega,
                              jac_det=float(np.linalg.det(analytic_q_jacobian(spec))),
                              diophantine=dio, seed_residual=(plain0, weighted0))

    if variety is None:
        variety = box_variety(omega0, spec.d, box)
    state1 = newton_step(state0, spec, variety, tol=tol, eps_first=eps_first,
                         eps_second=eps_second)
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
    quad_ratios: List[float]
    quad_constant: Optional[float]
    cs_mass: float                           # max |u| on C \ S
    modulation: ModulationReport
    inverse_norm: float                      # ||F'^{-1}|| on Lambda_R, off the seed equations
    decay_beta: float
    decay_bound_ok: bool
    invert_mode: str
    min_block_value: float
    lattice_sites: int                       # sites of Lambda_R
    state: IterationState
    box: Box

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
    eps_first: float = 1e-4,
    eps_second: float = 0.5,
) -> SolveReport:
    """Iterate Newton steps until the weighted residual, taken in full,
    drops below tol; report frequencies, certificates and convergence data.

    The steps run on Lambda_R with R grown from the residual (`newton_step`)
    and certify the whole box; the final state is certified once more, and
    its inverse norm and decay fit are those of F' on its Lambda_R.  All
    certificates read one `box_variety`."""
    if box is None:
        box = default_box(spec)
    condition_reports = _admissible(spec, box, condition_reports, m_max)
    variety = box_variety(spec.omega0(), spec.d, box)

    state, modreport = first_iteration(
        spec, box=box, condition_reports=condition_reports,
        kappa=kappa, gamma=gamma, dio_radius=dio_radius, m_max=m_max,
        eps_first=eps_first, eps_second=eps_second, tol=tol, variety=variety)

    u0, v0 = linear_solution(spec)
    omega0 = spec.omega0()
    history: List[Tuple[float, float]] = [modreport.seed_residual,
                                          (state.residual_plain, state.residual_weighted)]

    while state.residual_weighted > tol and state.step_index < max_iter:
        state = newton_step(state, spec, variety, tol=tol, eps_first=eps_first,
                            eps_second=eps_second)
        history.append((state.residual_plain, state.residual_weighted))

    converged = state.residual_weighted <= tol
    if not converged:
        raise ConvergenceError(
            f"no convergence after {state.step_index} steps "
            f"(weighted residual {state.residual_weighted:.3e})", history)

    floor = 1e-13
    ratios = []
    for (p_prev, w_prev), (p_next, w_next) in zip(history[1:], history[2:]):
        if w_prev > floor and w_next > 0:
            ratios.append(w_next / w_prev ** 2)
    quad_c = max(ratios) if ratios else None

    symbols = ConvolutionSymbols.from_fields(state.u, state.v, spec.p)
    mode, min_block = admissibility_gate(state.omega, spec, variety, symbols,
                                         eps_first=eps_first, eps_second=eps_second)
    sites = conservation_sites(spec, state.lattice_radius)
    inverse_norm, decay = lattice_inverse(symbols, state.u, state.omega, spec, sites)

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
        decay_bound_ok=decay.bound_ok, invert_mode=mode, min_block_value=min_block,
        lattice_sites=len(sites), state=state, box=box,
    )


# ---------------------------------------------------------------------------
# Excision sweep over the amplitude cube


# Samples per array pass of the sweep: keeps the Diophantine margin table
# of a pass, the largest array it makes, at a few MB (the gathered block
# stacks hold one block per class, a few per sample).
SWEEP_CHUNK = 128
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
    dio_radius: int = 10,
    box: Optional[Box] = None,
) -> SweepResult:
    """Monte Carlo measure of the excised amplitude set.

    Samples a uniformly from (0, 1]^b, computes the delta-free normalized
    block determinants of the first-step operator and the Diophantine
    margin of the modulated frequency.  Fractions are computed per epsilon
    from a single sample set, hence monotone by construction.

    The blocks are the resonance-graph components, whose support pattern
    does not depend on a, so the graph and a gather plan are built once:
    every block entry reads one symbol at one shift (the difference of its
    two sites), the diagonal symbol (p+1) (u*v)^{*p} between equal branch
    tags, p uu from a C+ row to a C- column and p vv the other way.
    Components that are lattice translates with the same kind pattern give
    equal blocks in every sample, so the plan keeps one block per class of
    them (`_sweep_gather_plan`): 5 blocks instead of 773 on tp3, 2 instead
    of 50 on tp2.  The samples then go through the array pass in groups of
    SYMBOL_CHUNK, so memory does not grow with n_samples: a group's seed
    symbols and Q brackets are convolved at once (`_seed_symbols_batch`),
    the symbols at the distinct shifts form one (group, 3, n_shifts) table,
    and per SWEEP_CHUNK samples det runs once per block size over a
    (chunk, n_classes, k, k) stack and the Diophantine scan once.  Every
    value is bitwise that of building each sample's fields, symbols, blocks,
    `q_solve` and `diophantine_check` one sample at a time: equal blocks
    have equal dets.
    """
    if n_samples < 100:
        raise NewtonError("n_samples must be at least 100")
    if gamma is None:
        gamma = 2 * spec.b + 2
    if box is None:
        box = default_box(spec)
    from .characteristics import resonance_graph

    u_t, v_t = linear_solution(spec)
    graph = resonance_graph(u_t, v_t, spec, spec.omega0(), box)
    shift_sites, plan = _sweep_gather_plan(graph, spec.b)
    p = spec.p

    rng = np.random.default_rng(seed)
    samples = 1.0 - rng.random((n_samples, spec.b))  # uniform on (0, 1]
    outside = ~((samples > 0.0) & (samples <= 1.0)).all(axis=1)
    if outside.any():
        spec.with_amplitudes(samples[np.argmax(outside)])  # raises SpecError

    jsq_m = np.array([s.jsq() + spec.phase_m for s in spec.seed_sites()])
    min_vals = np.empty(n_samples)
    dio_vals = np.empty(n_samples)
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
        if plan:
            zero = np.zeros(len(amps), dtype=complex)
            table = np.stack([np.stack([coef * sym.get(dd, zero) for dd in shift_sites],
                                       axis=1)
                              for coef, sym in ((p + 1, uv_p), (p, uu), (p, vv))], axis=1)
        for lo in range(0, len(amps), SWEEP_CHUNK):
            rows = slice(lo, lo + SWEEP_CHUNK)
            worst = np.full(len(amps[rows]), math.inf)
            for kind, shift_id in plan:
                dets = np.linalg.det(table[rows, kind, shift_id])
                # np.hypot equals Python's abs() of a complex bit for bit;
                # numpy's vectorised complex abs can differ in the last bit.
                worst = np.minimum(worst, np.hypot(dets.real, dets.imag).min(axis=1))
            group_min[rows] = worst
            group_dio[rows] = _dio_scan(omegas[rows], spec.delta, gamma, dio_radius)[1]

    eps_list = list(epsilons)
    fractions, counts = [], []
    for eps in eps_list:
        cnt = int(np.sum(min_vals < eps))
        counts.append(cnt)
        fractions.append(cnt / n_samples)
    return SweepResult(epsilons=eps_list, fractions=fractions, counts=counts,
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
    """`lattice.convolve` for N samples at once: the same sorted term order,
    then the drop rule per sample.  A term dropped from a sample is 0 there,
    so it adds only signed zeros, which change no nonzero sum."""
    out: BatchSeries = {}
    for s1 in sorted(f):
        for s2 in sorted(g):
            s = s1 + s2
            out[s] = out.get(s, 0j) + f[s1] * g[s2]
    return _batch_drop(out)


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


def _sweep_gather_plan(graph: ResonanceGraph, b: int
                       ) -> Tuple[List[SiteIndex], List[Tuple[np.ndarray, np.ndarray]]]:
    """One block per class of equal blocks: the distinct site differences
    inside the class representatives, and per block size the stacked
    (kind, shift id) of every representative's entries: kind 0 reads the
    diagonal symbol, 1 the uu symbol, 2 the vv symbol.

    Two components of one size fall in the same class when their members,
    taken relative to the first member, sit at the same offsets and have
    the same kind matrix.  Their blocks then read the same symbol at the
    same shift entry by entry, so they are equal in every sample and one
    det stands for all of them.  Members ascend lexicographically, an order
    a lattice translation keeps, so translates line up member by member.
    The representative of a class is its first component.
    """
    coords, tags = graph.vertices, graph.tags
    reps, kinds = [], []
    for k in np.unique(np.diff(graph.bounds)).tolist():
        m = members_of_size(graph.order, graph.bounds, k)
        rel = coords[m] - coords[m[:, :1]]
        row_tag, col_tag = tags[m][:, :, None], tags[m][:, None, :]
        kind = np.where(row_tag == col_tag, 0, np.where(row_tag > 0, 1, 2))
        key = np.concatenate([rel.reshape(len(m), -1), kind.reshape(len(m), -1)], axis=1)
        first = np.sort(np.unique(key, axis=0, return_index=True)[1])
        reps.append(m[first])
        kinds.append(kind[first])
    diffs = [coords[m][:, :, None, :] - coords[m][:, None, :, :] for m in reps]
    if not diffs:
        return [], []
    flat = np.concatenate([d.reshape(-1, coords.shape[1]) for d in diffs])
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    shift_sites = [SiteIndex(tuple(r[:b]), tuple(r[b:])) for r in uniq.tolist()]
    plan = []
    start = 0
    for kind, d in zip(kinds, diffs):
        count = d.shape[0] * d.shape[1] * d.shape[2]
        plan.append((kind, inverse.reshape(-1)[start:start + count].reshape(d.shape[:3])))
        start += count
    return shift_sites, plan
