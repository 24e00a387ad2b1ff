"""Configuration, commands and report serialization.

Config files are plain `key = value` sections.  Reports are nested
key-value text, solutions are site/amplitude tables (integers plus two
reals per line), sweeps are flat CSV: everything diff-friendly, nothing
binary.  Identical config and seed produce byte-identical artifacts except
for the generated_at header field.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import newton, verify
from .characteristics import ConvolutionSymbols, seed_symbols
from .conditions import (
    ConditionReport,
    check_condition_i,
    check_condition_ii,
    oned_check,
    rank_check_momenta,
    symbol_supports,
)
from .lattice import (
    Box,
    BoxTooLarge,
    FrequencyVector,
    ProblemSpec,
    SiteIndex,
    SparseSeries,
    SpecError,
    conjugate_flip,
    default_box,
)
from .linop import ExcisionError, LinopError, OffCharDiagonalError
from .newton import ConditionGateError, ConvergenceError, NonRealFrequency, StepRejected


class ConfigError(ValueError):
    pass


class SolutionError(ConfigError):
    """A solution file that cannot be read or does not describe a solution."""


# ---------------------------------------------------------------------------
# RunConfig
#
# Each section after [problem] is declared once, by its dataclass: a field's
# name is its key, its annotation picks the parser and formatter in
# _CODECS, and its default is the value of an absent or empty key.  The
# schema, `parse_config` and `serialize_config` are derived from these.


@dataclass
class TruncationCfg:
    n_radius: Optional[int] = None
    j_radius: Optional[int] = None


@dataclass
class ConditionsCfg:
    m_max: int = 8
    search_radius: int = 30
    graph_n_radius: Optional[int] = None
    graph_j_radius: Optional[int] = None


@dataclass
class NewtonCfg:
    tol: float = 1e-11
    max_iter: int = 12
    eps_second: float = 0.5
    kappa: float = 1e-2
    gamma: Optional[float] = None
    dio_radius: Optional[int] = None


@dataclass
class VerifyCfg:
    T: float = 100.0
    dt: float = 0.1
    t_points: int = 64
    x_points: int = 33


@dataclass
class SweepCfg:
    epsilons: Tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    n_samples: int = 1000
    seed: int = 1234


@dataclass
class RunConfig:
    problem: ProblemSpec
    truncation: TruncationCfg = field(default_factory=TruncationCfg)
    conditions: ConditionsCfg = field(default_factory=ConditionsCfg)
    newton: NewtonCfg = field(default_factory=NewtonCfg)
    verify: VerifyCfg = field(default_factory=VerifyCfg)
    sweep: SweepCfg = field(default_factory=SweepCfg)

    def box(self) -> Box:
        t = self.truncation
        if t.n_radius is not None and t.j_radius is not None:
            return Box(n_radius=t.n_radius, j_radius=t.j_radius)
        base = default_box(self.problem)
        return Box(n_radius=t.n_radius or base.n_radius,
                   j_radius=t.j_radius or base.j_radius)

    def condition_box(self) -> Box:
        c = self.conditions
        base = self.box()
        if c.graph_n_radius is None and c.graph_j_radius is None:
            # Keep the graph box affordable for many frequencies.
            nr = max(2, min(base.n_radius, 9 // max(1, self.problem.b - 1)))
            return Box(n_radius=nr if self.problem.b > 1 else base.n_radius,
                       j_radius=base.j_radius)
        return Box(n_radius=c.graph_n_radius or base.n_radius,
                   j_radius=c.graph_j_radius or base.j_radius)


_MODE_RE = re.compile(r"\(([^)]*)\)\s*:\s*([^,]+)")


def _finite(value: str) -> float:
    """A config float: inf and nan (and what overflows to inf) are refused."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value.strip()} is not a finite number")
    return x


def _conv_float_list(value: str) -> Tuple[float, ...]:
    return tuple(_finite(x) for x in value.split(",") if x.strip())


# (parse, format) of a value, per field annotation; None formats as empty.
_CODECS: Dict[str, Tuple[Callable[[str], object], Callable[[object], str]]] = {
    "int": (int, str),
    "Optional[int]": (int, str),
    "float": (_finite, repr),
    "Optional[float]": (_finite, repr),
    "Tuple[float, ...]": (_conv_float_list, lambda v: ", ".join(repr(x) for x in v)),
}

# Section name -> its dataclass, in RunConfig order.
_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig) if f.name != "problem"}

_SCHEMA = {
    "problem": {"d", "b", "p", "delta", "phase_m", "modes"},
    **{sec: {f.name for f in fields(cls)} for sec, cls in _SECTIONS.items()},
}


def _parse_sections(text: str) -> Dict[str, Dict[str, Tuple[str, int]]]:
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        sections[current][key] = (value, lineno)
    return sections


def _get(sections, sec, key, conv, default):
    if sec not in sections or key not in sections[sec]:
        return default
    value, lineno = sections[sec][key]
    if value == "":
        return default
    try:
        return conv(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"line {lineno}: bad value for {sec}.{key}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; unknown keys are rejected with the
    offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text)


def parse_config(text: str) -> RunConfig:
    sections = _parse_sections(text)
    if "problem" not in sections:
        raise ConfigError("missing [problem] section")
    for key in ("d", "b", "p", "delta", "modes"):
        if sections["problem"].get(key, ("", 0))[0] == "":  # absent or empty
            raise ConfigError(f"missing required key problem.{key}")

    d = _get(sections, "problem", "d", int, None)
    b = _get(sections, "problem", "b", int, None)
    p = _get(sections, "problem", "p", int, None)
    delta = _get(sections, "problem", "delta", _finite, None)
    phase_m = _get(sections, "problem", "phase_m", _finite, 0.0)

    modes_text, modes_line = sections["problem"]["modes"]
    try:
        modes = _parse_modes(modes_text)
    except ValueError as exc:
        raise ConfigError(f"line {modes_line}: bad value for problem.modes: {exc}") from exc
    if not modes:
        raise ConfigError(f"line {modes_line}: modes must look like (j):a, ...")
    for text, j, _ in modes:
        if len(j) != d:
            raise ConfigError(
                f"line {modes_line}: mode {text} has {len(j)} coordinates, expected d={d}")
    try:
        problem = ProblemSpec(d=d, b=b, p=p, delta=delta,
                              modes=tuple((j, a) for _, j, a in modes), phase_m=phase_m)
    except SpecError as exc:
        raise ConfigError(f"line {modes_line}: {exc} "
                          f"(seed modes must satisfy j_k != 0, pairwise distinct, "
                          f"amplitudes in (0,1])") from exc

    cfg = RunConfig(problem=problem, **{
        sec: cls(**{f.name: _get(sections, sec, f.name, _CODECS[f.type][0], f.default)
                    for f in fields(cls)})
        for sec, cls in _SECTIONS.items()})
    # Validate the positivity invariants the schema cannot express.
    for name, val in (("m_max", cfg.conditions.m_max),
                      ("max_iter", cfg.newton.max_iter),
                      ("tol", cfg.newton.tol),
                      ("dt", cfg.verify.dt),
                      ("T", cfg.verify.T),
                      ("epsilons", min(cfg.sweep.epsilons, default=1.0))):
        if val <= 0:
            raise ConfigError(f"{name} must be positive")
    T, dt = cfg.verify.T, cfg.verify.dt
    if not math.isfinite(T / dt):  # verify takes round(T / dt) steps
        raise ConfigError(f"T = {T!r} over dt = {dt!r} is no finite step count")
    if T / dt <= 0.5:
        raise ConfigError(f"T = {T!r} rounds to no step of dt = {dt!r}")
    if cfg.sweep.n_samples < 100:  # the sweep's own floor, refused here as input
        raise ConfigError("n_samples must be at least 100")
    for name, val in (("n_radius", cfg.truncation.n_radius),
                      ("j_radius", cfg.truncation.j_radius),
                      ("dio_radius", cfg.newton.dio_radius),
                      ("graph_n_radius", cfg.conditions.graph_n_radius),
                      ("graph_j_radius", cfg.conditions.graph_j_radius)):
        if val is not None and val <= 0:
            raise ConfigError(f"{name} must be positive")
    # A negative search radius sizes no j' range; a negative gamma raises
    # 0.0 to a negative power in the Diophantine weights; numpy's generator
    # takes no negative seed.
    for name, val in (("search_radius", cfg.conditions.search_radius),
                      ("gamma", cfg.newton.gamma),
                      ("seed", cfg.sweep.seed)):
        if val is not None and val < 0:
            raise ConfigError(f"{name} must be non-negative")
    # The weights |n|^gamma stay finite at the solve's radius, which the
    # sweep's never passes.
    gamma = cfg.newton.gamma
    radius = cfg.newton.dio_radius or newton.default_dio_radius(b)
    try:
        float(radius ** (gamma or 0))  # no gamma set: the default 2b + 2 stays small
    except OverflowError:
        raise ConfigError(f"gamma = {gamma!r} overflows |n|^gamma at the Diophantine "
                          f"radius {radius}") from None
    return cfg


def _parse_modes(text: str) -> List[Tuple[str, Tuple[int, ...], float]]:
    """Each `(j):a` of a modes value: its text, j and a.  A bad or
    non-finite number raises ValueError."""
    return [(mt.group(0), tuple(int(x) for x in mt.group(1).replace(" ", "").split(",") if x),
             _finite(mt.group(2))) for mt in _MODE_RE.finditer(text)]


def _problem_lines(spec: ProblemSpec) -> List[str]:
    """The [problem] keys of a spec as `key = value` lines, as config files
    and solution tables write them."""
    modes = ", ".join(f"({','.join(str(c) for c in j)}):{a!r}" for j, a in spec.modes)
    return [f"d = {spec.d}", f"b = {spec.b}", f"p = {spec.p}", f"delta = {spec.delta!r}",
            f"phase_m = {spec.phase_m!r}", f"modes = {modes}"]


def serialize_config(cfg: RunConfig) -> str:
    lines = ["[problem]", *_problem_lines(cfg.problem), ""]
    for sec, cls in _SECTIONS.items():
        section = getattr(cfg, sec)
        lines.append(f"[{sec}]")
        for f in fields(cls):
            value = getattr(section, f.name)
            lines.append(f"{f.name} = {'' if value is None else _CODECS[f.type][1](value)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Report and solution serialization


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, SiteIndex):  # a NamedTuple, so before the tuples
        return str(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_report(sections: Dict[str, Dict[str, object]]) -> str:
    out = []
    for sec, kv in sections.items():
        out.append(f"[{sec}]")
        for key, value in kv.items():
            out.append(f"{key} = {_fmt(value)}")
        out.append("")
    return "\n".join(out)


def meta_section(cfg: RunConfig) -> Dict[str, object]:
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config_hash": config_hash(cfg),
    }


def write_solution(spec: ProblemSpec, omega: FrequencyVector, u: SparseSeries) -> str:
    """Physical-scale solution table: integers and two reals per line, so any
    other implementation can cross-check without parsing acrobatics."""
    lines = ["# nlsqp solution", *_problem_lines(spec),
             f"omega = {', '.join(repr(w) for w in omega.omega)}", "[u]"]
    for s, val in u.items():
        ints = " ".join(str(c) for c in (*s.n, *s.j))
        lines.append(f"{ints} {repr(val.real)} {repr(val.imag)}")
    lines.append("")
    return "\n".join(lines)


def read_solution(text: str) -> Tuple[ProblemSpec, FrequencyVector, SparseSeries]:
    """Parse a solution table written by `write_solution`; any text that is
    not one raises `SolutionError` with a one-line reason."""
    try:
        return _parse_solution(text)
    except KeyError as exc:
        raise SolutionError(f"missing header {exc}") from exc
    except ValueError as exc:  # bad numbers, and SpecError / DimensionMismatch
        raise SolutionError(str(exc)) from exc


def _parse_solution(text: str) -> Tuple[ProblemSpec, FrequencyVector, SparseSeries]:
    headers: Dict[str, str] = {}
    table: List[str] = []
    in_table = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[u]":
            in_table = True
            continue
        if in_table:
            table.append(line)
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            headers[key] = value
    d, b, p = int(headers["d"]), int(headers["b"]), int(headers["p"])
    modes = tuple((j, a) for _, j, a in _parse_modes(headers["modes"]))
    spec = ProblemSpec(d=d, b=b, p=p, delta=float(headers["delta"]),
                       modes=modes, phase_m=float(headers.get("phase_m", "0")))
    omega = FrequencyVector(tuple(float(x) for x in headers["omega"].split(",")))
    if len(omega) != b:
        raise ValueError(f"omega has {len(omega)} entries, expected b={b}")
    terms = {}
    for line in table:
        parts = line.split()
        if len(parts) != b + d + 2:
            raise ValueError(f"table line '{line}' has {len(parts)} fields, "
                             f"expected {b + d + 2}")
        ns = tuple(int(x) for x in parts[:b])
        js = tuple(int(x) for x in parts[b:b + d])
        amp = complex(float(parts[b + d]), float(parts[b + d + 1]))
        if not cmath.isfinite(amp):
            raise ValueError(f"table line '{line}' has a non-finite amplitude")
        terms[SiteIndex(ns, js)] = amp
    u = SparseSeries(b, d, terms, drop_tol=0.0)
    for s in spec.seed_sites():
        if s not in u:
            raise ValueError(f"the [u] table has no term at the seed site {s}")
    return spec, omega, u


# ---------------------------------------------------------------------------
# Commands

EXIT_OK = 0
EXIT_CONDITION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_EXCISED = 3
EXIT_CONFIG = 4
EXIT_VERIFY = 5
EXIT_BOX_TOO_LARGE = 6
EXIT_STEP_REJECTED = 7
EXIT_NON_REAL_FREQUENCY = 8
EXIT_OFF_CHAR_DIAGONAL = 9


def _condition_sections(cfg: RunConfig, symbols: ConvolutionSymbols
                        ) -> Tuple[Dict[str, Dict[str, object]], Dict[str, ConditionReport]]:
    """Report sections of the admissibility checks (of `seed_symbols`), and
    the verdicts of conditions (i) and (ii) on the condition box, keyed "i"
    and "ii"."""
    spec = cfg.problem
    box = cfg.condition_box()
    rep_i = check_condition_i(spec, symbols=symbols)
    rep_ii = check_condition_ii(spec, m_max=cfg.conditions.m_max, box=box, symbols=symbols)
    rank = rank_check_momenta(spec.j_list, spec.d)
    sections: Dict[str, Dict[str, object]] = {}
    section = sections["conditions.non_intersection"] = {
        "verdict": rep_i.verdict, "witness_count": len(rep_i.witnesses)}
    if rep_i.witnesses:
        first = rep_i.witnesses[0]
        section["first_witness"] = first["site"]
        if "rectangle" in first:  # p = 1: the corners in turn
            section["first_witness_rectangle"] = " ".join(
                f"({' '.join(map(str, j))})" for j in first["rectangle"])
    sections["conditions.non_spiral"] = {
        "verdict": rep_ii.verdict,
        "graph_vertices": rep_ii.details["graph"]["vertices"],
        "graph_max_component": rep_ii.details["graph"]["max_component"],
        "walk_verdict": rep_ii.details["walk"]["verdict"],
        "m_max": cfg.conditions.m_max,
        "box": f"{box.n_radius} {box.j_radius}",
    }
    sup = symbol_supports(spec, search_radius=cfg.conditions.search_radius, symbols=symbols)
    sections["conditions.restricted_symbols"] = {
        "gpp_size": len(sup.gpp), "gpm_size": len(sup.gpm), "gmm_size": len(sup.gmm),
        "gmp_size": len(sup.gmp), "undecided_memberships": len(sup.unknown)}
    sections["conditions.rank_test"] = {"verdict": "pass" if rank.passed else "inconclusive"}
    if rank.determinant is not None:
        sections["conditions.rank_test"]["determinant"] = rank.determinant
    if rank.kernel_vector is not None:
        sections["conditions.rank_test"]["kernel"] = list(rank.kernel_vector)
    if spec.d == 1:
        oned = oned_check(spec, symbols=symbols)
        sections["conditions.oned"] = {
            "verdict": oned.verdict,
            "gamma_plus_size": oned.details["gamma_plus_size"],
            "gamma_minus_size": oned.details["gamma_minus_size"],
            "pair_count": len(oned.details["pairs"]),
        }
    return sections, {"i": rep_i, "ii": rep_ii}


def _failed(reports: Dict[str, ConditionReport]) -> bool:
    return any(rep.verdict == "fail" for rep in reports.values())


def cmd_check(cfg: RunConfig, out_path: Optional[str]) -> int:
    sections = {"meta": meta_section(cfg)}
    cond, reports = _condition_sections(cfg, seed_symbols(cfg.problem))
    sections.update(cond)
    _emit(write_report(sections), out_path)
    return EXIT_CONDITION if _failed(reports) else EXIT_OK


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    spec = cfg.problem
    box = cfg.box()
    ncfg = cfg.newton
    sections = {"meta": meta_section(cfg)}
    # The seed's symbols serve the checks and the first step.
    symbols = seed_symbols(spec)
    cond, reports = _condition_sections(cfg, symbols)
    sections.update(cond)
    if _failed(reports):
        _emit(write_report(sections), os.path.join(out_dir, "report.txt"))
        return EXIT_CONDITION
    # One admissibility verdict per run: the Newton gate reuses the reports
    # above rather than checking again on the solve box.
    report = newton.solve(
        spec, box=box, tol=ncfg.tol, max_iter=ncfg.max_iter,
        condition_reports=reports,
        kappa=ncfg.kappa, gamma=ncfg.gamma, dio_radius=ncfg.dio_radius,
        m_max=cfg.conditions.m_max, eps_second=ncfg.eps_second, symbols=symbols)
    # solve factors no sparse matrix, yet a converged solve loads scipy's
    # sparse solvers as it did when it used SuperLU.  The speed probe of
    # bench/run.py imports them on its first run, inside a SIGALRM handler;
    # an alarm that lands during that import re-enters the half-loaded
    # module and fails the command it interrupts.  Loaded here, in the
    # benchmark's untimed warm-up, the module is whole before the probe runs.
    import scipy.sparse.linalg  # noqa: F401
    sections["solve"] = {
        "converged": report.converged,
        "steps": report.steps,
        "omega": list(report.omega),
        "omega0": list(report.omega0),
        "delta_omega_first": list(report.delta_omega_first),
        "omega_shifts": list(report.omega_shifts),
        "amplitudes_physical": list(report.amplitudes_physical),
        "residual_weighted": report.residual_history[-1][1],
        "residual_full": _table_residual(report),
        "residual_history_weighted": [w for _, w in report.residual_history],
        "lattice_radius": report.state.lattice_radius,
        "lattice_sites": report.lattice_sites,
        "quad_constant": report.quad_constant if report.quad_constant is not None else "n/a",
        "cs_mass": report.cs_mass,
        "inverse_norm": report.inverse_norm,
        "decay_beta": report.decay_beta,
        "decay_bound_ok": report.decay_bound_ok,
        "min_block_value": (report.min_block_value if math.isfinite(report.min_block_value)
                            else "n/a (no resonance block of Lambda (+) -Lambda in the box)"),
        "jac_det": report.modulation.jac_det,
        "diophantine_pass": report.modulation.diophantine.passed,
        "diophantine_fitted_kappa": report.modulation.diophantine.fitted_kappa,
    }
    os.makedirs(out_dir, exist_ok=True)
    _emit(write_report(sections), os.path.join(out_dir, "report.txt"))
    sol = write_solution(spec, report.state.omega, report.physical_u())
    _emit(sol, os.path.join(out_dir, "solution.txt"))
    return EXIT_OK


def _table_residual(report: newton.SolveReport) -> float:
    """The full weighted residual of the solution as its table gives it:
    the physical amplitudes written, scaled back by delta^{-1/2p}."""
    spec = report.spec
    u = report.physical_u().scale(1.0 / spec.delta ** (1.0 / (2 * spec.p)))
    return newton.residual_norms(u, conjugate_flip(u), report.state.omega, spec)[1]


def cmd_verify(cfg: RunConfig, solution_path: str, out_path: Optional[str]) -> int:
    try:
        # Undecodable bytes become U+FFFD, which read_solution then refuses.
        with open(solution_path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise SolutionError(f"cannot read {solution_path}: {exc.strerror or exc}") from exc
    spec, omega, u = read_solution(text)
    # The drift is read relative to the field's norm and mass, sums of
    # |u|^2 that lose their digits below the smallest normal float, and
    # a term whose |u|^2 lies there drops out of them.
    terms = u.items()
    mass = sum(abs(val) ** 2 for _, val in terms)
    if mass < sys.float_info.min:
        raise verify.VerifyError(f"the solution's mass sum |u|^2 = {mass:.3g} underflows; "
                                 "its drift cannot be measured")
    small, val = min(terms, key=lambda term: abs(term[1]))
    if abs(val) ** 2 < sys.float_info.min:
        raise verify.VerifyError(f"the solution's term at {small} has |u|^2 = "
                                 f"{abs(val) ** 2:.3g}, which underflows; its drift "
                                 "cannot be measured")
    vcfg = cfg.verify
    res = verify.pde_residual(u, omega, spec, grid=(vcfg.t_points, vcfg.x_points))
    drift = verify.evolve_drift(u, omega, spec, T=vcfg.T, dt=vcfg.dt)
    sections = {
        "meta": meta_section(cfg),
        "residual": {
            "sup": res.sup,
            "mean": res.mean,
            "t_points": res.t_points,
            "x_points": res.x_points,
        },
        "drift": {
            "amp_drift": drift.amp_drift,
            "mass_drift": drift.mass_drift,
            "trajectory_error": drift.trajectory_error,
            "T": vcfg.T,
            "dt": vcfg.dt,
            "grid": drift.grid,
            "rank": drift.rank,
        },
    }
    _emit(write_report(sections), out_path)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, out_csv: str) -> int:
    scfg = cfg.sweep
    result = newton.excision_sweep(
        cfg.problem, scfg.epsilons, n_samples=scfg.n_samples, seed=scfg.seed,
        kappa=cfg.newton.kappa, gamma=cfg.newton.gamma,
        dio_radius=cfg.newton.dio_radius, box=cfg.condition_box())
    dio_fail = float(np.mean(result.dio_kappas < result.kappa))
    lines = ["epsilon,excised_count,excised_fraction,dio_fail_fraction,n_samples,seed"]
    for eps, cnt, frac in zip(result.epsilons, result.counts, result.fractions):
        lines.append(f"{repr(eps)},{cnt},{repr(frac)},{repr(dio_fail)},"
                     f"{result.n_samples},{result.seed}")
    _emit("\n".join(lines) + "\n", out_csv)
    return EXIT_OK


def _emit(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Each failure's exit code and stderr prefix; the first class that matches
# wins, so each class stays ahead of its base (ConfigError, LinopError).
_FAILURES = (
    (SolutionError, EXIT_CONFIG, "solution error"),
    (ConfigError, EXIT_CONFIG, "config error"),
    (ConditionGateError, EXIT_CONDITION, "condition failure"),
    (ExcisionError, EXIT_EXCISED, "excised amplitude"),
    (ConvergenceError, EXIT_NO_CONVERGENCE, "non-convergence"),
    (verify.VerifyError, EXIT_VERIFY, "verify failure"),
    (BoxTooLarge, EXIT_BOX_TOO_LARGE, "box too large"),
    (StepRejected, EXIT_STEP_REJECTED, "step rejected"),
    (NonRealFrequency, EXIT_NON_REAL_FREQUENCY, "non-real frequency"),
    (OffCharDiagonalError, EXIT_OFF_CHAR_DIAGONAL, "certificate failure"),
    (LinopError, EXIT_CONFIG, "input error"),
)


def run_command(cmd: str, config: RunConfig, out_path: Optional[str] = None,
                solution: Optional[str] = None) -> int:
    """Dispatch a command; returns the process exit code.

    0 success, 1 condition failure, 2 non-convergence, 3 excised amplitude,
    4 config or input error (a bad config, a truncation box that misses a
    seed site, or a solution file that is missing or malformed, has a
    non-finite amplitude or misses a seed site), 5 verify failure (grid too
    coarse for the solution, unstable split-step integration, a support
    whose difference lattice has rank above 2, or a field with a term
    whose |u|^2 underflows), 6 a box past the site cap (a condition box
    whose graph grid, or a solve box whose sites of Lambda, number more
    than SITE_CAP), 7 Newton step rejected (the weighted residual grew), 8
    non-real Q frequency, 9 off-characteristic diagonal too close to zero.
    Each failure prints one line to stderr.
    """
    try:
        if cmd == "check":
            return cmd_check(config, out_path)
        if cmd == "solve":
            return cmd_solve(config, out_path or "nlsqp_out")
        if cmd == "verify":
            if solution is None:
                raise ConfigError("verify needs --solution <file>")
            return cmd_verify(config, solution, out_path)
        if cmd == "sweep":
            return cmd_sweep(config, out_path or "sweep.csv")
        raise ConfigError(f"unknown command {cmd}")
    except tuple(cls for cls, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in _FAILURES
                            if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsqp",
        description="Quasi-periodic NLS solutions: admissibility checks, "
                    "Newton construction, verification, excision sweeps.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in ("check", "solve", "verify", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config")
        sp.add_argument("--out", default=None)
        if name == "verify":
            sp.add_argument("--solution", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_command(args.cmd, cfg, out_path=args.out,
                       solution=getattr(args, "solution", None))


if __name__ == "__main__":
    sys.exit(main())
