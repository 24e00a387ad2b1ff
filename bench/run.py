"""nlsqp benchmark: time to a certified solution through the CLI entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  One run is one closed loop with a single
caller: a fresh interpreter imports `nlsqp` from `src/` and issues
check, solve, verify and sweep through `nlsqp.cli.run_command`, one after
another, for as many whole cycles as fit in `--seconds`.  Every command's
output is checked (see `check_command`).  Each cycle also times the set-up
of SETUPS_PER_CYCLE fresh interpreters.  While a command runs, a timer
signal runs a small fixed probe kernel every PROBE_EVERY_S, so that each
command's time can be taken relative to the speed the host gave the
process while it ran (see `SpeedProbe`).  The last line of standard output is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics from a run
that wraps the program's functions from outside with `--trace 1`.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark host has two cores, and a second BLAS
# thread would measure the scheduler.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("tp3-pipeline", "tp2-sweep")
COMMANDS = ("check", "solve", "verify", "sweep")
ARTIFACT_CMD = {"check": "check", "report": "solve", "solution": "solve",
                "verify": "verify", "sweep": "sweep"}
# The sweep seed is the workload seed modulo the size of the reference table.
REF_SEEDS = 64
# Solve reports whose omega is off the seed commit's by more than the
# solver's own default tolerance fail.
OMEGA_ABS_TOL = 1e-11
# Within a timed cycle a command is issued again until its runs add up to
# this many seconds, so that short commands give many samples.
MIN_GROUP_S = 0.5
SETUPS_PER_CYCLE = 2
# The speed probe runs this often while a command runs.
PROBE_EVERY_S = 0.04
# Command times are reported as seconds on a host where the lower quartile
# of the probe kernel's times while a command runs is this long: about its
# median on the 2-core host the benchmark was built on.
PROBE_REF_S = 0.0013

# Prints the import time and the wall-clock time once the config is parsed;
# time.time() is the clock shared with the parent process.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import nlsqp.cli
t1 = time.perf_counter()
nlsqp.cli.load_config(sys.argv[1])
print(t1 - t0, time.time())
"""


def config_text(workload: str, seed: int) -> str:
    text = (BENCH / "workloads" / f"{workload}.cfg").read_text(encoding="utf-8")
    return text + f"\n[sweep]\nseed = {seed % REF_SEEDS}\n"


def measure_setup(cfg_path: Path) -> Tuple[float, float]:
    """(spawn-to-parsed-config seconds, import seconds) of one fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.time()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    import_s, parsed_at = (float(x) for x in proc.stdout.split())
    return parsed_at - start, import_s


class SpeedProbe:
    """Measures the speed the host gives this process.

    On the shared 2-core host the benchmark was built on, the same fixed
    work takes up to 1.7x longer at some moments than at others, in spells
    of a fraction of a second to whole runs, with CPU time equal to wall
    time.  The probe kernel is a fixed mix of the kinds of work nlsqp does
    (an interpreted loop over a tuple-keyed dict, small dense determinants,
    a small sparse LU solve, 2-D FFTs) that takes about PROBE_REF_S.  While
    a command runs, a SIGALRM handler runs it every PROBE_EVERY_S, and the
    time spent in the handler is left out of the command's time.  The lower
    quartile of those probe times is the command's slowness: it follows the
    speed the core runs at and leaves out the moments the process is not
    running at all, which land on the probe in rare large chunks."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(20260101)
        self.dense = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        n = 100
        self.sparse = (sp.random(n, n, density=0.02, random_state=rng, format="csc")
                       + 8.0 * sp.identity(n, format="csc")).tocsc()
        self.rhs = rng.standard_normal(n)
        self.grid = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.samples: List[float] = []
        self.spent_s = 0.0      # wall time spent in the signal handler

    def kernel(self) -> float:
        import numpy as np
        import scipy.sparse.linalg as spla

        # The collector would traverse the program's objects, so the probe's
        # time would depend on the program's heap.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc: Dict[tuple, float] = {}
        for i in range(800):
            key = (i % 41, i % 13)
            acc[key] = acc.get(key, 0.0) + 0.5 * i
        for _ in range(20):
            np.linalg.det(self.dense)
        spla.splu(self.sparse).solve(self.rhs)
        g = self.grid
        for _ in range(2):
            g = np.fft.ifft2(np.fft.fft2(g))
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        return elapsed

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.kernel())
        self.spent_s += time.perf_counter() - start

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> List[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


# ---------------------------------------------------------------------------
# Artifacts and their checks


def parse_report(path: Path) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif " = " in line and current is not None:
            key, value = line.split(" = ", 1)
            current[key] = value
    return sections


def digest(path: Path) -> str:
    """sha256 of an artifact, without the report's generated_at line."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(x for x in lines if not x.startswith(b"generated_at = "))
    return hashlib.sha256(kept).hexdigest()


class Paths:
    def __init__(self, out: Path):
        self.out = out
        self.check = out / "check.txt"
        self.solve_dir = out / "solve"
        self.report = self.solve_dir / "report.txt"
        self.solution = self.solve_dir / "solution.txt"
        self.verify = out / "verify.txt"
        self.sweep = out / "sweep.csv"

    def artifacts(self, cmd: Optional[str] = None) -> Dict[str, Path]:
        every = {"check": self.check, "report": self.report,
                 "solution": self.solution, "verify": self.verify,
                 "sweep": self.sweep}
        return {k: p for k, p in every.items() if cmd in (None, ARTIFACT_CMD[k])}

    def args(self, cmd: str) -> dict:
        return {"check": {"out_path": str(self.check)},
                "solve": {"out_path": str(self.solve_dir)},
                "verify": {"out_path": str(self.verify),
                           "solution": str(self.solution)},
                "sweep": {"out_path": str(self.sweep)}}[cmd]


def check_command(cmd: str, code: object, paths: Paths, ref: dict,
                  sweep_seed: int) -> List[str]:
    """Failed checks of one command; an empty list means it passed."""
    if code != 0:
        return [f"exit status {code}"]
    try:
        return check_output(cmd, paths, ref, sweep_seed)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_output(cmd: str, paths: Paths, ref: dict, sweep_seed: int) -> List[str]:
    bad: List[str] = []
    if cmd == "solve":
        solve = parse_report(paths.report).get("solve", {})
        for key in ("converged", "diophantine_pass", "decay_bound_ok"):
            if solve.get(key) != "True":
                bad.append(f"{key} = {solve.get(key)}")
        omega = [float(x) for x in solve.get("omega", "").split(",") if x.strip()]
        if len(omega) != len(ref["omega"]) or any(
                abs(a - b) > OMEGA_ABS_TOL for a, b in zip(omega, ref["omega"])):
            bad.append(f"omega {omega} != reference {ref['omega']}")
    elif cmd == "verify":
        res = parse_report(paths.verify)
        sup = float(res["residual"]["sup"])
        drift = float(res["drift"]["amp_drift"])
        if not sup <= ref["verify"]["sup_max"]:
            bad.append(f"sup {sup:.3e} > {ref['verify']['sup_max']:.3e}")
        if not drift <= ref["verify"]["amp_drift_max"]:
            bad.append(f"amp_drift {drift:.3e} > {ref['verify']['amp_drift_max']:.3e}")
    elif cmd == "sweep":
        rows = paths.sweep.read_text(encoding="utf-8").splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        want = ref["excised_counts"][str(sweep_seed)]
        if counts != want:
            bad.append(f"excised_count {counts} != reference {want}")
    return bad


def residual_full(cli, solution: Path) -> float:
    """Weighted residual over the whole sparse residual at the returned
    solution, not only its part inside the truncation box."""
    from nlsqp.lattice import conjugate_flip
    from nlsqp.newton import residual_series
    from nlsqp.verify import default_weight, weighted_norm

    spec, omega, u_phys = cli.read_solution(solution.read_text(encoding="utf-8"))
    u = u_phys.scale(1.0 / spec.delta ** (1.0 / (2 * spec.p)))
    fu, fv = residual_series(u, conjugate_flip(u), omega, spec)
    w = default_weight(spec)
    return math.hypot(weighted_norm(fu, w), weighted_norm(fv, w))


# ---------------------------------------------------------------------------
# The loop


@dataclass
class Sample:
    name: str           # a command, or "setup"
    wall_s: float
    probe_s: List[float]    # probe kernel times while it ran; none for a set-up


@dataclass
class Cycle:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0     # the whole cycle, set-up and checks included

    def command_s(self) -> float:
        return sum(s.wall_s for s in self.samples if s.name != "setup")


class Runner:
    """Issues commands, checks each one's output as it is written, and keeps
    the artifact digests of the run's first command of each kind, which
    every later one must match."""

    def __init__(self, cli, text: str, paths: Paths, ref: dict, sweep_seed: int):
        self.cli = cli
        self.text = text
        self.cfg = cli.parse_config(text)
        self.paths = paths
        self.ref = ref
        self.sweep_seed = sweep_seed
        self.cfg_path = paths.out / "config.cfg"
        self.cfg_path.write_text(text, encoding="utf-8")
        self.probe = SpeedProbe()
        self.digests: Dict[str, str] = {}
        self.artifact_bytes: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def command(self, cmd: str) -> float:
        """Wall seconds of one command, less the time the speed probe took."""
        for path in self.paths.artifacts(cmd).values():
            if path.exists():
                path.unlink()
        spent = self.probe.spent_s
        start = time.perf_counter()
        try:
            code: object = self.cli.run_command(cmd, self.cfg, **self.paths.args(cmd))
        except Exception as exc:  # an uncaught error is a failed command
            traceback.print_exc(file=sys.stderr)
            code = f"{type(exc).__name__} (uncaught)"
        wall = time.perf_counter() - start - (self.probe.spent_s - spent)
        bad = check_command(cmd, code, self.paths, self.ref, self.sweep_seed)
        for k, path in self.paths.artifacts(cmd).items():
            if path.exists():
                d = self.digests.setdefault(k, digest(path))
                self.artifact_bytes[k] = path.stat().st_size
                if d != digest(path):
                    bad.append(f"{k} digest differs from the run's first")
        self.attempted += 1
        if bad:
            self.failed += 1
            for msg in bad:
                log(f"# FAILED {cmd}: {msg}")
        return wall

    def cycle(self, timed: bool = True) -> Cycle:
        """One of each command.  A timed cycle also times SETUPS_PER_CYCLE
        set-ups, repeats short commands up to MIN_GROUP_S and runs the speed
        probe while they run."""
        out = Cycle()
        start = time.perf_counter()
        self.cfg = self.cli.parse_config(self.text)
        for _ in range(SETUPS_PER_CYCLE if timed else 0):
            wall, _ = measure_setup(self.cfg_path)
            out.samples.append(Sample("setup", wall, []))
        for cmd in COMMANDS:
            if timed:
                self.probe.start()
            try:
                walls = [self.command(cmd)]
                while timed and sum(walls) < MIN_GROUP_S:
                    walls.append(self.command(cmd))
            finally:
                probes = self.probe.stop() if timed else []
            if timed and not probes:
                probes = [self.probe.kernel()]
            out.samples.extend(Sample(cmd, w, probes) for w in walls)
        out.wall_s = time.perf_counter() - start
        return out


def scaled_s(sample: Sample) -> float:
    """A command's seconds at the probe's reference speed.  A set-up runs in
    another process, out of the probe's sight, so its wall time stands."""
    if sample.name == "setup":
        return sample.wall_s
    slowness = statistics.quantiles(sample.probe_s, n=4)[0] \
        if len(sample.probe_s) > 1 else sample.probe_s[0]
    return sample.wall_s * PROBE_REF_S / slowness


def upper_percentile(values: List[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return f"n/a (n={n} < 11)"
    return f"p{100 * (n - 10) // n}={sorted(values)[n - 11]:.6g}"


def machine_block() -> Dict[str, object]:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "NLSQP_THREADS": os.environ.get("NLSQP_THREADS", "unset (default 1)"),
    }


def blas_threads() -> str:
    """OpenBLAS thread count as the library reports it, when it can be
    asked; otherwise the environment setting."""
    import ctypes
    import glob
    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS", "unknown"))


def log(msg: str):
    print(msg, flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nlsqp" / "cli.py").is_file():
        print(f"error: no nlsqp sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][args.workload]
    sweep_seed = args.seed % REF_SEEDS
    text = config_text(args.workload, args.seed)
    out = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    log(f"# machine: {json.dumps(machine_block())}")
    # The whole run fits in --seconds.
    deadline = time.perf_counter() + args.seconds
    sys.path.insert(0, str(SRC))
    import nlsqp.cli as cli

    runner = Runner(cli, text, Paths(out), ref, sweep_seed)
    n_samples = runner.cfg.sweep.n_samples
    log(f"# workload {args.workload}: seed {args.seed}, sweep seed {sweep_seed}, "
        f"box {runner.cfg.box()}, sweep n_samples {n_samples}")

    if args.trace:
        return traced_run(runner, deadline)

    # Warm-up: one untimed cycle fills the caches and the first digests.
    runner.cycle(timed=False)
    warm_cycle_s = time.perf_counter() - (deadline - args.seconds)
    cycles: List[Cycle] = []
    while True:
        cycles.append(runner.cycle())
        log("# cycle " + " ".join(f"{s.name} {s.wall_s:.4f}" for s in cycles[-1].samples
                                  if s.name != "check")
            + f" check x{sum(s.name == 'check' for s in cycles[-1].samples)}")
        next_s = max(statistics.median(c.wall_s for c in cycles), warm_cycle_s)
        if time.perf_counter() + next_s > deadline:
            break
    res_full = residual_full(cli, runner.paths.solution)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for k, d in runner.digests.items():
        log(f"# sha256 {k}: {d}")
    samples = [s for c in cycles for s in c.samples]
    probe = statistics.median(p for s in samples for p in s.probe_s)
    log(f"# speed probe: median {probe:.6g} s (reference {PROBE_REF_S} s); each "
        f"command time below is scaled by the reference over the lower quartile "
        f"of its probe times")
    norm: Dict[str, float] = {}
    for name in ("setup",) + COMMANDS:
        raw = [s.wall_s for s in samples if s.name == name]
        scaled = [scaled_s(s) for s in samples if s.name == name]
        norm[name] = statistics.median(scaled)
        log(f"# {name} s: scaled median {norm[name]:.6g}, {upper_percentile(scaled)}; "
            f"wall median {statistics.median(raw):.6g}, {upper_percentile(raw)}; "
            f"n={len(raw)}")
    log(f"# residual_full {res_full}")
    dump_samples(out / "samples.json", cycles)

    metrics = {f"{name}_s": {"value": norm[name], "unit": "s"}
               for name in ("setup", "check", "solve", "verify")}
    metrics["sweep_samples_per_s"] = {"value": n_samples / norm["sweep"], "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    metrics["pass_rate"] = {"value": 1.0 - runner.failed / runner.attempted,
                            "unit": "ratio"}
    metrics["residual_full"] = {"value": res_full, "unit": "1"}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def dump_samples(path: Path, cycles: List[Cycle]):
    """Every timed sample of the run, for looking into its spread."""
    path.write_text(json.dumps([[[s.name, s.wall_s, s.probe_s] for s in c.samples]
                                for c in cycles]), encoding="utf-8")


def traced_run(runner: Runner, deadline: float) -> int:
    import tracer as tr

    tracer = tr.Tracer()
    plain: List[Cycle] = []
    traced: List[Cycle] = []
    spans: List[list] = []
    setup = measure_setup(runner.cfg_path)
    while True:
        # The first cycle is untraced, so the run's first digests, which
        # every later command must match, are untraced ones.
        plain.append(runner.cycle(timed=False))
        tracer.install()
        try:
            traced.append(runner.cycle(timed=False))
        finally:
            tracer.uninstall()
        spans.append(list(tracer.spans))
        tracer.clear()
        if time.perf_counter() + plain[-1].wall_s + traced[-1].wall_s > deadline:
            break
    for k, d in runner.digests.items():
        log(f"# sha256 {k}: {d}")
    overhead = statistics.median(c.command_s() for c in traced) \
        - statistics.median(c.command_s() for c in plain)
    log(f"# tracing overhead: {overhead:+.4f} s per cycle "
        f"({100 * overhead / statistics.median(c.command_s() for c in plain):+.1f} %), "
        f"{len(traced)} traced and {len(plain)} untraced cycles")
    tr.dump(spans, runner.paths.out / "spans.jsonl")

    per_cycle = [layer_metrics(cycle_spans) for cycle_spans in spans]
    metrics: Dict[str, Dict[str, object]] = {}
    for name in per_cycle[0]:
        vals = [m[name]["value"] for m in per_cycle]
        unit = per_cycle[0][name]["unit"]
        value = statistics.median(vals) if unit == "s" else vals[0]
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.import_s"] = {"value": setup[1], "unit": "s"}
    metrics["cli.artifact_bytes"] = {"value": sum(runner.artifact_bytes.values()),
                                     "unit": "bytes"}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


# Per-layer metrics: (span name, statistic) pairs reported for every workload.
SELF_S = (
    "linop.block_decompose", "linop.lu_factor", "linop.lu_solve",
    "linop.assemble", "linop.invert_with_certificates", "linop.restricted_solver",
    "newton.excision_sweep", "newton.diophantine_check", "newton.newton_step",
    "newton.q_solve", "newton.residual_series", "newton.first_iteration",
    "lattice.convolve", "characteristics.resonance_graph",
    "conditions.check_condition_ii", "conditions.check_condition_i",
    "conditions.symbol_supports", "conditions.oned_check",
    "verify.evolve_drift", "verify.pde_residual", "verify.weighted_norm",
    "cli.parse_config", "cli.write_report",
)
CALLS = (
    "linop.block_decompose", "linop.lu_factor", "linop.lu_solve",
    "linop.assemble", "newton.diophantine_check", "newton.newton_step",
    "newton.q_solve", "lattice.convolve", "characteristics.resonance_graph",
    "conditions.check_condition_ii", "verify.weighted_norm",
)
WORK = {  # metric name -> (span name, "work" summed or "work_max")
    "linop.block_decompose.blocks": ("linop.block_decompose", "work"),
    "linop.lu_factor.fill_nnz": ("linop.lu_factor", "work_max"),
    "linop.assemble.nnz": ("linop.assemble", "work_max"),
    "newton.diophantine_check.candidates": ("newton.diophantine_check", "work"),
    "characteristics.resonance_graph.vertices": ("characteristics.resonance_graph",
                                                 "work"),
    "verify.evolve_drift.steps": ("verify.evolve_drift", "work"),
}


def layer_metrics(spans) -> Dict[str, Dict[str, float]]:
    import tracer as tr

    stats = tr.layer_stats(spans)
    empty = {"calls": 0, "self_s": 0.0, "work": 0, "work_max": 0}
    out: Dict[str, Dict[str, float]] = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = {"value": stats.get(name, empty)["self_s"], "unit": "s"}
    for name in CALLS:
        out[f"{name}.calls"] = {"value": stats.get(name, empty)["calls"],
                                "unit": "count"}
    for metric, (name, key) in WORK.items():
        out[metric] = {"value": stats.get(name, empty)[key], "unit": "count"}
    steps = stats.get("newton.newton_step", empty)["calls"]
    out["linop.lu_factor.per_newton_step"] = {
        "value": tr.count_under(spans, "linop.lu_factor", "newton.newton_step")
        / max(steps, 1), "unit": "count"}
    solves = stats.get("linop.lu_solve", empty)["calls"]
    out["linop.lu_solve.certificate_share"] = {
        "value": tr.count_under(spans, "linop.lu_solve",
                                "linop.invert_with_certificates") / max(solves, 1),
        "unit": "ratio"}
    for parent in ("linop.block_decompose", "newton.excision_sweep"):
        out[f"linop.block_det.{parent.split('.')[1]}.calls"] = {
            "value": tr.count_under(spans, "linop.block_det", parent, nearest=True),
            "unit": "count"}
    return out


if __name__ == "__main__":
    sys.exit(main())
