"""Write bench/reference.json: the values the benchmark checks outputs against.

    python3 bench/make_reference.py

Run from the repository root, at the commit whose outputs are the
reference.  For each workload it records the solved omega, the verify
bounds, the seed commit's residual_full (for information only) and the
sweep's excised counts for every sweep seed the benchmark can use.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import run

# A solution twice as far off as the seed commit's fails.  Where amp_drift
# sits at roundoff (about 1e-11 on tp2 and tp3), the floor leaves room for
# a different summation order; every bound stays far below the acceptance
# gate's 1 %.
FACTOR = 2.0
AMP_DRIFT_FLOOR = 1e-9


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import nlsqp.cli as cli

    out: dict = {"workloads": {}}
    run.OUT_ROOT.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
            paths = run.Paths(Path(tmp))
            cfg = cli.parse_config(run.config_text(workload, 0))
            for cmd in ("solve", "verify"):
                if cli.run_command(cmd, cfg, **paths.args(cmd)) != 0:
                    raise SystemExit(f"{workload}: {cmd} failed")
            solve = run.parse_report(paths.report)["solve"]
            verify = run.parse_report(paths.verify)
            ref = {
                "omega": [float(x) for x in solve["omega"].split(",")],
                "verify": {
                    "sup_seed": float(verify["residual"]["sup"]),
                    "sup_max": FACTOR * float(verify["residual"]["sup"]),
                    "amp_drift_seed": float(verify["drift"]["amp_drift"]),
                    "amp_drift_max": max(FACTOR * float(verify["drift"]["amp_drift"]),
                                         AMP_DRIFT_FLOOR),
                },
                "residual_full_seed": run.residual_full(cli, paths.solution),
                "excised_counts": {},
            }
            for seed in range(run.REF_SEEDS):
                cfg = cli.parse_config(run.config_text(workload, seed))
                if cli.run_command("sweep", cfg, **paths.args("sweep")) != 0:
                    raise SystemExit(f"{workload}: sweep seed {seed} failed")
                rows = paths.sweep.read_text(encoding="utf-8").splitlines()[1:]
                ref["excised_counts"][str(seed)] = [int(r.split(",")[1]) for r in rows]
                print(workload, seed, ref["excised_counts"][str(seed)], flush=True)
        out["workloads"][workload] = ref
    text = json.dumps(out, indent=1)
    # One line per list of excised counts.
    text = re.sub(r"\[\s*(\d+(?:,\s*\d+)*)\s*\]",
                  lambda m: "[" + ", ".join(m.group(1).replace(",", " ").split()) + "]",
                  text)
    (run.BENCH / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
