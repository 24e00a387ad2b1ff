"""Smoke tests of the scripts under scripts/: each runs in its own
interpreter with small arguments, exits 0, prints its header line and
loads no scipy module.  They are the only callers of `theta_spectrum_scan`
and of `box_inverse` outside the tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Runs the script named by its first argument as __main__ with the rest,
# then prints the scipy modules the interpreter has loaded to stderr.
PROBE = """
import runpy, sys
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
print("scipy:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""

# Script -> (small arguments, start of its first output line).
SCRIPTS = {
    "run_theta_scan.py": (["--points", "9", "--n-radius", "3"], "grid points: 9, threshold"),
    "run_scaling_study.py": (["--deltas", "1e-2,1e-3"], "delta       ||du||"),
    "run_excision_sweep.py": (["--samples", "100"], "epsilon    excised   fraction"),
}


def run_script(script, args, cwd):
    """Run a script of scripts/ under PROBE in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "scripts" / script),
                           *args], env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args, header = SCRIPTS[script]
    proc = run_script(script, args, tmp_path)
    assert proc.stdout.splitlines()[0].strip().startswith(header)
    assert proc.stderr.splitlines()[-1] == "scipy:"


def test_theta_scan_csv_holds_numbers(tmp_path):
    # Every theta and theta_frac cell is a plain number, not a numpy
    # scalar's repr.
    args, _ = SCRIPTS["run_theta_scan.py"]
    run_script("run_theta_scan.py", args + ["--out", "scan.csv"], tmp_path)
    header, *rows = (tmp_path / "scan.csv").read_text(encoding="utf-8").splitlines()
    assert header == "theta,theta_int,theta_frac,norm,ok,restricted"
    assert len(rows) == 9
    columns = header.split(",")
    for row in rows:
        cells = dict(zip(columns, row.split(",")))
        for name in ("theta", "theta_frac"):
            float(cells[name])  # raises on "np.float64(-0.5)"
    assert rows[0].startswith("-0.5,")
