"""Smoke tests of the scripts under scripts/: each runs in its own
interpreter with small arguments, exits 0 and prints its header line.  They
are the only callers of `theta_spectrum_scan` and of the seed-mode
certificate outside the tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# Script -> (small arguments, start of its first output line).
SCRIPTS = {
    "run_theta_scan.py": (["--points", "9", "--n-radius", "3"], "grid points: 9, threshold"),
    "run_scaling_study.py": (["--deltas", "1e-2,1e-3"], "delta       ||du||"),
    "run_excision_sweep.py": (["--samples", "100"], "epsilon    excised   fraction"),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    args, header = SCRIPTS[script]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].strip().startswith(header)
