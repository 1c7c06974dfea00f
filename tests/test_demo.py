"""The worked examples in ``scripts/solver_demo.py`` still run and verify.

The demo solves one problem with each solver and prints "residual zero"
after recomputing each residual, so it doubles as an end-to-end check.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_solver_demo_runs_and_every_residual_vanishes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "solver_demo.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [line for line in out.stdout.splitlines() if "residual zero" in line]
    assert len(lines) == 3, out.stdout
