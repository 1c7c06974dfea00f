"""The public surface: every exported name resolves, and the worked
examples in ``scripts/solver_demo.py`` still run and verify.

The demo solves one problem with each solver and prints "residual zero"
after recomputing each residual, so it doubles as an end-to-end check.
"""

import os
import subprocess
import sys
from pathlib import Path

import fqlin
import fqlin.solvers
import fqlin.textio

ROOT = Path(__file__).resolve().parents[1]


def test_exported_names_resolve():
    # a name deleted from a module but left in its __all__ breaks only
    # ``from ... import *``, which nothing else here runs
    for module in (fqlin, fqlin.solvers, fqlin.textio):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing {missing}"


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
