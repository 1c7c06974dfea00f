"""The benchmark harness still runs against the current kernel.

``bench/smoke.py`` runs every benchmark workload at its tiny size, checks
each operation's result and requires per-layer counts to repeat between two
traced runs, so renaming a function the tracer wraps fails here.
"""

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parents[1] / "bench" / "smoke.py"


def test_bench_smoke_passes():
    out = subprocess.run(
        [sys.executable, str(SMOKE)], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stdout + out.stderr
