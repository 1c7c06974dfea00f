"""Smoke test of the benchmark at tiny sizes.

Run from anywhere:

    python3 bench/smoke.py

For every workload in BENCHMARK.json it makes one end-to-end run on the
smallest ladder (``--tiny``) with the correctness gate on, then two traced
runs of the same seed, and checks that

* every operation passed its check and every metric is reported,
* every end-to-end metric is a positive number,
* every per-layer count repeats exactly between the two traced runs.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parents[1]
COUNT_UNITS = ("count", "chars", "bytes")


def run(workload, trace, seed=3):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        timed, first, second = run(workload, 0), run(workload, 1), run(workload, 1)
        for label, res, names in (("timed", timed, e2e), ("traced", first, layer), ("traced", second, layer)):
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} {label}: {res['failed']} of {res['attempted']} ops failed")
            if sorted(res["metrics"]) != sorted(names):
                problems.append(f"{workload} {label}: metric names differ from BENCHMARK.json")
        problems += [
            f"{workload}: {name} is not positive"
            for name in e2e
            if not timed["metrics"][name]["value"] > 0
        ]
        problems += [
            f"{workload}: {name} differs between traced runs "
            f"({first['metrics'][name]['value']} vs {second['metrics'][name]['value']})"
            for name in counts
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        print(f"{workload}: {timed['attempted']} timed ops, {len(counts)} counts compared")
    for line in problems:
        print("FAIL", line)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
