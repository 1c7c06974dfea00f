"""Seeded benchmark of the fqlin kernel.

Run from the repository root:

    python3 bench/run.py --workload riccati|recursion|cli --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the same checkout; the benchmark
only hands it inputs generated from ``--seed``.  One client runs operations
back to back (closed loop, one process).  Every operation's output is
checked before its time counts; an exception, an unexpected exit code or a
failed check counts as a failed operation.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up, then
operations cycling through the workload's ladder of cells for ``--seconds``
(at least one full pass).  Each cell is summarised by its mean op time, and
the rate and the percentiles are taken over those cell means, so every
ladder point weighs the same and where the run stops does not change the
mix.  Percentiles are Harrell-Davis estimates (Biometrika 1982).  ``setup_s`` is the median over fresh processes that each repeat the
set-up.

``--trace 1`` runs one fixed pass (the first instance of every cell) untraced
and then traced, and reports per-layer counts and self times plus the
tracing overhead.  For cli both of these passes call ``run_command`` in
process, after a third, spawned pass that gives ``cli.spawn_s``.  Spans are
written to ``.bench_out/``.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, and the Python version, commit, CPU count and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

perf = time.perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7  # fresh-process set-ups whose median is setup_s


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("riccati", "recursion", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest ladder, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def import_program():
    if not (SRC / "fqlin" / "__init__.py").is_file():
        raise BenchError(f"no fqlin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fqlin

    if Path(fqlin.__file__).resolve().parent != (SRC / "fqlin").resolve():
        raise BenchError(f"imported fqlin from {fqlin.__file__}, not from {SRC}")


def stamp(args):
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top[0]).resolve() == ROOT:
            commit = top[1]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    if commit is None:
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
    }


def run_op(op, failures, rec=None, inproc=False, op_id=0):
    """One operation: (seconds, check), or None when it raised."""
    try:
        if rec is None:
            return op(None, inproc)
        return rec.op_span(op_id, lambda: op(rec, inproc))
    except Exception:
        failures.append(traceback.format_exc(limit=3))
        return None


def checked(result, failures):
    """The operation's seconds once its check passed, else None."""
    if result is None:
        return None
    elapsed, check = result
    try:
        check()
    except Exception:
        failures.append(traceback.format_exc(limit=3))
        return None
    return elapsed


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def clamp(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics, so that one noisy value next to a gap in the data
    cannot move the estimate by the width of the gap."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs))


# ---------------------------------------------------------------------------
# end-to-end run


def timed_run(wl, rng, seconds, failures):
    samples = {cell: [] for cell in wl.cells}
    attempted = 0
    passes = 0
    t0 = perf()
    done = False
    while not done:
        order = list(wl.cells)
        rng.shuffle(order)
        for cell in order:
            if passes > 0 and perf() - t0 >= seconds:
                done = True
                break
            attempted += 1
            ops = wl.cells[cell]
            elapsed = checked(run_op(ops[passes % len(ops)], failures), failures)
            if elapsed is not None:
                samples[cell].append(elapsed)
        else:
            passes += 1
            done = perf() - t0 >= seconds
    wall = perf() - t0
    return samples, attempted, passes, wall


def end_to_end(wl, args, setup_first, failures):
    rng = random.Random(f"order/{args.seed}")
    samples, attempted, passes, wall = timed_run(wl, rng, args.seconds, failures)
    setups = [setup_first] + setup_repeats(args)
    done = {cell: ts for cell, ts in samples.items() if ts}
    n = sum(len(ts) for ts in done.values())
    if not done:
        raise BenchError("no operation passed its check")
    # one value per cell, so that every ladder point weighs the same
    means = [statistics.fmean(ts) for ts in done.values()]
    pct = wl.tail_percentile
    while True:
        tail = hd_quantile(means, pct / 100)
        beyond = sum(t > tail for ts in done.values() for t in ts)
        if beyond >= 10 or pct <= 50:
            break
        pct -= 5
    if wl.name == "cli":
        rss_kib = wl.max_child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(done) / sum(means),
        "op_p50_s": hd_quantile(means, 0.5),
        "op_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_kib / 1024,
    }
    notes = {
        "ops_per_s": f"{len(done)} cells / summed mean op time; raw {n} ops in {wall:.2f} s = {n / wall:.3f}/s, {passes} full passes",
        "op_p50_s": f"Harrell-Davis median of the {len(done)} cell means, n={n}",
        "op_tail_s": f"Harrell-Davis p{pct} of the {len(done)} cell means, n={n}, {beyond} samples beyond",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mib": "largest fqlin.cli child" if wl.name == "cli" else "this process",
    }
    notes["samples"] = samples
    return metrics, notes, attempted


def setup_repeats(args):
    """Set-up times of fresh processes running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# traced run


def traced_run(wl, args, setup_rec, failures):
    import tracing

    rng = random.Random(f"order/{args.seed}")
    order = list(wl.cells)
    rng.shuffle(order)
    ops = [wl.cells[cell][0] for cell in order]
    inproc = wl.name == "cli"
    attempted = 0

    def one_pass(rec=None, spawn=False):
        """Run every op once; check them only after the recorder is removed."""
        nonlocal attempted
        attempted += len(ops)
        if rec is not None:
            rec.install()
        try:
            results = [run_op(op, failures, rec=rec, inproc=not spawn, op_id=i) for i, op in enumerate(ops)]
        finally:
            if rec is not None:
                rec.uninstall()
        times = [checked(r, failures) for r in results]
        return times, sum(t for t in times if t is not None)

    extra = {}
    if inproc:
        spawned, _ = one_pass(spawn=True)
        in_process, untraced_total = one_pass()
        gaps = [s - i for s, i in zip(spawned, in_process) if s is not None and i is not None]
        extra["cli.spawn_s"] = statistics.median(gaps)
        extra["cli.import_s"] = wl.import_seconds()
    else:
        _, untraced_total = one_pass()
        extra["cli.spawn_s"] = 0.0
        extra["cli.import_s"] = 0.0

    rec = tracing.Recorder()
    _, traced_total = one_pass(rec=rec)

    metrics = tracing.layer_metrics(setup_rec, rec)
    metrics.update(extra)
    metrics["fields.op_share"] = metrics["fields.self_s"] / traced_total
    metrics["trace.ops"] = len(ops)
    metrics["trace.op_total_s"] = traced_total
    metrics["trace.untraced_ops_per_s"] = len(ops) / untraced_total
    metrics["trace.traced_ops_per_s"] = len(ops) / traced_total
    metrics["trace.overhead_ratio"] = traced_total / untraced_total
    spans = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    rec.write(spans)
    notes = {
        "trace.overhead_ratio": f"traced / untraced time of the same {len(ops)} ops" + (" (in process)" if inproc else ""),
        "fields.PerfSeries.mul.kept_ratio": f"result terms / term pairs, base {metrics['fields.PerfSeries.mul.term_pairs']} pairs",
        "fields.op_share": "fields.self_s / trace.op_total_s",
        "trace.ops": f"spans in {spans.relative_to(ROOT)}",
    }
    return metrics, notes, attempted


# ---------------------------------------------------------------------------


def main(argv=None):
    t_start = perf()
    args = parse_args(argv)
    try:
        e2e_units, layer_units = load_spec()
        import_program()
        import tracing
        import workloads

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup_rec = tracing.Recorder() if args.trace else None
            if setup_rec is not None:
                setup_rec.install()
            try:
                wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmp, tiny=args.tiny)
            finally:
                if setup_rec is not None:
                    setup_rec.uninstall()
            setup_s = perf() - t_start
            if args.setup_only:
                print(repr(setup_s))
                return 0
            failures = []
            if args.trace:
                metrics, notes, attempted = traced_run(wl, args, setup_rec, failures)
                units = layer_units
            else:
                metrics, notes, attempted = end_to_end(wl, args, setup_s, failures)
                units = e2e_units
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    for text in failures[:5]:
        print(text, file=sys.stderr)
    info = stamp(args)
    failed = len(failures)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f}")
    width = max(len(name) for name in units)
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"{name:<{width}}  {metrics[name]:>14.6g} {unit:<6} {note}".rstrip())
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": info, "notes": notes, **doc}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
