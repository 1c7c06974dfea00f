"""Seeded workloads over fqlin's public API: riccati, recursion and cli.

A workload is a fixed ladder of cells (field, order, precision, command ...).
At set-up every cell gets a few instances generated from the seed; the timed
loop cycles through the cells and runs one instance per visit.  An operation
returns its timed seconds and a check; the check raises ``CheckFailed`` when
the output is wrong, and the operation's time only counts once it passed.

The program is called through the ``fqlin`` package namespace at run time,
so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import fqlin
import fqlin.cli
from fqlin import CompSeries, PerfSeries, jsonio, textio

perf = time.perf_counter

FIELDS = {
    "p2": {"p": 2},
    "p3": {"p": 3},
    "p2v2": {"p": 2, "v": 2},
    "p3s2": {"p": 3, "s": 2},
    "p2s2": {"p": 2, "s": 2},
}


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _all_zero(res):
    """Every coefficient of a residual is zero modulo its precision."""
    return all(c.is_zero() for c in res.terms.values())


def _elem(rng, fld):
    while True:
        coords = [rng.randrange(fld.p) for _ in range(fld.degree)]
        if any(coords):
            return fld.elem(coords)


def _scalar(rng, fld, n_terms, lo, hi):
    """Exact scalar with n_terms monomials, integer exponents in [lo, hi]."""
    exps = rng.sample(range(lo, hi + 1), n_terms)
    return PerfSeries(fld, [(Fraction(e), _elem(rng, fld)) for e in exps])


def _constant(rng, fld):
    return PerfSeries.constant(fld, _elem(rng, fld))


class Workload:
    """Cells of one workload, each a list of seeded operations."""

    name = None
    tail_percentile = None
    pool = 1  # instances generated per cell

    def __init__(self, seed, root, tmpdir, tiny=False):
        self.seed = seed
        self.root = Path(root)
        self.tmpdir = Path(tmpdir)
        self.tiny = tiny
        self.fields = {}
        self.cells = {}
        self.max_child_rss_kib = 0
        self._files = itertools.count()

    def field(self, key):
        if key not in self.fields:
            self.fields[key] = fqlin.FieldConfig(**FIELDS[key])
        return self.fields[key]

    def rng(self, *parts):
        return random.Random("/".join(str(p) for p in (self.name, self.seed, *parts)))

    def add_cell(self, name, make):
        """Generate the cell's instances; make(rng) returns one operation."""
        self.cells[name] = [make(self.rng(name, i)) for i in range(self.pool)]


# ---------------------------------------------------------------------------
# riccati: solve_riccati, riccati_series and a zero residual


RICCATI_CASES = (
    ("p2", "zero"),
    ("p3", "zero"),
    ("p2v2", "zero"),
    ("p3s2", "zero"),
    ("p3s2", "nonzero"),
    ("p2s2", "nonzero"),
)
RICCATI_ORDERS = (3, 5)
RICCATI_XPRECS = (10, 20)
ROADMAP_XPRECS = (10, 20, 40)


def riccati_problem(rng, fld, branch):
    """Admissible problem in the shape of the ROADMAP instance: lambda has
    valuation exactly 1/q^2, p_1 sits one and r_0 two above that floor.  The
    seed picks the three coefficients; the shape is fixed so that the cost
    of a cell does not depend on the seed."""
    floor = Fraction(1, fld.q**2)
    lam = PerfSeries.x_pow(fld, floor, _elem(rng, fld))
    p = {1: PerfSeries.x_pow(fld, floor + 1, _elem(rng, fld))}
    r = {0: PerfSeries.x_pow(fld, floor + 2, _elem(rng, fld))}
    return fqlin.RiccatiProblem(lam, p, r, branch)


def roadmap_problem(fld):
    """lambda = x^{1/4}, P_1 = x, R_0 = x^{1/2} over F_2."""
    return fqlin.RiccatiProblem(
        PerfSeries.x_pow(fld, Fraction(1, 4)),
        {1: PerfSeries.x_pow(fld, 1)},
        {0: PerfSeries.x_pow(fld, Fraction(1, 2))},
    )


def riccati_op(prob, order, xprec):
    def run(rec=None, inproc=False):
        steps = None if rec is None else []
        t0 = perf()
        c, a = fqlin.solve_riccati(prob, order, xprec=xprec, trace=steps)
        y = fqlin.riccati_series(c, a, prob.field)
        res = fqlin.residual(prob, y, order - 1)
        elapsed = perf() - t0
        if steps is not None:
            rec.add("solvers.hensel_steps", len(steps))
            rec.add(
                "solvers.hensel_iters",
                sum(len(s["residuals"]) - 1 for step in steps for s in step["steps"]),
            )

        def check():
            if res.order != order - 1 or not _all_zero(res):
                raise CheckFailed("nonzero Riccati residual")

        return elapsed, check

    return run


class Riccati(Workload):
    name = "riccati"
    tail_percentile = 75
    pool = 3

    def __init__(self, seed, root, tmpdir, tiny=False):
        super().__init__(seed, root, tmpdir, tiny)
        orders, xprecs, road_xprecs = ((2,), (6,), (6,)) if tiny else (RICCATI_ORDERS, RICCATI_XPRECS, ROADMAP_XPRECS)
        for key, branch in RICCATI_CASES:
            fld = self.field(key)
            for n in orders:
                for xp in xprecs:
                    self.add_cell(
                        f"{branch}/{key}/N{n}/x{xp}",
                        lambda rng, fld=fld, branch=branch, n=n, xp=xp: riccati_op(
                            riccati_problem(rng, fld, branch), n, Fraction(xp)
                        ),
                    )
        road = roadmap_problem(self.field("p2"))
        for xp in road_xprecs:
            self.add_cell(f"roadmap/p2/N5/x{xp}", lambda rng, xp=xp: riccati_op(road, 5, Fraction(xp)))


# ---------------------------------------------------------------------------
# recursion: dense implicit problems, additive ODEs with poles, unit inversion


def implicit_problem(rng, fld):
    """P_0 at indices 1..3 with 3 terms, a unit P_1 with 2-term tail
    coefficients, P_2 and P_3 at indices 0..1."""
    p0 = CompSeries(fld, {i: _scalar(rng, fld, 3, 0, 5) for i in (1, 2, 3)})
    p1 = CompSeries(
        fld, {0: _constant(rng, fld), 1: _scalar(rng, fld, 2, 0, 4), 2: _scalar(rng, fld, 2, 0, 4)}
    )
    nonlinear = [CompSeries(fld, {i: _scalar(rng, fld, 2, 0, 4) for i in (0, 1)}) for _ in (2, 3)]
    return fqlin.ImplicitProblem((p0, p1, *nonlinear))


def ode_problem(rng, fld):
    """Poles in the inhomogeneous column (a_00 with two terms, a_10 with one)
    and nonlinear terms a_11, a_02 and a_13.  The seed picks exponents and
    coefficients; the shape is fixed so that a cell's cost does not depend
    on the seed."""
    pole = [(Fraction(-rng.randint(1, 3)), _elem(rng, fld)), (Fraction(rng.randint(0, 3)), _elem(rng, fld))]
    a = {
        (0, 0): PerfSeries(fld, pole),
        (1, 0): PerfSeries.x_pow(fld, -rng.randint(1, 3), _elem(rng, fld)),
        (1, 1): _scalar(rng, fld, 1, 0, 3),
        (0, 2): _scalar(rng, fld, 2, 0, 3),
        (1, 3): _scalar(rng, fld, 1, 0, 3),
    }
    return fqlin.OdeProblem(fld, a)


def unit_series(rng, fld):
    """Constant at index 0, two terms at index 1, one term at index 2."""
    return CompSeries(fld, {0: _constant(rng, fld), 1: _scalar(rng, fld, 2, 0, 3), 2: _scalar(rng, fld, 1, 0, 3)})


def implicit_op(prob, order, xprec):
    def run(rec=None, inproc=False):
        t0 = perf()
        z, _ = fqlin.solve_implicit(prob, order, xprec=xprec)
        res = fqlin.residual(prob, z, order)
        elapsed = perf() - t0

        def check():
            if not z.terms or not _all_zero(res):
                raise CheckFailed("nonzero implicit residual")

        return elapsed, check

    return run


def ode_op(prob, order, xprec):
    def run(rec=None, inproc=False):
        t0 = perf()
        norm, gamma = fqlin.normalize_time_change(prob)
        zp, _ = fqlin.solve_ode(norm, order, xprec=xprec)
        z = zp if norm is prob else fqlin.untransform_ode_solution(zp, gamma)
        res = fqlin.residual(prob, z, order)
        elapsed = perf() - t0

        def check():
            if norm is prob or not z.terms or not _all_zero(res):
                raise CheckFailed("nonzero ODE residual or no time change")

        return elapsed, check

    return run


def invert_op(u, order):
    def run(rec=None, inproc=False):
        t0 = perf()
        inv = fqlin.invert_unit(u, order=order)
        defect = u.compose(inv).truncate(order) - CompSeries.identity(u.field)
        elapsed = perf() - t0

        def check():
            if defect.order != order or not _all_zero(defect):
                raise CheckFailed("u o u^-1 is not the identity to the order")

        return elapsed, check

    return run


class Recursion(Workload):
    name = "recursion"
    tail_percentile = 85
    pool = 16  # a fresh instance on every pass of a run

    def __init__(self, seed, root, tmpdir, tiny=False):
        super().__init__(seed, root, tmpdir, tiny)
        for key in ("p2", "p3"):
            fld = self.field(key)
            for n in (3,) if tiny else (6, 8, 10):
                self.add_cell(
                    f"implicit/{key}/N{n}/x24",
                    lambda rng, fld=fld, n=n: implicit_op(implicit_problem(rng, fld), n, Fraction(24)),
                )
            for n in (3,) if tiny else (6, 8):
                for xp in (8,) if tiny else (24, 40):
                    self.add_cell(
                        f"ode/{key}/N{n}/x{xp}",
                        lambda rng, fld=fld, n=n, xp=xp: ode_op(ode_problem(rng, fld), n, Fraction(xp)),
                    )
            for n in (3,) if tiny else (5, 6, 7, 8):
                self.add_cell(
                    f"invert/{key}/N{n}",
                    lambda rng, fld=fld, n=n: invert_op(unit_series(rng, fld), n),
                )


# ---------------------------------------------------------------------------
# cli: one `python -m fqlin.cli` process per operation


GENERATED = ("add", "tau", "d", "delta", "certify", "factor")
CLI_FIELDS = ("p2", "p3", "p2v2")


def comp_series(rng, fld, n_idx, n_terms):
    """Exact composition series: n_idx indices in 0..39, each coefficient
    n_terms monomials with exponents n / p^d, d in 0..2."""
    terms = {}
    for k in sorted(rng.sample(range(40), n_idx)):
        exps = set()
        while len(exps) < n_terms:
            exps.add(Fraction(rng.randint(-20, 60), fld.p ** rng.randint(0, 2)))
        terms[k] = PerfSeries(fld, [(e, _elem(rng, fld)) for e in sorted(exps)])
    return CompSeries(fld, terms)


def bracket_times(fld, k, c):
    """(x^{q^k} - x) c computed here, independently of fqlin.carlitz."""
    xqk = PerfSeries.x_pow(fld, Fraction(fld.q) ** k)
    return (xqk - PerfSeries.x_pow(fld, 1)) * c


def check_generated(cmd, fld, inputs, j, result):
    """Re-parse result.text against result.value and check one identity."""
    u = inputs["a" if cmd == "add" else "c" if cmd == "factor" else "u"]
    if cmd == "certify":
        kappa = max([Fraction(0)] + [-Fraction(c.valuation_lb()) / fld.q**k for k, c in u.terms.items()])
        return jsonio.decode_exp(result["kappa"], fld.p) == kappa and result["order"] is None
    if cmd == "factor":
        unit = jsonio.decode_comp(fld, result["unit"])
        shift = result["shift"]
        return (
            textio.parse_comp_series(fld, result["text"]) == unit
            and shift == min(u.terms)
            and {k + shift: c for k, c in unit.terms.items()} == u.terms
        )
    value = jsonio.series_value(fld, result["value"])
    if textio.parse_series(fld, result["text"]) != value:
        return False
    if cmd == "add":
        return value - inputs["b"] == u
    if cmd == "tau":
        return fqlin.tau_power(value, -j) == u
    if cmd == "d":
        shifted = {k - 1: c for k, c in u.terms.items() if k != 0}
        return set(value.terms) == set(shifted) and all(
            value.terms[k - 1].frobenius(1) == bracket_times(fld, k, c) for k, c in u.terms.items() if k != 0
        )
    if cmd == "delta":
        return value.terms == {k: bracket_times(fld, k, c) for k, c in u.terms.items() if k != 0}
    raise ValueError(cmd)


def field_flags(key):
    flags = []
    for name, value in FIELDS[key].items():
        flags += [f"--{name}", str(value)]
    return flags


class Cli(Workload):
    name = "cli"
    tail_percentile = 90
    pool = 6

    def __init__(self, seed, root, tmpdir, tiny=False):
        super().__init__(seed, root, tmpdir, tiny)
        src = str(self.root / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        fixtures = sorted(p for p in (self.root / "fixtures").iterdir() if p.is_dir())
        if tiny:
            fixtures = fixtures[:3]
        for case in fixtures:
            self.add_cell(f"fixture/{case.name}", lambda rng, case=case: self.fixture_op(case))
        for cmd in GENERATED[:2] if tiny else GENERATED:
            for fmt in ("text", "json"):
                self.add_cell(f"{cmd}/{fmt}", lambda rng, cmd=cmd, fmt=fmt: self.generated_op(rng, cmd, fmt))
        # one untimed, checked spawn so that bytecode compilation is not timed
        first = next(iter(self.cells.values()))[0]
        first()[1]()

    def temp_path(self, stem):
        return self.tmpdir / f"{stem}-{next(self._files)}.json"

    def fixture_op(self, case):
        argv = json.loads((case / "argv.json").read_text(encoding="utf-8"))
        if (case / "input.json").exists():
            argv += ["-i", str(case / "input.json")]
        expected = (case / "output.json").read_bytes()

        def check(code, data):
            if code != 0 or data != expected:
                raise CheckFailed(f"fixture {case.name}: exit {code} or bytes differ")

        return self.cli_op(argv, check)

    def generated_op(self, rng, cmd, fmt):
        key = rng.choice(CLI_FIELDS)
        fld = self.field(key)
        sizes = (3, 3) if self.tiny else (rng.randint(10, 30), rng.randint(10, 30))
        names = ("a", "b") if cmd == "add" else ("c",) if cmd == "factor" else ("u",)
        inputs = {name: comp_series(rng, fld, *sizes) for name in names}
        j = rng.choice((-2, -1, 1, 2))
        argv = [cmd] + field_flags(key) + ([f"--j={j}"] if cmd == "tau" else [])
        if fmt == "text":
            argv += [textio.emit_series(inputs[name]) for name in names]
        else:
            doc = self.temp_path(f"in-{cmd}")
            doc.write_text(jsonio.canonical_dumps({n: jsonio.encode_comp(inputs[n]) for n in names}), encoding="utf-8")
            argv += ["-i", str(doc)]

        def check(code, data):
            if code != 0 or data is None:
                raise CheckFailed(f"{cmd}: exit {code}")
            if not check_generated(cmd, fld, inputs, j, json.loads(data)["result"]):
                raise CheckFailed(f"{cmd}: result fails its re-parse or identity check")

        return self.cli_op(argv, check)

    def cli_op(self, argv, check):
        out = self.temp_path("out")

        def run(rec=None, inproc=False):
            out.unlink(missing_ok=True)
            full = argv + ["-o", str(out)]
            if inproc:
                t0 = perf()
                code, _ = fqlin.cli.run_command(full)
                elapsed = perf() - t0
            else:
                t0 = perf()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "fqlin.cli", *full],
                    cwd=self.root,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = perf() - t0
                proc.returncode = code = os.waitstatus_to_exitcode(status)
                self.max_child_rss_kib = max(self.max_child_rss_kib, usage.ru_maxrss)
            data = out.read_bytes() if out.exists() else None
            return elapsed, lambda: check(code, data)

        return run

    def import_seconds(self, repeats=5):
        """Median `import fqlin.cli` time in a fresh interpreter, less the
        interpreter's own start-up."""

        def spawn(code):
            t0 = perf()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env, check=True)
            return perf() - t0

        bare = statistics.median(spawn("pass") for _ in range(repeats))
        full = statistics.median(spawn("import fqlin.cli") for _ in range(repeats))
        return full - bare


WORKLOADS = {"riccati": Riccati, "recursion": Recursion, "cli": Cli}
