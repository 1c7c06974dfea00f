"""The public surface: every exported name resolves; the kernel's record
types, their reprs, the value semantics of FieldConfig, and the constructor
forms that jsonio and bench/workloads.py call with their validation errors;
and an import of the command line that loads none of ``dataclasses``,
``inspect`` and ``typing``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fqlin
import fqlin.solvers
import fqlin.textio
from fqlin import (
    INF,
    CompSeries,
    FieldConfig,
    ImplicitProblem,
    NotSolvable,
    OdeProblem,
    PerfSeries,
    RiccatiProblem,
    ValidationError,
    ZeroDenominator,
    factor_unit,
    fraction_normalize,
    parse_series,
)
from fqlin.jsonio import decode_implicit, decode_ode, decode_riccati
from fqlin.ore import OreFraction
from fqlin.series import GrowthCertificate

from conftest import F2, F3

SRC = Path(__file__).resolve().parents[1] / "src"


def test_exported_names_resolve():
    # a name deleted from a module but left in its __all__ breaks only
    # ``from ... import *``, which nothing else here runs
    for module in (fqlin, fqlin.solvers, fqlin.textio):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing {missing}"


def test_record_reprs():
    assert repr(FieldConfig(p=3, v=2)) == "FieldConfig(p=3, v=2, s=1, modulus=(1, 0, 1), perf_depth=16)"
    assert repr(GrowthCertificate(Fraction(1, 2), 5)) == "GrowthCertificate(kappa=Fraction(1, 2), order=5)"
    assert repr(GrowthCertificate(kappa=Fraction(0), order=INF)) == "GrowthCertificate(kappa=Fraction(0, 1), order=inf)"
    assert repr(factor_unit(parse_series(F2, "x*t^[q^1] + (x + 1)*t^[q^2]"))) == (
        "UnitFactorization(shift=1, unit=<CompSeries (<PerfSeries FieldElem(1,)*x^1>)*t^[q^0]"
        " + (<PerfSeries FieldElem(1,)*x^0 + FieldElem(1,)*x^1>)*t^[q^1]>)"
    )
    frac = OreFraction(denom=parse_series(F2, "t^[q^1]"), numer=parse_series(F2, "x*t + t^[q^2]"))
    assert repr(frac) == (
        "OreFraction(denom=<CompSeries (<PerfSeries FieldElem(1,)*x^0>)*t^[q^1]>,"
        " numer=<CompSeries (<PerfSeries FieldElem(1,)*x^1>)*t^[q^0] + (<PerfSeries FieldElem(1,)*x^0>)*t^[q^2]>)"
    )
    assert repr(fraction_normalize(frac, order=3)) == (
        "FractionNormalForm(shift=1, series=<CompSeries (<PerfSeries FieldElem(1,)*x^1>)*t^[q^0]"
        " + (<PerfSeries FieldElem(1,)*x^0>)*t^[q^2] + O(t^[q^4])>)"
    )


def test_field_config_is_a_value():
    a, b = FieldConfig(p=3, v=2), FieldConfig(3, 2, 1, (1, 0, 1), 16)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "F9"}[b] == "F9" and len({a, b}) == 1
    assert a != FieldConfig(p=3, v=2, perf_depth=15)
    assert a != FieldConfig(p=3, v=2, modulus=(2, 1, 1))
    assert FieldConfig(p=2, v=2) != FieldConfig(p=2, s=2)
    assert a != (3, 2, 1, (1, 0, 1), 16)


def test_field_config_defines_its_own_init():
    # bench/tracing.py times FieldConfig construction by patching this entry
    assert "__init__" in vars(FieldConfig)


def test_problem_constructor_forms():
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    p1, r0 = PerfSeries.x_pow(F2, 1), PerfSeries.x_pow(F2, Fraction(1, 2))
    t, t2 = CompSeries.identity(F2), CompSeries.monomial(F2, 2)
    # positional, as bench/workloads.py builds them
    imp = ImplicitProblem((-t2, t, t))
    assert imp.P == (-t2, t, t) and imp.nu == 0 and imp.field == F2
    ode = OdeProblem(F2, {(0, 0): PerfSeries.one(F2), (1, 1): PerfSeries.zero(F2)})
    assert ode.field is F2 and list(ode.a) == [(0, 0)]
    ric = RiccatiProblem(lam, {1: p1}, {0: r0, 1: PerfSeries.zero(F2)}, "nonzero")
    assert (ric.lam, ric.p, ric.r, ric.branch, ric.field) == (lam, {1: p1}, {0: r0}, "nonzero", F2)
    ric = RiccatiProblem(lam)
    assert (ric.p, ric.r, ric.branch) == ({}, {}, "zero")
    # by keyword, as jsonio decodes documents
    assert ImplicitProblem(P=[-t2, t, t], nu=0).P == (-t2, t, t)
    assert decode_implicit(F2, {"P": ["t^[q^2]", "t", "t"]}).P == (t2, t, t)
    assert decode_ode(F2, {"a": [{"j": 0, "k": 0, "coef": "x"}]}).a == {(0, 0): p1}
    doc = {"lam": "x^{1/4}", "p": [{"k": 1, "coef": "x"}], "r": [{"k": 0, "coef": "x^{1/2}"}]}
    ric = decode_riccati(F2, doc)
    assert (ric.lam, ric.p, ric.r, ric.branch) == (lam, {1: p1}, {0: r0}, "zero")


def _bad_records():
    one, t, tq = PerfSeries.one(F2), CompSeries.identity(F2), CompSeries.monomial(F2, 1)
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    low = PerfSeries.x_pow(F2, Fraction(1, 8))
    v = ValidationError
    return [
        (lambda: ImplicitProblem((t,)), v, "an implicit problem needs at least P_0 and P_1"),
        (lambda: ImplicitProblem((t, tq), nu=-1), v, "nu must be non-negative"),
        (lambda: ImplicitProblem((t, CompSeries.identity(F3))), v, "P_0 is not a series over the problem field"),
        (lambda: ImplicitProblem((one, t)), v, "P_0 is not a series over the problem field"),
        (lambda: ImplicitProblem((CompSeries(F2, {-1: one}), t)), v, "P_0 has negative indices"),
        (lambda: ImplicitProblem((t, CompSeries.zero(F2))), NotSolvable, "the linear part P_1 is zero"),
        (lambda: ImplicitProblem((tq, tq, t)), NotSolvable, "P_1 starts at index 1, expected nu = 0"),
        (lambda: ImplicitProblem(P=(t, t, t), nu=0), NotSolvable, "P_0 has a nonzero coefficient at index 0"),
        (
            lambda: ImplicitProblem((CompSeries.monomial(F2, 2), tq), nu=1),
            NotSolvable,
            "P_0 has a nonzero coefficient at index 2",
        ),
        (lambda: OdeProblem(F2, {(-1, 0): one}), v, "coefficient indices (j, k) must be >= 0"),
        (
            lambda: OdeProblem(F2, {(1025, 0): one}),
            v,
            "|j| = 1025 is out of range: q^|j| <= 2^1024 needs |j| <= 1024",
        ),
        (
            lambda: OdeProblem(field=F2, a={(0, 1): PerfSeries.one(F3)}),
            v,
            "a[0,1] must be a scalar series over the problem field",
        ),
        (lambda: RiccatiProblem(t), v, "lambda must be a scalar series"),
        (lambda: RiccatiProblem(PerfSeries.zero(F2)), v, "lambda must be nonzero"),
        (lambda: RiccatiProblem(low), v, "lambda needs valuation >= 1/4"),
        (lambda: RiccatiProblem(lam, {0: one}), v, "p_0 index below 1"),
        (lambda: RiccatiProblem(lam, {}, {0: low}), v, "r_0 needs valuation >= 1/4"),
        (
            lambda: RiccatiProblem(lam, r={2000: one}),
            v,
            "|r index| = 2000 is out of range: q^|r index| <= 2^1024 needs |r index| <= 1024",
        ),
        (lambda: RiccatiProblem(lam, {}, {}, "maybe"), v, "branch must be 'zero' or 'nonzero'"),
        (lambda: RiccatiProblem(lam=lam, p={}, r={}, branch="maybe"), v, "branch must be 'zero' or 'nonzero'"),
        (lambda: OreFraction(CompSeries.identity(F3), t), v, "fraction parts over different fields"),
        (lambda: OreFraction(denom=CompSeries.zero(F2), numer=t), ZeroDenominator, "fraction with zero denominator"),
    ]


@pytest.mark.parametrize("make, error, message", _bad_records())
def test_record_validation_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps the interpreter's site hooks, which are not fqlin's, out of the count
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, fqlin.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
