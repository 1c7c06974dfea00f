"""End-to-end tests of the command line that no fixture makes: JSON
operands, repeated indices, flags, exit codes and manifests.  Each golden
output is pinned once, by its fixture (``tests/test_fixtures.py``)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fqlin import PerfSeries, ValidationError, emit_series, parse_comp_series
from fqlin.cli import build_parser, main, run_command
from fqlin.jsonio import canonical_dumps, decode_exp, encode_perf

from conftest import F2, assert_cs_close

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def outputs(tmp_path, argv, docs):
    """The output bytes of one command line on each input document."""
    outs = []
    for i, doc in enumerate(docs):
        code, out = run_command(argv + ["-i", write_doc(tmp_path, f"in{i}.json", doc)])
        assert code == 0
        outs.append(canonical_dumps(out))
    return outs


def scalar_doc(*exps):
    """An exact F_2 series document with coefficient 1 at each integer exponent."""
    return {"prec": None, "terms": [{"e": {"num": e, "den_exp": 0}, "c": [1]} for e in exps]}


# -- arithmetic subcommands ------------------------------------------------------


def test_add_characteristic_two(tmp_path):
    # a JSON composition-series operand: the "N" key selects the decoder
    x_t1 = {"prec": None, "terms": [{"e": {"num": 1, "den_exp": 0}, "c": [1]}]}
    doc = {"field": {"p": 2}, "a": {"N": None, "terms": [{"k": 1, "coef": x_t1}]}, "b": "t"}
    code, out = run_command(["add", "-i", write_doc(tmp_path, "comp.json", doc)])
    assert code == 0
    assert out["result"]["text"] == "t + x*t^[q^1]"
    # a repeated index sums, as in the text grammar: x*t + x^2*t is (x + x^2)*t
    repeated = [{"k": 0, "coef": scalar_doc(1)}, {"k": 0, "coef": scalar_doc(2)}]
    summed = [{"k": 0, "coef": scalar_doc(1, 2)}]
    docs = [{"field": {"p": 2}, "a": {"N": None, "terms": terms}, "b": "x^3*t"} for terms in (repeated, summed)]
    out_repeated, out_summed = outputs(tmp_path, ["add"], docs)
    assert out_repeated == out_summed and "(x + x^2 + x^3)*t" in out_summed


def test_add_rejects_mixed_kinds():
    code, out = run_command(["add", "--p", "2", "t", "x^2"])
    assert code == 2 and out is None


def test_ore_cofactors_compose_equally():
    code, out = run_command(["ore", "--p", "2", "t^[q^1]", "t^[q^1] + x*t^[q^2]", "--order", "6"])
    assert code == 0
    a = parse_comp_series(F2, "t^[q^1]")
    b = parse_comp_series(F2, "t^[q^1] + x*t^[q^2]")
    a_prime = parse_comp_series(F2, out["result"]["a_prime_text"])
    b_prime = parse_comp_series(F2, out["result"]["b_prime_text"])
    assert not b_prime.is_zero()
    assert_cs_close(a_prime.compose(b), b_prime.compose(a))


def test_fraction_normalize_unit_denominator():
    code, out = run_command(["fraction-normalize", "--p", "2", "t + x*t^[q^1]", "t", "--order", "3"])
    assert code == 0
    assert out["result"]["shift"] == 0
    inv = run_command(["invert", "--p", "2", "t + x*t^[q^1]", "--order", "3"])[1]
    assert out["result"]["series"] == inv["result"]["value"]


def test_field_tower_flags(tmp_path):
    code, out = run_command(["add", "--p", "2", "--s", "2", "g", "1"])
    assert code == 0
    assert out["result"]["text"] == "1+g"
    assert out["manifest"]["field"] == {"p": 2, "v": 1, "s": 2, "modulus": [1, 1, 1]}
    code, out = run_command(["add", "--p", "2", "--v", "2", "--mod", "1,1,1", "g*x", "x"])
    assert code == 0
    assert out["manifest"]["field"] == {"p": 2, "v": 2, "s": 1, "modulus": [1, 1, 1]}
    doc = {"field": {"p": 2, "s": 2, "modulus": [1, 1, 1]}, "a": "g*x", "b": "x"}
    code, out = run_command(["add", "-i", write_doc(tmp_path, "mod.json", doc)])
    assert code == 0 and out["result"]["text"] == "(1+g)*x"
    assert out["manifest"]["field"] == {"p": 2, "v": 1, "s": 2, "modulus": [1, 1, 1]}
    # --perf-depth replaces the depth of a document's field
    lift = str(FIXTURES / "solve-riccati-lift" / "input.json")
    code, out = run_command(["solve-riccati", "-i", lift, "--order", "2", "--perf-depth", "3"])
    assert code == 0 and out["manifest"]["perf_depth"] == 3


# -- solvers ---------------------------------------------------------------------


def test_solve_ode_golden(tmp_path):
    # a repeated (j, k) sums: a_00 = x + x^3
    repeated = [{"j": 0, "k": 0, "coef": "x"}, {"j": 0, "k": 0, "coef": "x^3"}]
    summed = [{"j": 0, "k": 0, "coef": "x + x^3"}]
    argv = ["solve-ode", "--order", "2", "--xprec", "6", "--check"]
    out_repeated, out_summed = outputs(tmp_path, argv, [{"field": {"p": 2}, "a": a} for a in (repeated, summed)])
    assert out_repeated == out_summed


def test_solve_riccati_golden(tmp_path):
    argv = ["solve-riccati", "--order", "3", "--xprec", "8", "--check"]
    base = {"field": {"p": 2}, "lam": "x^{1/4}"}
    # a stored zero coefficient of P is no coefficient: the bytes of the
    # solve-riccati-golden fixture, whose P is empty
    [zero] = outputs(tmp_path, argv, [{**base, "p": [{"k": 1, "coef": "0"}]}])
    assert zero == (FIXTURES / "solve-riccati-golden" / "output.json").read_text(encoding="utf-8")
    # a repeated index of P or R sums
    repeated = {
        "p": [{"k": 1, "coef": "x"}, {"k": 1, "coef": "x^2"}],
        "r": [{"k": 0, "coef": "x"}, {"k": 0, "coef": "x^3"}],
    }
    summed = {"p": [{"k": 1, "coef": "x + x^2"}], "r": [{"k": 0, "coef": "x + x^3"}]}
    out_repeated, out_summed = outputs(tmp_path, argv, [{**base, **repeated}, {**base, **summed}])
    assert out_repeated == out_summed


def test_solve_riccati_branch_flag(tmp_path):
    path = write_doc(tmp_path, "ric.json", {"field": {"p": 2, "s": 2}, "lam": "x^{1/4}"})
    code, out = run_command(
        ["solve-riccati", "-i", path, "--order", "2", "--xprec", "8", "--branch", "nonzero", "--check"]
    )
    assert code == 0
    assert out["manifest"]["args"]["branch"] == "nonzero"
    assert out["result"]["a"][0]["terms"] != []


def test_eval_and_certify(tmp_path):
    t0 = {"prec": None, "terms": [{"e": {"num": 1, "den_exp": 0}, "c": [1]}]}
    path = write_doc(tmp_path, "ev.json", {"field": {"p": 2}, "u": "t^[q^1]", "t0": t0})
    code, out = run_command(["eval", "-i", path])
    assert code == 0 and out["result"]["text"] == "x^2"
    # negative indices: q^k with k < 0 is a Fraction, so kappa and the tail are exact
    code, out = run_command(["certify", "--p", "3", "x^{-1/9}*t^[q^-1]"])
    assert code == 0 and out["result"]["kappa"] == {"num": 1, "den_exp": 1}
    code, out = run_command(["certify", "--p", "2", "x^-1*t^[q^-1024]"])
    assert code == 0 and out["result"]["kappa"] == {"num": 2**1024, "den_exp": 0}
    code, out = run_command(["eval", "--p", "3", "x*t^[q^-7] + O(t^[q^-5])", "x^5"])
    assert code == 0 and out["result"]["text"] == "O(x^{5/243})"


def test_eval_outside_domain_is_precondition_error():
    code, out = run_command(["eval", "--p", "2", "x^-2*t^[q^1] + O(t^[q^2])", "x"])
    assert code == 3 and out is None
    code, out = run_command(["eval", "--p", "3", "x^{-1/9}*t^[q^-1]", "x^{1/3}"])
    assert code == 3 and out is None  # v(t0) = kappa = 1/3


def test_residual_check_pass_and_fail(tmp_path):
    # the residual-check-pass fixture is the pass; one changed exponent of
    # its candidate fails
    bad = json.loads((FIXTURES / "residual-check-pass" / "input.json").read_text(encoding="utf-8"))
    bad["candidate"]["terms"][0]["coef"]["terms"][0]["e"]["num"] = 2
    code, out = run_command(["residual-check", "-i", write_doc(tmp_path, "bad.json", bad), "--order", "2"])
    assert code == 4 and out["result"]["zero"] is False


def test_check_flag_failure_exits_4(tmp_path, monkeypatch):
    import fqlin.cli as cli_module
    from fqlin import CompSeries

    original = cli_module.solve_ode

    def corrupted(prob, order, xprec=None):
        z, cert = original(prob, order, xprec=xprec)
        wrong = CompSeries.monomial(prob.field, 1).truncate(z.order) + z
        return wrong, cert

    monkeypatch.setattr(cli_module, "solve_ode", corrupted)
    path = write_doc(tmp_path, "ode.json", {"field": {"p": 2}, "a": [{"j": 0, "k": 0, "coef": "x"}]})
    code, out = run_command(["solve-ode", "-i", path, "--order", "2", "--xprec", "5", "--check"])
    assert code == 4 and out is None


# -- exit codes and diagnostics --------------------------------------------------


def test_validation_exit_codes(tmp_path, capsys):
    assert main(["add", "--p", "2", "t$", "t"]) == 2
    assert main(["add", "t", "t"]) == 2
    assert main(["add", "--p", "2", "t"]) == 2
    assert main(["frobnicate"]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    assert main(["solve-ode", "-i", str(bad_json), "--order", "2"]) == 2
    no_order = write_doc(tmp_path, "x.json", {"field": {"p": 2}, "P": ["t^[q^1]", "t"]})
    assert main(["solve-implicit", "-i", no_order]) == 2
    neg_den = {"field": {"p": 2}, "u": {"N": None, "terms": [{"k": 0, "coef": {
        "prec": None, "terms": [{"e": {"num": 1, "den_exp": -1}, "c": [1]}]}}]}}
    assert main(["certify", "-i", write_doc(tmp_path, "neg.json", neg_den)]) == 2
    ode = write_doc(tmp_path, "ode.json", {"field": {"p": 2}, "a": [{"j": 0, "k": 0, "coef": "x"}]})
    assert main(["solve-ode", "--order", "-3", "-i", ode]) == 2
    assert main(["invert", "--p", "2", "t + x*t^[q^1]", "--order", "-2"]) == 2
    assert main(["invert", "--p", "2", "t + x*t^[q^1]", "--order", "3", "--xprec", "-3"]) == 2
    # exact inputs without an order cap; the message names the missing flag
    for argv in (
        ["invert", "--p", "2", "t + x*t^[q^1]"],
        ["ore", "--p", "2", "t^[q^1]", "t + x*t^[q^1]"],
        ["fraction-normalize", "--p", "2", "t + x*t^[q^1]", "t"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        assert "--order" in capsys.readouterr().err
    # an --xprec finer than the field's grid (den_exp 9 > perf_depth 8 over F_2)
    # is refused where the flag is read, not recorded or failed on in a solver
    lift = str(FIXTURES / "solve-riccati-lift" / "input.json")
    for argv in (
        ["invert", "--p", "2", "t", "--order", "3", "--xprec", "1/9"],
        ["solve-riccati", "--order", "3", "--xprec", "1/9", "-i", lift],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "--xprec" in err and "perf_depth = 8" in err, err
    # --v, --s and --mod shape the field of --p only; with a document's field
    # they are refused, not dropped
    for flag, value in (("--s", "2"), ("--mod", "1,1,1")):
        capsys.readouterr()
        assert main(["solve-riccati", "-i", lift, "--order", "2", flag, value]) == 2, flag
        assert flag in capsys.readouterr().err
    # a malformed field, a missing input file, an incomplete residual-check
    # document, an out-of-range series or power and a flag the command does
    # not read each name their cause
    no_type = {"field": {"p": 2}, "problem": {"a": []}, "candidate": "t"}
    no_problem = {"field": {"p": 2}, "type": "ode", "candidate": "t"}
    bad_modulus = {"field": {"p": 2, "modulus": "abc"}, "a": "t", "b": "t"}
    two_coords = {"prec": None, "terms": [{"e": {"num": 1, "den_exp": 0}, "c": [1, 0]}]}
    wide = {"field": {"p": 2}, "u": {"N": None, "terms": [{"k": 0, "coef": two_coords}]}}
    for argv, cause in (
        (["add", "--p", "2", "--mod", "1,a,1", "t", "t"], "--mod must be comma-separated integers"),
        (["invert", "--p", "2", "t", "--order", "3", "--xprec", "a/b"], "--xprec must look like num or num/den_exp"),
        (["invert", "--p", "2", "t", "--order", "3", "--xprec", "1/-2"], "den_exp must be in 0..1024, got -2"),
        (["add", "--p", "2", "--v", "2", "--mod", "1,0,1", "t", "t"], "is reducible over F_2"),
        (["add", "-i", str(tmp_path / "missing.json")], "cannot read input document"),
        (["add", "-i", write_doc(tmp_path, "mod.json", bad_modulus)], "modulus must be an array"),
        (["residual-check", "-i", write_doc(tmp_path, "nt.json", no_type), "--order", "2"], '"type"'),
        (["residual-check", "-i", write_doc(tmp_path, "np.json", no_problem), "--order", "2"], '"problem"'),
        (["add", "--p", "1", "x", "x"], "p = 1 is not prime"),
        (["add", "--p", "0", "x", "x"], "p = 0 is not prime"),
        (["certify", "-i", write_doc(tmp_path, "wide.json", wide)], "expected 1 coordinates, got 2"),
        (["factor", "--p", "2", "x*t^[q^-1]"], "has a negative leading index -1"),
        (["invert", "--p", "2", "x*t^[q^-1] + t", "--order", "2"], "has a negative leading index -1"),
        (["ore", "--p", "2", "x*t^[q^-1]", "t", "--order", "2"], "has a negative leading index -1"),
        (["power", "--p", "2", "t", "--k", "-1"], "compositional power must be non-negative"),
        # --check and --branch belong to the commands that read them
        (["compose", "--p", "2", "t", "t", "--check"], "unrecognized arguments: --check"),
        (["invert", "--p", "2", "t + x*t^[q^1]", "--order", "3", "--check", "--branch", "nonzero"],
         "unrecognized arguments: --check --branch nonzero"),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert cause in capsys.readouterr().err, argv
    # malformed documents: one error line on stderr, never exit 1 or 0
    huge = tmp_path / "huge.json"
    huge.write_text('{"field": {"p": ' + "1" * 5000 + "}}", encoding="utf-8")

    def certify(name, coef):
        u = {"N": None, "terms": [{"k": 0, "coef": coef}]}
        return ["certify", "-i", write_doc(tmp_path, name, {"field": {"p": 2}, "u": u})]

    def coordinate(name, c):
        return certify(name, {"prec": None, "terms": [{"e": {"num": 1, "den_exp": 0}, "c": [c]}]})

    ric = {"field": {"p": 2}, "lam": "x^{1/4}"}
    for argv in (
        ["certify", "-i", str(huge)],
        ["certify", "-i", write_doc(tmp_path, "c.json", {"field": {"p": 2}, "u": {"N": None, "terms": 5}})],
        certify("s.json", {"prec": None, "terms": 5}),
        ["add", "-i", write_doc(tmp_path, "a.json", {"field": {"p": 2}, "a": {"terms": 5}, "b": "t"})],
        ["solve-riccati", "-i", write_doc(tmp_path, "rp.json", {**ric, "p": 5}), "--order", "2"],
        ["solve-riccati", "-i", write_doc(tmp_path, "rr.json", {**ric, "r": 5}), "--order", "2"],
        coordinate("str.json", "a"),
        coordinate("float.json", 1.5),
        coordinate("bool.json", True),
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["add", "--p", "3", "x", "x", "--perf-depth", "99999999"], None),
        (["invert", "--p", "2", "t", "--order", "3", "--xprec", "1/99999999"], None),
        (["certify"], {"field": {"p": 2}, "u": {"N": None, "terms": [{"k": 0, "coef": {
            "prec": None, "terms": [{"e": {"num": 1, "den_exp": 99999999}, "c": [1]}]}}]}}),
    ],
    ids=["perf-depth", "xprec", "den-exp"],
)
def test_depth_cap_exits_2_in_bounded_time(tmp_path, argv, doc):
    """Depths past MAX_PERF_DEPTH are refused before p^depth is formed."""
    if doc is not None:
        argv = argv + ["-i", write_doc(tmp_path, "deep.json", doc)]
    assert_exits_2_within_5s(argv)


def assert_exits_2_within_5s(argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-m", "fqlin.cli", *argv], capture_output=True, text=True, env=env, timeout=5
    )
    assert out.returncode == 2 and out.stderr.startswith("error: "), out.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--p", "2", "x*t", "--j", "100000000"],
        ["tau", "--p", "2", "x*t", "--j", "-100000000"],
        ["bracket", "--p", "2", "--k", "100000000"],
        ["bracket", "--p", "2", "--k", "-100000000"],
        ["bracket", "--p", "65537", "--k", "1024"],
        ["power", "--p", "2", "t + x*t^[q^1]", "--k", "100000000"],
        ["power", "--p", "2", "x*t^[q^1024]", "--k", "1024"],
        ["add", "--p", "1000000000000000003", "x", "x"],
        ["add", "--p", "2", "--s", "300", "x", "x"],
        ["compose", "--p", "2", "x*t^[q^20000]", "x*t"],
        ["eval", "--p", "2", "x*t + O(t^[q^100000000])", "x^2"],
    ],
    ids=["tau-j", "tau-negative-j", "bracket-k", "bracket-negative-k", "bracket-large-q", "power-k",
         "power-index", "field-p", "field-degree", "text-index", "text-order"],
)
def test_size_caps_exit_2_in_bounded_time(argv):
    """Twist counts, bracket indices, powers, a power times the largest index
    of its argument and text-grammar indices with q^|k| > 2^1024, and fields
    with more than 2^32 elements, are refused before the work."""
    assert_exits_2_within_5s(argv)


ODE_X = {"field": {"p": 2}, "a": [{"j": 0, "k": 0, "coef": "x"}]}
FAR_J = {"j": 100000000, "k": 0, "coef": "x^-1"}
FAR_K = {"j": 0, "k": 100000000, "coef": "x"}
RIC = {"field": {"p": 2}, "lam": "x^{1/4}"}
FAR = [{"k": 100000000, "coef": "x"}]
X_DOC = {"prec": None, "terms": [{"e": {"num": 1, "den_exp": 0}, "c": [1]}]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["solve-ode", "--order", "100000000"], ODE_X),
        (["solve-implicit", "--order", "100000000", "-i", "fixtures/solve-implicit-golden/input.json"], None),
        (["invert", "--p", "2", "t + x*t^[q^1]", "--order", "100000000"], None),
        (["solve-ode", "--order", "1025"], ODE_X),
        (["solve-ode", "--order", "3"], {**ODE_X, "a": ODE_X["a"] + [FAR_J]}),
        (["solve-ode", "--order", "3", "--check"], {**ODE_X, "a": ODE_X["a"] + [FAR_J]}),
        (["solve-ode", "--order", "3"], {**ODE_X, "a": ODE_X["a"] + [FAR_K]}),
        (["solve-ode", "--order", "3", "--check"], {**ODE_X, "a": ODE_X["a"] + [FAR_K]}),
        (["solve-riccati", "--order", "3", "--xprec", "8"], {**RIC, "r": FAR}),
        (["solve-riccati", "--order", "3", "--xprec", "8"], {**RIC, "p": FAR}),
        (["certify"], {"field": {"p": 2}, "u": {"N": None, "terms": [{"k": 100000000, "coef": X_DOC}]}}),
        (["certify"], {"field": {"p": 2}, "u": {"N": 100000000, "terms": []}}),
    ],
    ids=["ode-order", "implicit-order", "invert-order", "order-past-bound", "ode-j", "ode-j-check",
         "ode-k", "ode-k-check", "riccati-r", "riccati-p", "json-index", "json-order"],
)
def test_order_and_ode_index_exit_2_in_bounded_time(tmp_path, monkeypatch, argv, doc):
    """A finite --order N with q^N > 2^1024, an ODE index j or power k, a
    Riccati index of p or r, and a JSON composition index k or order N with
    q^|k| > 2^1024, are refused before the work, with or without --check."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    if doc is not None:
        argv = argv + ["-i", write_doc(tmp_path, "doc.json", doc)]
    assert_exits_2_within_5s(argv)


def test_output_exponent_past_the_int_to_str_limit_exits_2(capsys):
    # the literal has 4,201 digits, below int()'s 4,300-digit limit; tau
    # multiplies it by 2^1024, and the result is refused before it is written
    big = "1" + "0" * 4200
    assert main(["tau", "--p", "2", "--j", "1024", f"x^{big}*t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ValidationError: an output exponent has more than the int-to-str limit of 4300 digits\n"
    # both emitters read the exponent through the same check
    huge = PerfSeries.x_pow(F2, int(big) * 2**1024)
    for emit in (emit_series, encode_perf):
        with pytest.raises(ValidationError, match="int-to-str limit"):
            emit(huge)
    assert emit_series(PerfSeries.x_pow(F2, int(big))).startswith("x^1000")


def test_order_at_the_bound_is_accepted():
    # q = 2^32 allows N <= 32, and the bound is checked on q, not on p
    assert main(["invert", "--p", "2", "--v", "32", "t", "--order", "32"]) == 0
    assert main(["invert", "--p", "2", "--v", "32", "t", "--order", "33"]) == 2


def test_precondition_exit_code(tmp_path):
    doc = {"field": {"p": 2}, "P": ["t^[q^1]", "0", "t"]}
    assert main(["solve-implicit", "-i", write_doc(tmp_path, "imp.json", doc), "--order", "4"]) == 3


def test_needs_extension_exit_code(tmp_path):
    path = write_doc(tmp_path, "ric.json", {"field": {"p": 2}, "lam": "x^{1/4}", "branch": "nonzero"})
    assert main(["solve-riccati", "-i", path, "--order", "2", "--xprec", "8"]) == 5


# -- manifests ------------------------------------------------------------------


def test_manifest_digest_independent_of_input_form(tmp_path):
    from fqlin.jsonio import encode_comp

    u_doc = encode_comp(parse_comp_series(F2, "t + x*t^[q^1]"))
    text_form = {"field": {"p": 2}, "u": "t + x*t^[q^1]"}
    json_form = {"field": {"p": 2}, "u": u_doc}
    _, out_text = run_command(["invert", "-i", write_doc(tmp_path, "a.json", text_form), "--order", "2"])
    _, out_json = run_command(["invert", "-i", write_doc(tmp_path, "b.json", json_form), "--order", "2"])
    assert out_text["manifest"]["inputs"]["u"] == out_json["manifest"]["inputs"]["u"]

    golden = run_command(["invert", "--p", "2", "t + x*t^[q^1]", "--order", "2"])[1]
    assert golden["manifest"]["inputs"]["u"] == out_text["manifest"]["inputs"]["u"]


SUBCOMMANDS = [
    "add", "compose", "power", "invert", "factor", "ore", "fraction-normalize", "tau", "delta",
    "d", "bracket", "solve-implicit", "solve-ode", "solve-riccati", "eval", "certify", "residual-check",
]
NEEDS_ORDER = ["solve-implicit", "solve-ode", "solve-riccati", "residual-check"]
READS_ORDER = {"invert", "ore", "fraction-normalize", *NEEDS_ORDER}
READS_XPREC = {"invert", "fraction-normalize", "solve-implicit", "solve-ode", "solve-riccati"}


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    listed = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == SUBCOMMANDS


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_order_and_xprec_belong_to_the_commands_that_read_them(command, capsys):
    """A flag the command ignores would be recorded in the manifest as if it
    had been applied, so it is refused; every command that reads it accepts it."""
    base = [command, *{"power": ["--k", "1"], "tau": ["--j", "1"], "bracket": ["--k", "1"]}.get(command, [])]
    base += ["--order", "2"] if command in NEEDS_ORDER else []
    for flag, dest, readers in (("--order", "order", READS_ORDER), ("--xprec", "xprec", READS_XPREC)):
        if command in readers:
            assert getattr(build_parser().parse_args(base + [f"{flag}=1"]), dest) in (1, "1")
        else:
            capsys.readouterr()
            assert main(base + [f"{flag}=1"]) == 2
            assert f"unrecognized arguments: {flag}=1" in capsys.readouterr().err


@pytest.mark.parametrize("command", NEEDS_ORDER)
def test_solvers_and_residual_check_need_order(command, capsys):
    assert main([command, "-i", "problem.json"]) == 2
    assert "the following arguments are required: --order" in capsys.readouterr().err


def test_output_file_matches_stdout_document(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["bracket", "--p", "3", "--k", "1", "-o", str(target)])
    assert code == 0
    on_disk = json.loads(target.read_text(encoding="utf-8"))
    code = main(["bracket", "--p", "3", "--k", "1"])
    printed = json.loads(capsys.readouterr().out)
    assert on_disk == printed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: the ODE certificate takes kappa from the stored coefficients only",
)
def test_ode_certificate_rejects_what_higher_orders_reject():
    """A t0 with v(t0) <= kappa is rejected.  Every t0 that the order-9
    coefficients of solve-ode-time-change reject, the order-3 certificate
    must reject too; today it admits t0 = x^{5/2} (kappa = 19/8 against
    1503/512 at order 9), where the series diverges."""
    case = str(FIXTURES / "solve-ode-time-change" / "input.json")
    kappa = {}
    for order in (3, 9):
        code, out = run_command(["solve-ode", "--order", str(order), "--xprec", "12", "-i", case])
        assert code == 0
        kappa[order] = decode_exp(out["result"]["certificate"]["kappa"], 2)
    v_t0 = Fraction(5, 2)
    assert v_t0 <= kappa[9]  # rejected by the order-9 coefficients
    assert v_t0 <= kappa[3] and kappa[3] >= kappa[9]
