"""Regenerate the golden CLI fixtures.

Each fixture directory holds the exact command line (argv.json), an input
document when the command reads one (input.json), and the output document
the command must reproduce byte for byte (output.json). The test suite
replays every directory and compares bytes, so regenerating is only
appropriate after an intentional format change.
"""

import json
import shutil
import sys
from pathlib import Path

from fqlin.cli import run_command
from fqlin.jsonio import canonical_dumps

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

F2 = {"p": 2}

ODE_GOLDEN = {"field": F2, "a": [{"j": 0, "k": 0, "coef": "x"}]}


def solved_ode_candidate():
    code, out = run_command(["solve-ode", "-i", str(FIXTURES / "solve-ode-golden" / "input.json"),
                             "--order", "2", "--xprec", "6"])
    assert code == 0
    return out["result"]["z"]


CASES = [
    ("bracket-negative", ["bracket", "--p", "2", "--k", "-1"], None),
    ("bracket-one", ["bracket", "--p", "2", "--k", "1"], None),
    ("add-characteristic", ["add", "--p", "2", "t", "t"], None),
    ("compose-sample", ["compose", "--p", "2", "t^[q^1]", "x*t + t^[q^1]"], None),
    ("power-identity", ["power", "--p", "2", "t", "--k", "5"], None),
    ("invert-golden", ["invert", "--p", "2", "t + x*t^[q^1]", "--order", "3"], None),
    ("invert-inexact",
     ["invert", "--p", "3",
      "(1 + x + O(x^6))*t + (x^-1 + O(x^4))*t^[q^1] + x*t^[q^2] + O(t^[q^5])",
      "--order", "4", "--xprec", "12"], None),
    ("factor-monomial", ["factor", "--p", "2", "x*t^[q^1] + t^[q^2]"], None),
    ("ore-golden", ["ore", "--p", "2", "t^[q^1]", "t^[q^1] + x*t^[q^2]", "--order", "6"], None),
    ("ore-inexact",
     ["ore", "--p", "2", "(x + O(x^5))*t^[q^1] + t^[q^2]",
      "x^-1*t + (1 + O(x^3))*t^[q^1] + O(t^[q^4])", "--order", "4"], None),
    ("fraction-normalize-unit",
     ["fraction-normalize", "--p", "2", "t + x*t^[q^1]", "t", "--order", "3"], None),
    ("fraction-normalize-dense",
     ["fraction-normalize", "--p", "2", "t^[q^1] + x*t^[q^2] + (x^-1 + x^2)*t^[q^3] + t^[q^4]",
      "x*t + t^[q^2]", "--order", "5"], None),
    ("tau-twist", ["tau", "--p", "2", "x*t^[q^1]", "--j", "1"], None),
    ("delta-eigenvalue", ["delta", "--p", "2", "t^[q^1]"], None),
    ("delta-meromorphic", ["delta", "--p", "2", "x*t^[q^-1]"], None),
    ("d-golden", ["d", "--p", "2", "t^[q^1]"], None),
    ("d-meromorphic", ["d", "--p", "2", "x*t^[q^-1]"], None),
    ("solve-implicit-golden",
     ["solve-implicit", "--order", "4", "--check"],
     {"field": F2, "nu": 0, "P": ["t^[q^1]", "t", "t"]}),
    ("solve-ode-golden",
     ["solve-ode", "--order", "2", "--xprec", "6", "--check"],
     ODE_GOLDEN),
    ("solve-ode-time-change",
     ["solve-ode", "--order", "3", "--xprec", "12", "--check"],
     {"field": F2, "a": [{"j": 0, "k": 0, "coef": "x^-1"}, {"j": 0, "k": 2, "coef": "1"}]}),
    ("solve-implicit-shifted",
     ["solve-implicit", "--order", "7", "--xprec", "8", "--check"],
     {"field": F2, "nu": 1, "P": ["x*t^[q^3] + x^-1*t^[q^4]", "t^[q^1] + x*t^[q^2]",
                                  "t + x^-1*t^[q^1]", "x*t + t^[q^2]"]}),
    ("solve-ode-nonlinear",
     ["solve-ode", "--order", "5", "--xprec", "16", "--check"],
     {"field": F2, "a": [{"j": 0, "k": 0, "coef": "x^-1"}, {"j": 1, "k": 0, "coef": "x + x^2"},
                         {"j": 0, "k": 3, "coef": "1"}, {"j": 1, "k": 1, "coef": "x"}]}),
    ("solve-riccati-golden",
     ["solve-riccati", "--order", "3", "--xprec", "8", "--check"],
     {"field": F2, "lam": "x^{1/4}", "p": [], "r": [], "branch": "zero"}),
    ("solve-riccati-lift",
     ["solve-riccati", "--order", "4", "--xprec", "12", "--check"],
     {"field": F2, "lam": "x^{1/4}", "p": [{"k": 1, "coef": "x"}],
      "r": [{"k": 0, "coef": "x^{1/2}"}], "branch": "zero"}),
    ("solve-riccati-nonzero",
     ["solve-riccati", "--order", "4", "--xprec", "12", "--check"],
     {"field": {"p": 3, "s": 2}, "lam": "x^{1/9}", "p": [{"k": 1, "coef": "x^{10/9}"}],
      "r": [{"k": 0, "coef": "x^{19/9}"}], "branch": "nonzero"}),
    ("eval-monomial", ["eval", "--p", "2", "t^[q^1]", "x"], None),
    ("certify-pole",
     ["certify", "--p", "2", "x^-2*t^[q^1] + x^-4*t^[q^2] + O(t^[q^3])"], None),
    ("residual-check-pass",
     ["residual-check", "--order", "2"],
     lambda: {"field": F2, "type": "ode", "problem": {"a": ODE_GOLDEN["a"]},
              "candidate": solved_ode_candidate()}),
]


def main():
    if FIXTURES.exists():
        shutil.rmtree(FIXTURES)
    for name, argv, input_doc in CASES:
        case_dir = FIXTURES / name
        case_dir.mkdir(parents=True)
        full_argv = list(argv)
        if callable(input_doc):
            input_doc = input_doc()
        if input_doc is not None:
            (case_dir / "input.json").write_text(canonical_dumps(input_doc), encoding="utf-8")
            full_argv += ["-i", str(case_dir / "input.json")]
        full_argv += ["-o", str(case_dir / "output.json")]
        (case_dir / "argv.json").write_text(canonical_dumps(argv), encoding="utf-8")
        code, _ = run_command(full_argv)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return code
        print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
