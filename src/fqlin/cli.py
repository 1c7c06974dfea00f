"""Command-line surface exposing every kernel operation reproducibly.

One invocation runs one subcommand, reads values either from positional
grammar strings or from a JSON input document (``-i FILE``), and writes a
single JSON document ``{"manifest": ..., "result": ...}`` in canonical byte
form. The manifest records the field configuration, truncation order,
x-adic precision, perfection depth, the command with its scalar arguments,
and a digest of every parsed input, which is enough to reproduce the output
bit for bit.

Exit codes: 0 success, 2 parse or validation error, 3 precondition
violation, 4 non-convergence or a failed residual check, 5 a solution
leaves the configured scalar field.
"""

import argparse
import json
import sys
from collections import namedtuple

from .carlitz import bracket, carlitz_d, carlitz_delta, tau_power
from .errors import KernelError, ResidualCheckFailed, ValidationError
from .fields import INF, MAX_FIELD_BITS, MAX_PERF_DEPTH, MAX_TWIST_BITS, FieldConfig
from .jsonio import (
    build_manifest,
    canonical_dumps,
    comp_value,
    decode_exp,
    decode_field,
    decode_implicit,
    decode_ode,
    decode_riccati,
    encode_certificate,
    encode_comp,
    encode_normal_form,
    encode_perf,
    encode_problem,
    encode_series,
    encode_unit_factorization,
    perf_value,
    series_value,
)
from .ore import OreFraction, factor_unit, fraction_normalize, invert_unit, ore_left_multiple
from .series import growth_certificate
from .solvers import (
    normalize_time_change,
    residual,
    riccati_series,
    solve_implicit,
    solve_ode,
    solve_riccati,
    untransform_ode_solution,
)
from .textio import emit_series

# Decoder and encoder of each kind of positional input.  The lambdas read the
# module globals at call time, so a patched codec function is the one used.
COMP = (lambda field, raw: comp_value(field, raw), lambda value: encode_comp(value))
PERF = (lambda field, raw: perf_value(field, raw), lambda value: encode_perf(value))
SERIES = (lambda field, raw: series_value(field, raw), lambda value: encode_series(value))


class Call:
    """One invocation as a run function sees it.  ``inputs`` and ``extra``
    collect the manifest's input digests and recorded arguments; ``code`` is
    the exit code of a document that is written anyway."""

    def __init__(self, args, doc, field, xprec):
        self.args, self.doc, self.field, self.xprec = args, doc, field, xprec
        self.inputs, self.extra, self.code = {}, {}, 0


# One subcommand: its --help line; run(call, *decoded positional inputs) -> result document, or a series;
# (name, (decoder, encoder)) per positional input; (name, help note) per required integer option, recorded
# in the manifest; and the names of the shared flags it reads, as build_parser's ``flags`` keys them.
Command = namedtuple("Command", "help run inputs options reads", defaults=((), (), ()))


def _power(call, z):
    # the indices of z^{o k} reach k times z's largest |index|: refuse past the bound first
    if call.args.k > 0:
        z.field.check_twist(call.args.k * max(map(abs, z.terms), default=0), "k * max index of z")
    return z.self_power(call.args.k)


def _add(call, a, b):
    if type(a) is not type(b):
        raise ValidationError("add needs two series of the same kind")
    return a + b


def _factor(call, c):
    fact = factor_unit(c)
    return {**encode_unit_factorization(fact), "text": emit_series(fact.unit)}


def _ore(call, a, b):
    a_prime, b_prime = ore_left_multiple(a, b, order=call.args.order)
    return {
        "a_prime": encode_comp(a_prime),
        "a_prime_text": emit_series(a_prime),
        "b_prime": encode_comp(b_prime),
        "b_prime_text": emit_series(b_prime),
    }


def _fraction_normalize(call, denom, numer):
    nf = fraction_normalize(OreFraction(denom=denom, numer=numer), order=call.args.order, xprec=call.xprec)
    return {**encode_normal_form(nf), "text": emit_series(nf.series)}


def _first_nonzero_index(res):
    """Least index whose coefficient is certifiably nonzero, INF if none is.

    Residuals keep zero-modulo-precision coefficients, so a stored term does
    not by itself witness failure; only a coefficient with a certain digit
    does."""
    bad = [k for k, c in res.terms.items() if not c.is_zero()]
    return min(bad, default=INF)


def _checked(call, prob, candidate, result):
    """Record --check in the manifest and, when it is set, back-substitute
    the candidate and fail on a nonzero residual."""
    call.extra["check"] = call.args.check
    if call.args.check:
        bad = _first_nonzero_index(residual(prob, candidate, call.args.order))
        if bad != INF:
            raise ResidualCheckFailed(f"back-substituted residual is nonzero at index {bad}")
        result["check"] = {"residual_zero": True}
    return result


def _solve_implicit(call):
    prob = decode_implicit(call.field, call.doc)
    call.inputs["problem"] = encode_problem(prob)
    z, cert = solve_implicit(prob, call.args.order, xprec=call.xprec)
    result = {
        "z": encode_comp(z),
        "text": emit_series(z),
        "certificate": encode_certificate(cert, call.field.p),
    }
    return _checked(call, prob, z, result)


def _solve_ode(call):
    prob = decode_ode(call.field, call.doc)
    call.inputs["problem"] = encode_problem(prob)
    norm, gamma = normalize_time_change(prob)
    zp, _ = solve_ode(norm, call.args.order, xprec=call.xprec)
    z = zp if norm is prob else untransform_ode_solution(zp, gamma)
    result = {
        "z": encode_comp(z),
        "text": emit_series(z),
        "gamma": encode_perf(gamma),
        "certificate": encode_certificate(growth_certificate(z), call.field.p),
    }
    return _checked(call, prob, z, result)


def _solve_riccati(call):
    doc = call.doc if call.args.branch is None else dict(call.doc, branch=call.args.branch)
    prob = decode_riccati(call.field, doc)
    call.inputs["problem"] = encode_problem(prob)
    call.extra["branch"] = prob.branch
    c, a = solve_riccati(prob, call.args.order, xprec=call.xprec)
    y = riccati_series(c, a, call.field)
    result = {
        "c": encode_perf(c),
        "c_text": emit_series(c),
        "a": [encode_perf(item) for item in a],
        "series": encode_comp(y),
        "text": emit_series(y),
    }
    return _checked(call, prob, y, result)


def _residual_check(call):
    kind = call.doc.get("type")
    decoder = {"implicit": decode_implicit, "ode": decode_ode, "riccati": decode_riccati}.get(kind)
    if decoder is None:
        raise ValidationError('residual-check needs "type": implicit, ode, or riccati')
    problem_doc = call.doc.get("problem")
    if not isinstance(problem_doc, dict):
        raise ValidationError('residual-check needs a "problem" object')
    prob = decoder(call.field, problem_doc)
    candidate = comp_value(call.field, _raw(call.args, call.doc, "candidate"))
    call.inputs["problem"] = encode_problem(prob)
    call.inputs["candidate"] = encode_comp(candidate)
    call.extra["type"] = kind
    res = residual(prob, candidate, call.args.order)
    zero = _first_nonzero_index(res) == INF
    if not zero:
        call.code = ResidualCheckFailed.exit_code
    return {"residual": encode_comp(res), "text": emit_series(res), "zero": zero}


U = (("u", COMP),)
AB = (("a", COMP), ("b", COMP))
SOLVE = ("required-order", "xprec", "check")

# Every subcommand, in --help order.
COMMAND_TABLE = {
    "add": Command("sum of two series", _add, (("a", SERIES), ("b", SERIES))),
    "compose": Command("functional composition a o b", lambda call, a, b: a.compose(b), AB),
    "power": Command(
        "k-th compositional self-power",
        _power,
        (("z", COMP),),
        (("k", "; the same bound holds for k times the largest |index| of z"),),
    ),
    "invert": Command(
        "compositional inverse of a unit",
        lambda call, u: invert_unit(u, order=call.args.order, xprec=call.xprec),
        U,
        reads=("order", "xprec"),
    ),
    "factor": Command("split off the t^[q^m] monomial factor of a series", _factor, (("c", COMP),)),
    "ore": Command("left Ore cofactors a', b' with a' o b = b' o a", _ore, AB, reads=("order",)),
    "fraction-normalize": Command(
        "root twist plus single series form of a left fraction",
        _fraction_normalize,
        (("denom", COMP), ("numer", COMP)),
        reads=("order", "xprec"),
    ),
    "tau": Command("apply the Frobenius twist j times", lambda call, u: tau_power(u, call.args.j), U, (("j", ""),)),
    "delta": Command("the difference operator u(x t) - x u(t)", lambda call, u: carlitz_delta(u), U),
    "d": Command("the Carlitz derivative", lambda call, u: carlitz_d(u), U),
    "bracket": Command("the element x^{q^k} - x", lambda call: bracket(call.field, call.args.k), (), (("k", ""),)),
    "solve-implicit": Command(
        "solve an implicit composition equation from the input document", _solve_implicit, reads=SOLVE
    ),
    "solve-ode": Command("solve d z = sum a_jk tau^j z^{o k} from the input document", _solve_ode, reads=SOLVE),
    "solve-riccati": Command(
        "solve d y = lam (y o y) + P(y) + R from the input document", _solve_riccati, reads=SOLVE + ("branch",)
    ),
    "eval": Command(
        "evaluate a composition series at a scalar point",
        lambda call, u, t0: u.eval_at(t0),
        (("u", COMP), ("t0", PERF)),
    ),
    "certify": Command(
        "growth certificate of stored coefficients",
        lambda call, u: encode_certificate(growth_certificate(u), call.field.p),
        U,
    ),
    "residual-check": Command("back-substitute a candidate into a problem", _residual_check, reads=("required-order",)),
}


def non_negative_int(text):
    """Argument type of --order."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser():
    field, io = argparse.ArgumentParser(add_help=False), argparse.ArgumentParser(add_help=False)
    field.add_argument("--p", type=int, help=f"characteristic of the base field; p^(v*s) <= 2^{MAX_FIELD_BITS}")
    field.add_argument("--v", type=int, help="q = p^v")
    field.add_argument("--s", type=int, help="scalars live in F_{q^s}")
    field.add_argument("--mod", help="modulus coefficients over F_p, ascending, comma-separated")
    field.add_argument("--perf-depth", type=int, help=f"cap exponent denominators at p^E, E <= {MAX_PERF_DEPTH}")
    names = ("order", "required-order", "xprec", "branch", "check")  # the shared flags, in --help order
    flags = {name: argparse.ArgumentParser(add_help=False) for name in names}
    order = f"truncation order N with q^N <= 2^{MAX_TWIST_BITS}"
    flags["order"].add_argument("--order", type=non_negative_int, default=INF, help=order)
    flags["required-order"].add_argument("--order", type=non_negative_int, required=True, help=order)
    flags["xprec"].add_argument("--xprec", help="x-adic precision num/den_exp = num / p^den_exp, den_exp <= perf_depth")
    flags["branch"].add_argument("--branch", choices=["zero", "nonzero"], help="Riccati constant-term branch")
    flags["check"].add_argument("--check", action="store_true", help="back-substitute and fail on nonzero residual")
    io.add_argument("-i", "--input", metavar="FILE", help="JSON input document")
    io.add_argument("-o", "--output", metavar="FILE", help="write the output document here")

    parser = argparse.ArgumentParser(prog="fqlin", description=__doc__.splitlines()[0])
    parser.set_defaults(order=INF, xprec=None)  # the manifest of a command that reads neither
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMAND_TABLE.items():
        parents = [field, *(flags[flag] for flag in flags if flag in command.reads), io]
        sub = subs.add_parser(name, parents=parents, help=command.help)
        for pos, _ in command.inputs:
            limit = f"each index k of t^[q^k] and order M - 1 of O(t^[q^M]) needs q^|k| <= 2^{MAX_TWIST_BITS}"
            sub.add_argument(pos, nargs="?", help=f"series expression (or supply it in the input document); {limit}")
        for flag, note in command.options:
            limit = f"q^|{flag}| <= 2^{MAX_TWIST_BITS}, so |{flag}| <= 1024 for q = 2{note}"
            sub.add_argument(f"--{flag}", type=int, required=True, help=limit)
    return parser


def _load_doc(args):
    if not args.input:
        return {}
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read input document: {exc}")
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past int()'s digit limit
        raise ValidationError(f"input document is not valid JSON: {exc}")


def _resolve_field(args, doc):
    if args.p is not None:
        kwargs = {name: getattr(args, name) for name in ("p", "v", "s", "perf_depth")}
        if args.mod is not None:
            try:
                kwargs["modulus"] = tuple(int(c) for c in args.mod.split(","))
            except ValueError:
                raise ValidationError(f"--mod must be comma-separated integers, got {args.mod!r}")
        return FieldConfig(**{name: value for name, value in kwargs.items() if value is not None})
    for name in ("v", "s", "mod"):
        if getattr(args, name) is not None:
            raise ValidationError(f"--{name} needs --p: without it the field is the input document's")
    if "field" in doc:
        field = decode_field(doc["field"])
        if args.perf_depth is not None:
            field = FieldConfig(field.p, field.v, field.s, field.modulus, args.perf_depth)
        return field
    raise ValidationError("no field configured: pass --p or an input document with a field entry")


def _resolve_xprec(args, field):
    if args.xprec is None:
        return INF
    num, _, den = args.xprec.partition("/")
    try:
        exp = {"num": int(num), "den_exp": int(den or "0")}
    except ValueError:
        raise ValidationError(f"--xprec must look like num or num/den_exp, got {args.xprec!r}")
    if exp["num"] < 0:
        raise ValidationError(f"--xprec must be non-negative, got {args.xprec!r}")
    if exp["den_exp"] > field.perf_depth:
        raise ValidationError(f"--xprec den_exp must be <= perf_depth = {field.perf_depth}, got {args.xprec!r}")
    return decode_exp(exp, field.p)


def _raw(args, doc, name):
    value = getattr(args, name, None)
    if value is None:
        value = doc.get(name)
    if value is None:
        raise ValidationError(f"missing input {name!r}: pass it positionally or in the input document")
    return value


def _execute(args):
    doc = _load_doc(args)
    field = _resolve_field(args, doc)
    if args.order != INF:
        field.check_twist(args.order, "order")  # step i forms q^i: refuse before any work
    call = Call(args, doc, field, _resolve_xprec(args, field))
    command = COMMAND_TABLE[args.command]
    values = []
    for name, (decode, encode) in command.inputs:
        value = decode(field, _raw(args, doc, name))
        call.inputs[name] = encode(value)
        values.append(value)
    for name, _ in command.options:
        call.extra[name] = getattr(args, name)
    result = command.run(call, *values)
    if not isinstance(result, dict):
        result = {"value": encode_series(result), "text": emit_series(result)}
    extra = {"args": call.extra} if call.extra else None
    manifest = build_manifest(
        args.command, field, order=args.order, xprec=call.xprec, inputs=call.inputs, extra=extra
    )
    return {"manifest": manifest, "result": result}, call.code


def run_command(argv):
    """Exit code plus output document for one command line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    try:
        out, code = _execute(args)
    except KernelError as exc:
        detail = f"error: {type(exc).__name__}: {exc}"
        if getattr(exc, "required_degree", None) is not None:
            detail += f" (required relative degree {exc.required_degree})"
        print(detail, file=sys.stderr)
        return exc.exit_code, None
    text = canonical_dumps(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code, out


def main(argv=None):
    code, _ = run_command(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
