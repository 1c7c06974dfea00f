"""JSON documents for kernel values, canonical bytes, and input digests.

Every value the command line reads or writes has a document form built from
exact integers only:

* field config       ``{"p": 2, "v": 1, "s": 1, "modulus": [0, 1]}``
* field element      coordinate array over F_p, e.g. ``[1, 0]``
* exponent in Z[1/p] ``{"num": 1, "den_exp": 2}`` meaning num / p^den_exp
* twisted series     ``{"prec": <exp>|null, "terms": [{"e": <exp>, "c": [..]}]}``
* composition series ``{"N": 8|null, "terms": [{"k": -1, "coef": <series>}]}``
* left fraction      ``{"denom": <comp>, "numer": <comp>}``

``canonical_dumps`` fixes one byte encoding per document (sorted keys, no
whitespace, trailing newline) so that digests and golden files are stable.
"""

import hashlib
import json
from fractions import Fraction

from .errors import ValidationError
from .fields import INF, MAX_PERF_DEPTH, FieldConfig, PerfSeries, den_exp
from .series import CompSeries
from .solvers import ImplicitProblem, OdeProblem, RiccatiProblem
from .textio import decimal_exp, parse_comp_series, parse_perf_series, parse_series


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _int(value, what):
    _require(isinstance(value, int) and not isinstance(value, bool), f"{what} must be an integer")
    return value


def _index(field, value, what):
    """An integer composition index or order, bounded by ``check_twist``."""
    field.check_twist(_int(value, what), what)
    return value


def _array(value, what):
    _require(isinstance(value, list), f"{what} must be an array")
    return value


def encode_exp(e, p):
    e = decimal_exp(e)
    exp = den_exp(e, p)
    _require(exp is not None, f"exponent denominator {e.denominator} is not a power of {p}")
    return {"num": e.numerator, "den_exp": exp}


def decode_exp(doc, p):
    """The exponent num / p^den_exp; the one place that builds it."""
    _require(isinstance(doc, dict), "exponent must be an object")
    exp = _int(doc.get("den_exp"), "den_exp")
    _require(0 <= exp <= MAX_PERF_DEPTH, f"den_exp must be in 0..{MAX_PERF_DEPTH}, got {exp}")
    return Fraction(_int(doc.get("num"), "num"), p**exp)


def encode_field(field):
    return {"p": field.p, "v": field.v, "s": field.s, "modulus": list(field.modulus)}


def decode_field(doc):
    _require(isinstance(doc, dict), "field config must be an object")
    kwargs = {"p": _int(doc.get("p"), "p")}
    for name in ("v", "s", "perf_depth"):
        if doc.get(name) is not None:
            kwargs[name] = _int(doc[name], name)
    if doc.get("modulus") is not None:
        _require(isinstance(doc["modulus"], list), "modulus must be an array")
        kwargs["modulus"] = tuple(_int(c, "modulus coefficient") for c in doc["modulus"])
    return FieldConfig(**kwargs)


def encode_elem(c):
    return list(c.coords)


def encode_perf(a):
    return {
        "prec": None if a.prec == INF else encode_exp(a.prec, a.field.p),
        "terms": [{"e": encode_exp(e, a.field.p), "c": encode_elem(c)} for e, c in a.terms],
    }


def decode_perf(field, doc):
    _require(isinstance(doc, dict), "series must be an object")
    terms = []
    for item in _array(doc.get("terms", []), "series terms"):
        _require(isinstance(item, dict), "series term must be an object")
        coords = item.get("c")
        _require(isinstance(coords, list), "coefficient must be a coordinate array")
        coords = [_int(c, "coordinate") for c in coords]
        terms.append((decode_exp(item.get("e"), field.p), field.elem(coords)))
    prec = doc.get("prec")
    return PerfSeries(field, terms, INF if prec is None else decode_exp(prec, field.p))


def encode_comp(u):
    return {
        "N": None if u.order == INF else u.order,
        "terms": [{"k": k, "coef": encode_perf(u.terms[k])} for k in sorted(u.terms)],
    }


def decode_comp(field, doc):
    _require(isinstance(doc, dict), "composition series must be an object")
    terms = []  # CompSeries sums a repeated index
    for item in _array(doc.get("terms", []), "composition terms"):
        _require(isinstance(item, dict), "composition term must be an object")
        terms.append((_index(field, item.get("k"), "k"), decode_perf(field, item.get("coef"))))
    order = doc.get("N")
    return CompSeries(field, terms, INF if order is None else _index(field, order, "N"))


def comp_value(field, value):
    """A composition series from either a grammar string or a document."""
    if isinstance(value, str):
        return parse_comp_series(field, value)
    return decode_comp(field, value)


def perf_value(field, value):
    if isinstance(value, str):
        return parse_perf_series(field, value)
    return decode_perf(field, value)


def series_value(field, value):
    """Auto-detecting decode: documents carry an "N" key exactly when they
    are composition series; strings are detected by the token ``t``."""
    if isinstance(value, str):
        return parse_series(field, value)
    _require(isinstance(value, dict), "series value must be a string or object")
    terms = value.get("terms", [])
    if "N" in value or (isinstance(terms, list) and any(isinstance(t, dict) and "k" in t for t in terms)):
        return decode_comp(field, value)
    return decode_perf(field, value)


def encode_series(value):
    if isinstance(value, CompSeries):
        return encode_comp(value)
    return encode_perf(value)


def encode_unit_factorization(fact):
    return {"shift": fact.shift, "unit": encode_comp(fact.unit)}


def encode_normal_form(nf):
    return {"shift": nf.shift, "series": encode_comp(nf.series)}


def encode_certificate(cert, p):
    return {"kappa": encode_exp(cert.kappa, p), "order": None if cert.order == INF else cert.order}


def decode_implicit(field, doc):
    _require(isinstance(doc, dict), "implicit problem must be an object")
    coeffs = doc.get("P")
    _require(isinstance(coeffs, list), "P must be an array of composition series")
    nu = doc.get("nu", 0)
    return ImplicitProblem(
        P=tuple(comp_value(field, item) for item in coeffs),
        nu=_int(nu, "nu"),
    )


def decode_ode(field, doc):
    _require(isinstance(doc, dict), "differential problem must be an object")
    entries = doc.get("a")
    _require(isinstance(entries, list), "a must be an array of {j, k, coef} entries")
    a = []  # OdeProblem sums a repeated (j, k)
    for item in entries:
        _require(isinstance(item, dict), "right-side entry must be an object")
        key = (_int(item.get("j"), "j"), _int(item.get("k"), "k"))
        a.append((key, perf_value(field, item.get("coef"))))
    return OdeProblem(field=field, a=a)


def decode_riccati(field, doc):
    _require(isinstance(doc, dict), "Riccati problem must be an object")
    lam = doc.get("lam")
    _require(lam is not None, "Riccati problem needs lam")

    def keyed(name):  # RiccatiProblem sums a repeated k
        out = []
        items = doc.get(name)
        for item in [] if items is None else _array(items, name):
            _require(isinstance(item, dict), f"{name} entry must be an object")
            out.append((_int(item.get("k"), "k"), perf_value(field, item.get("coef"))))
        return out

    return RiccatiProblem(
        lam=perf_value(field, lam),
        p=keyed("p"),
        r=keyed("r"),
        branch=doc.get("branch", "zero"),
    )


def encode_problem(prob):
    if isinstance(prob, ImplicitProblem):
        return {"nu": prob.nu, "P": [encode_comp(c) for c in prob.P]}
    if isinstance(prob, OdeProblem):
        return {
            "a": [
                {"j": j, "k": k, "coef": encode_perf(prob.a[(j, k)])}
                for j, k in sorted(prob.a)
            ]
        }
    if isinstance(prob, RiccatiProblem):
        return {
            "lam": encode_perf(prob.lam),
            "p": [{"k": k, "coef": encode_perf(prob.p[k])} for k in sorted(prob.p)],
            "r": [{"k": k, "coef": encode_perf(prob.r[k])} for k in sorted(prob.r)],
            "branch": prob.branch,
        }
    raise ValidationError(f"cannot encode {type(prob).__name__}")


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def digest(obj):
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def build_manifest(command, field, order, xprec, inputs, extra):
    doc = {
        "command": command,
        "field": encode_field(field),
        "order": None if order == INF else order,
        "xprec": None if xprec == INF else encode_exp(xprec, field.p),
        "perf_depth": field.perf_depth,
        "inputs": {name: digest(value) for name, value in inputs.items()},
    }
    if extra:
        doc.update(extra)
    return doc
