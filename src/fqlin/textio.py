"""Readable expressions for scalar and composition series.

Canonical form examples: ``x^{1/2}*t^[q^-1]``, ``(1+g)*x^2*t``,
``x + x^2 + O(x^33)``, ``t^[q^1] + O(t^[q^5])``.  The parser accepts a
whitespace-insensitive superset (signs, parenthesized scalars such as
``(1+x)*x^2*t``, unbraced integer exponents) and round-trips everything
the emitters produce whose indices are in range (see below).

Grammar (EBNF, whitespace between tokens ignored):

    comp_series  = [ sign ] cterm { sign cterm } ;
    cterm        = "O" "(" tmono ")"                  (* unknown from here *)
                 | tmono
                 | satom "*" tmono
                 | "0" ;                              (* exact zero series *)
    tmono        = "t" [ "^" "[" "q" "^" integer "]" ] ;

    scalar       = [ sign ] sterm { sign sterm } ;
    sterm        = "O" "(" xmono ")"                  (* precision bound *)
                 | satom ;
    satom        = "(" scalar ")" [ "*" xmono ]
                 | elem [ "*" xmono ]
                 | xmono ;
    xmono        = "x" [ "^" exponent ] ;
    elem         = gatom { "*" gatom } ;
    gatom        = integer | "g" [ "^" integer ] ;
    exponent     = integer | "{" integer [ "/" integer ] "}" ;
    sign         = "+" | "-" ;
    integer      = [ "-" ] digit { digit } ;
    digit        = "0" | "1" | ... | "9" ;            (* ASCII only *)

A composition order marker O(t^[q^M]) states that indices >= M are not
accounted for, matching a series order of M - 1; a scalar marker O(x^e)
is the usual x-adic precision bound.  Any other character, a literal
longer than int() converts, and an index k or order M - 1 with
q^|k| > 2^1024 (``FieldConfig.check_twist``: |k| <= 1024 for q = 2) is
a ParseError at its position.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError, ValidationError
from .fields import INF, PerfSeries, den_exp
from .series import CompSeries

__all__ = [
    "emit_comp_series",
    "emit_perf_series",
    "emit_series",
    "parse_comp_series",
    "parse_perf_series",
    "parse_series",
]


# ---------------------------------------------------------------------------
# emitters


def decimal_exp(e):
    """The exponent e as a Fraction whose numerator str() can write.  Past
    the interpreter's int-to-str limit (``sys.get_int_max_str_digits()``,
    4300 digits by default) it is a ValidationError.  Both emitters read
    every exponent through here (the JSON one in ``jsonio.encode_exp``); the
    other integers they write are indices, orders and coordinates, which
    ``check_twist`` and the field size keep small."""
    if not isinstance(e, Fraction):  # series exponents already are: no copy
        e = Fraction(e)
    limit = sys.get_int_max_str_digits()
    # a numerator of at most 3 * limit bits is below 8^limit < 10^limit
    if limit and e.numerator.bit_length() > 3 * limit and abs(e.numerator) >= 10**limit:
        raise ValidationError(f"an output exponent has more than the int-to-str limit of {limit} digits")
    return e


def _emit_exp(e):
    e = decimal_exp(e)
    if e.denominator == 1:
        return f"x^{e.numerator}"
    return f"x^{{{e.numerator}/{e.denominator}}}"


def _emit_elem(c):
    parts = []
    for i, coord in enumerate(c.coords):
        if not coord:
            continue
        if i == 0:
            parts.append(str(coord))
        else:
            gpow = "g" if i == 1 else f"g^{i}"
            parts.append(gpow if coord == 1 else f"{coord}*{gpow}")
    return "+".join(parts) if parts else "0"


def _emit_scalar_term(e, c):
    elem_str = _emit_elem(c)
    if e == 0:
        return elem_str
    xpart = "x" if e == 1 else _emit_exp(e)
    if c == c.field.one():
        return xpart
    if "+" in elem_str:
        return f"({elem_str})*{xpart}"
    return f"{elem_str}*{xpart}"


def emit_perf_series(a):
    """Canonical text for a scalar series."""
    parts = [_emit_scalar_term(e, c) for e, c in a.terms]
    if a.prec != INF:
        parts.append(f"O({_emit_exp(a.prec)})")
    if not parts:
        return "0"
    return " + ".join(parts)


def _emit_tmono(k):
    return "t" if k == 0 else f"t^[q^{k}]"


def emit_comp_series(u):
    """Canonical text for a composition series."""
    parts = []
    for k in sorted(u.terms):
        coef = u.terms[k]
        tpart = _emit_tmono(k)
        if coef == PerfSeries.one(u.field):
            parts.append(tpart)
            continue
        coef_str = emit_perf_series(coef)
        if "+" in coef_str or " " in coef_str:
            parts.append(f"({coef_str})*{tpart}")
        else:
            parts.append(f"{coef_str}*{tpart}")
    if u.order != INF:
        parts.append(f"O(t^[q^{int(u.order) + 1}])")
    if not parts:
        return "0"
    return " + ".join(parts)


def emit_series(obj):
    if isinstance(obj, CompSeries):
        return emit_comp_series(obj)
    if isinstance(obj, PerfSeries):
        return emit_perf_series(obj)
    raise ValidationError(f"cannot emit {type(obj).__name__} as text")


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN = re.compile(
    r"(?P<INT>[0-9]+)|(?P<NAME>[txgqO])|(?P<SYM>[-+*/^()\[\]{}])|(?P<SPACE>\s+)|(?P<BAD>.)",
    re.DOTALL,
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "SPACE":
            continue
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "INT":
            try:
                value = int(value)
            except ValueError:  # past int()'s limit on decimal digits
                raise ParseError(f"integer literal of {len(value)} digits is too long", pos) from None
        tokens.append((kind, value, pos))
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, field, tokens):
        self.field = field
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "END":
            self.pos += 1
        return tok

    def expect(self, kind, value=None, expected=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(
                f"unexpected {tok[1]!r}" if tok[0] != "END" else "unexpected end",
                tok[2],
                expected or value or kind,
            )
        return self.advance()

    def at(self, kind, value=None, ahead=0):
        tok = self.peek(ahead)
        return tok[0] == kind and (value is None or tok[1] == value)

    def at_sign(self):
        return self.at("SYM", "+") or self.at("SYM", "-")

    # -- shared pieces --

    def integer(self, expected="integer"):
        neg = False
        if self.at("SYM", "-"):
            self.advance()
            neg = True
        tok = self.expect("INT", expected=expected)
        return -tok[1] if neg else tok[1]

    def exponent(self):
        if self.at("SYM", "{"):
            pos = self.peek()[2]
            self.advance()
            num = self.integer()
            den = 1
            if self.at("SYM", "/"):
                self.advance()
                den = self.integer("denominator")
            self.expect("SYM", "}")
            if den == 0 or den_exp(Fraction(num, den), self.field.p) is None:
                raise ParseError(
                    f"exponent denominator must be a power of {self.field.p}", pos
                )
            return Fraction(num, den)
        return Fraction(self.integer("exponent"))

    def xmono(self):
        self.expect("NAME", "x")
        if self.at("SYM", "^"):
            self.advance()
            return self.exponent()
        return Fraction(1)

    def times_x(self):
        """An optional "*" xmono after a factor: its exponent, or 0."""
        if self.at("SYM", "*") and self.at("NAME", "x", ahead=1):
            self.advance()
            return self.xmono()
        return Fraction(0)

    def gatom(self):
        if self.at("INT"):
            return self.field.elem(self.advance()[1])
        if self.at("NAME", "g"):
            self.advance()
            power = 1
            if self.at("SYM", "^"):
                self.advance()
                power = self.integer("generator power")
            return self.field.gen() ** power
        tok = self.peek()
        raise ParseError(
            f"unexpected {tok[1]!r}", tok[2], "integer or generator g"
        )

    def elem(self):
        value = self.gatom()
        while self.at("SYM", "*") and self.at("NAME", "g", ahead=1):
            self.advance()
            value = value * self.gatom()
        return value

    def signed_sum(self, term, marker):
        """[ sign ] item { sign item }, an item being "O" "(" marker ")" or a
        term: the (negated, term) pairs and the marker values, in order.
        ``term`` is given the pairs read so far."""
        items, bounds = [], []
        while True:
            neg = self.at_sign() and self.advance()[1] == "-"
            if self.at("NAME", "O"):
                self.advance()
                self.expect("SYM", "(")
                bounds.append(marker())
                self.expect("SYM", ")")
            else:
                items.append((neg, term(items)))
            if not self.at_sign():
                return items, bounds

    # -- scalar series --

    def satom(self):
        """One scalar product, as a series: each term is built, and so its
        exponent checked, where it is read."""
        if self.at("SYM", "("):
            self.advance()
            inner = self.scalar_sum()
            self.expect("SYM", ")")
            return inner.shift_x(self.times_x())
        if self.at("NAME", "x"):
            return PerfSeries(self.field, [(self.xmono(), self.field.one())])
        value = self.elem()
        return PerfSeries(self.field, [(self.times_x(), value)])

    def scalar_sum(self):
        items, bounds = self.signed_sum(lambda _: self.satom(), self.xmono)
        pairs = []
        for neg, term in items:
            pairs += (-term if neg else term).terms
            bounds.append(term.prec)
        return PerfSeries(self.field, pairs, min(bounds, default=INF))

    # -- composition series --

    def tmono(self, name="k", shift=0):
        """t^[q^k]: the index k less ``shift``, refused by ``check_twist``
        under ``name`` when it is out of range."""
        pos = self.expect("NAME", "t")[2]
        k = 0
        if self.at("SYM", "^"):
            self.advance()
            self.expect("SYM", "[")
            self.expect("NAME", "q")
            self.expect("SYM", "^")
            k = self.integer("composition index")
            self.expect("SYM", "]")
        try:
            self.field.check_twist(k - shift, name)
        except ValidationError as exc:
            raise ParseError(str(exc), pos) from None
        return k - shift

    def cterm(self, items):
        """A (k, coefficient) pair, or None for "0", the exact zero series,
        when it is the last token and no term precedes it."""
        if self.at("NAME", "t"):
            return self.tmono(), PerfSeries.one(self.field)
        if self.at("INT", 0) and self.at("END", ahead=1) and not items:
            self.advance()
            return None
        coef = self.satom()
        self.expect("SYM", "*", expected="'*' before t")
        return self.tmono(), coef

    def comp_sum(self):
        items, bounds = self.signed_sum(self.cterm, lambda: self.tmono("M - 1", 1))
        # CompSeries sums a repeated index
        terms = [(item[0], -item[1] if neg else item[1]) for neg, item in items if item is not None]
        return CompSeries(self.field, terms, min(bounds, default=INF))

    def finish(self):
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], "end of input")


def _parse(field, tokens, rule):
    parser = _Parser(field, tokens)
    result = rule(parser)
    parser.finish()
    return result


def parse_perf_series(field, text):
    """Parse a scalar series in the grammar above."""
    return _parse(field, _tokenize(text), _Parser.scalar_sum)


def parse_comp_series(field, text):
    """Parse a composition series in the grammar above."""
    return _parse(field, _tokenize(text), _Parser.comp_sum)


def parse_series(field, text):
    """Parse either kind of series, decided by the presence of 't'."""
    tokens = _tokenize(text)
    comp = any(tok[:2] == ("NAME", "t") for tok in tokens)
    return _parse(field, tokens, _Parser.comp_sum if comp else _Parser.scalar_sum)
