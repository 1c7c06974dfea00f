"""Readable expressions for scalar and composition series.

Canonical form examples: ``x^{1/2}*t^[q^-1]``, ``(1+g)*x^2*t``,
``x + x^2 + O(x^33)``, ``t^[q^1] + O(t^[q^5])``.  The parser accepts a
whitespace-insensitive superset (signs, parenthesized scalars, unbraced
integer exponents) and round-trips everything the emitters produce.

Grammar (EBNF, whitespace between tokens ignored):

    comp_series  = [ sign ] cterm { sign cterm } ;
    cterm        = "O" "(" tmono ")"                  (* unknown from here *)
                 | tmono
                 | scalar_factor "*" tmono
                 | "0" ;                              (* exact zero series *)
    tmono        = "t" [ "^" "[" "q" "^" integer "]" ] ;
    scalar_factor= "(" scalar ")" | satom ;

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

A composition order marker O(t^[q^M]) states that indices >= M are not
accounted for, matching a series order of M - 1; a scalar marker O(x^e)
is the usual x-adic precision bound.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError, ValidationError
from .fields import INF, PerfSeries, den_exp, is_inf
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


def _emit_exp(e):
    e = Fraction(e)
    if e == 1:
        return "x"
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


def _elem_is_one(c):
    return c == c.field.one()


def _emit_scalar_term(e, c):
    elem_str = _emit_elem(c)
    if e == 0:
        return elem_str
    xpart = _emit_exp(e)
    if _elem_is_one(c):
        return xpart
    if "+" in elem_str:
        return f"({elem_str})*{xpart}"
    return f"{elem_str}*{xpart}"


def emit_perf_series(a):
    """Canonical text for a scalar series."""
    parts = [_emit_scalar_term(e, c) for e, c in a.terms]
    if not is_inf(a.prec):
        prec = Fraction(a.prec)
        if prec.denominator == 1:
            parts.append(f"O(x^{prec.numerator})")
        else:
            parts.append(f"O(x^{{{prec.numerator}/{prec.denominator}}})")
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
        if (
            is_inf(coef.prec)
            and len(coef.terms) == 1
            and coef.terms[0][0] == 0
            and _elem_is_one(coef.terms[0][1])
        ):
            parts.append(tpart)
            continue
        coef_str = emit_perf_series(coef)
        if "+" in coef_str or " " in coef_str:
            parts.append(f"({coef_str})*{tpart}")
        else:
            parts.append(f"{coef_str}*{tpart}")
    if not is_inf(u.order):
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


_SYMBOLS = set("+-*/^()[]{}")
_NAMES = set("txgqO")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch in _NAMES:
            tokens.append(("NAME", ch, i))
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("SYM", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, field, text):
        self.field = field
        self.text = text
        self.tokens = _tokenize(text)
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

    # -- scalar series --

    def satom(self):
        """One scalar product: returns (elem-or-series, exponent)."""
        if self.at("SYM", "("):
            self.advance()
            inner = self.scalar_sum(stop=")")
            self.expect("SYM", ")")
            exp = Fraction(0)
            if self.at("SYM", "*") and self.at("NAME", "x", ahead=1):
                self.advance()
                exp = self.xmono()
            return inner.shift_x(exp), None
        if self.at("NAME", "x"):
            return self.field.one(), self.xmono()
        value = self.elem()
        if self.at("SYM", "*") and self.at("NAME", "x", ahead=1):
            self.advance()
            return value, self.xmono()
        return value, Fraction(0)

    def scalar_sum(self, stop=None):
        total = PerfSeries.zero(self.field)
        prec = INF
        first = True
        while True:
            sign = 1
            if self.at("SYM", "+") or self.at("SYM", "-"):
                if first and self.at("SYM", "-"):
                    sign = -1
                    self.advance()
                elif not first:
                    if self.advance()[1] == "-":
                        sign = -1
                else:
                    self.advance()
            elif not first:
                break
            first = False
            if self.at("NAME", "O"):
                self.advance()
                self.expect("SYM", "(")
                e = self.xmono()
                self.expect("SYM", ")")
                prec = min(prec, e)
                continue
            value, exp = self.satom()
            if exp is None:  # parenthesized sub-series
                term = value
            else:
                term = PerfSeries(self.field, [(exp, value)])
            if sign < 0:
                term = -term
            total = total + term
            if stop is not None and self.at("SYM", stop):
                break
            if not (self.at("SYM", "+") or self.at("SYM", "-")):
                break
        return total.truncate(prec) if not is_inf(prec) else total

    # -- composition series --

    def tmono(self):
        self.expect("NAME", "t")
        if self.at("SYM", "^"):
            self.advance()
            self.expect("SYM", "[")
            self.expect("NAME", "q")
            self.expect("SYM", "^")
            k = self.integer("composition index")
            self.expect("SYM", "]")
            return k
        return 0

    def comp_sum(self):
        terms = {}
        order = INF
        first = True
        while True:
            sign = 1
            if self.at("SYM", "+") or self.at("SYM", "-"):
                tok = self.advance()
                if tok[1] == "-":
                    sign = -1
                if first and tok[1] == "+":
                    sign = 1
            elif not first:
                break
            first = False
            if self.at("NAME", "O"):
                self.advance()
                self.expect("SYM", "(")
                m = self.tmono()
                self.expect("SYM", ")")
                order = min(order, m - 1)
                continue
            if self.at("NAME", "t"):
                k = self.tmono()
                coef = PerfSeries.one(self.field)
            elif self.at("INT", 0) and self.at("END", ahead=1) and not terms:
                self.advance()
                continue  # "0": the exact zero series
            else:
                if self.at("SYM", "("):
                    self.advance()
                    coef = self.scalar_sum(stop=")")
                    self.expect("SYM", ")")
                else:
                    value, exp = self.satom()
                    coef = (
                        value
                        if exp is None
                        else PerfSeries(self.field, [(exp, value)])
                    )
                self.expect("SYM", "*", expected="'*' before t")
                k = self.tmono()
            if sign < 0:
                coef = -coef
            terms[k] = terms.get(k, PerfSeries.zero(self.field)) + coef
            if not (self.at("SYM", "+") or self.at("SYM", "-")):
                break
        return CompSeries(self.field, terms, order)

    def finish(self):
        tok = self.peek()
        if tok[0] != "END":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], "end of input")


def parse_perf_series(field, text):
    """Parse a scalar series in the grammar above."""
    parser = _Parser(field, text)
    result = parser.scalar_sum()
    parser.finish()
    return result


def parse_comp_series(field, text):
    """Parse a composition series in the grammar above."""
    parser = _Parser(field, text)
    result = parser.comp_sum()
    parser.finish()
    return result


def parse_series(field, text):
    """Parse either kind of series, decided by the presence of 't'."""
    for kind, value, _ in _tokenize(text):
        if kind == "NAME" and value == "t":
            return parse_comp_series(field, text)
    return parse_perf_series(field, text)
