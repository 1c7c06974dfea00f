"""Tests for the text grammar: canonical emission and round-trip parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqlin import CompSeries, PerfSeries
from fqlin.errors import KernelError, ParseError, ValidationError
from fqlin.textio import (
    emit_comp_series,
    emit_perf_series,
    emit_series,
    parse_comp_series,
    parse_perf_series,
    parse_series,
)

from conftest import F2, F3, F4, F4_OVER_F2, SMALL_FIELDS, comp_series, exponents, field_id, perf_series


# -- golden parses -------------------------------------------------------------


def test_parse_identity():
    assert parse_series(F2, "t") == CompSeries.identity(F2)
    assert parse_comp_series(F3, "t") == CompSeries.identity(F3)


def test_parse_meromorphic_term():
    u = parse_series(F2, "x^{1/2}*t^[q^-1]")
    assert u.min_index() == -1
    assert u.coeff(-1) == PerfSeries.x_pow(F2, Fraction(1, 2))
    assert emit_comp_series(u) == "x^{1/2}*t^[q^-1]"


def test_parse_zero_forms():
    z = parse_comp_series(F2, "0")
    assert z.is_exact_zero()
    zp = parse_comp_series(F2, "O(t^[q^5])")
    assert zp.is_zero() and zp.order == 4
    assert parse_perf_series(F2, "0").is_exact_zero()
    tail = parse_perf_series(F2, "O(x^{17/4})")
    assert tail.is_zero() and tail.prec == Fraction(17, 4)


def test_parse_scalar_sum_with_signs():
    a = parse_perf_series(F3, "2*x^2 - x + 1")
    assert a == PerfSeries(
        F3,
        [
            (Fraction(0), F3.one()),
            (Fraction(1), F3.elem(2)),
            (Fraction(2), F3.elem(2)),
        ],
    )
    b = parse_perf_series(F3, "-x")
    assert b == PerfSeries(F3, [(Fraction(1), F3.elem(2))])


def test_parse_generator_coordinates():
    g = F4_OVER_F2.gen()
    a = parse_perf_series(F4_OVER_F2, "(1+g)*x^2 + g")
    assert a.coeff(Fraction(2)) == F4_OVER_F2.one() + g
    assert a.coeff(Fraction(0)) == g
    u = parse_comp_series(F4_OVER_F2, "g*t + (1+g)*t^[q^2]")
    assert u.coeff(0).coeff(Fraction(0)) == g
    assert u.coeff(2).coeff(Fraction(0)) == F4_OVER_F2.one() + g


def test_parse_coefficient_with_precision_tag():
    u = parse_comp_series(F2, "(x + O(x^4))*t^[q^1]")
    c = u.coeff(1)
    assert c.prec == Fraction(4)
    assert c.coeff(Fraction(1)) == F2.one()


def test_parenthesized_coefficient_times_x_before_t():
    assert parse_comp_series(F2, "(1+x)*x*t") == parse_comp_series(F2, "(x + x^2)*t")
    assert parse_series(F3, "(1-x)*x^{1/3}*t^[q^1]") == parse_series(F3, "(x^{1/3} - x^{4/3})*t^[q^1]")


def test_whitespace_insensitive():
    tight = parse_comp_series(F2, "x^{1/2}*t+t^[q^2]+O(t^[q^3])")
    spaced = parse_comp_series(F2, "  x^{1/2} * t  +  t^[q^2]  + O( t^[q^3] ) ")
    assert tight == spaced


def test_auto_detect_kind():
    assert isinstance(parse_series(F2, "x^2 + 1"), PerfSeries)
    assert isinstance(parse_series(F2, "x^2*t"), CompSeries)
    assert isinstance(parse_series(F2, "O(t^[q^3])"), CompSeries)
    assert isinstance(parse_series(F2, "O(x^3)"), PerfSeries)


# -- canonical emission --------------------------------------------------------


def test_emit_canonical_forms():
    assert emit_comp_series(CompSeries.identity(F2)) == "t"
    assert emit_comp_series(CompSeries.zero(F2)) == "0"
    assert emit_comp_series(CompSeries.zero(F2, 4)) == "O(t^[q^5])"
    assert emit_perf_series(PerfSeries.zero(F2)) == "0"
    assert emit_perf_series(PerfSeries.zero(F2, prec=Fraction(3))) == "O(x^3)"
    u = CompSeries(F2, {0: PerfSeries.x_pow(F2, Fraction(-3, 4)), 2: PerfSeries.one(F2)}, 5)
    assert emit_comp_series(u) == "x^{-3/4}*t + t^[q^2] + O(t^[q^6])"


def test_emit_integer_exponents_unbraced():
    a = PerfSeries(F3, [(Fraction(-2), F3.one()), (Fraction(5), F3.elem(2))])
    assert emit_perf_series(a) == "x^-2 + 2*x^5"


def test_emit_series_dispatch():
    assert emit_series(CompSeries.identity(F2)) == "t"
    assert emit_series(PerfSeries.one(F2)) == "1"


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("cfg", SMALL_FIELDS, ids=field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_perf_round_trip(cfg, data):
    a = data.draw(perf_series(cfg, max_terms=4, depth=2, exact=False))
    text = emit_perf_series(a)
    assert parse_perf_series(cfg, text) == a


@pytest.mark.parametrize("cfg", SMALL_FIELDS, ids=field_id)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_comp_round_trip(cfg, data):
    u = data.draw(comp_series(cfg, exact=False))
    text = emit_comp_series(u)
    assert parse_comp_series(cfg, text) == u


@pytest.mark.parametrize("cfg", [F2, F4_OVER_F2], ids=field_id)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_emission_is_stable(cfg, data):
    u = data.draw(comp_series(cfg, exact=False))
    text = emit_comp_series(u)
    assert emit_comp_series(parse_comp_series(cfg, text)) == text


@settings(max_examples=40, deadline=None)
@given(e=exponents(F2, depth=2, span=8))
def test_exponent_round_trip(e):
    a = PerfSeries.x_pow(F2, e)
    assert parse_perf_series(F2, emit_perf_series(a)) == a


# -- errors --------------------------------------------------------------------


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_perf_series(F2, "x^")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_perf_series(F2, "x$")
    assert info.value.position == 1


def test_parse_error_trailing_input():
    with pytest.raises(ParseError):
        parse_perf_series(F2, "x^2 x")
    with pytest.raises(ParseError):
        parse_comp_series(F2, "t )")


def test_parse_error_expected_hint():
    with pytest.raises(ParseError) as info:
        parse_comp_series(F2, "t^[q^")
    assert info.value.expected is not None


@pytest.mark.parametrize(
    "text", ["x^\u00b2", "x^\u0663", "x^" + "7" * 5000], ids=["superscript", "arabic-indic", "overlong"]
)
def test_parse_rejects_non_ascii_digits_and_overlong_literals(text):
    with pytest.raises(ParseError) as info:
        parse_series(F2, text)
    assert info.value.position == 2


GRAMMAR_PIECES = list("txgqO0123456789+-*/^()[]{} ") + ["\u00b2", "\u0663", "7" * 5000]


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=12),
    cfg=st.sampled_from([F2, F3, F4, F4_OVER_F2]),
)
@example(pieces=["x", "^", "\u00b2"], cfg=F2)
@example(pieces=["7" * 5000], cfg=F3)
def test_parse_series_raises_only_kernel_errors(pieces, cfg):
    try:
        parse_series(cfg, "".join(pieces))
    except KernelError:
        pass


def test_parse_rejects_malformed():
    for bad in ["", "^2", "x^{1/3}", "x^{1/0}", "t^[2]", "(x", "x^{1/2", "g^"]:
        with pytest.raises(ParseError):
            parse_series(F2, bad)


def test_indices_and_orders_are_bounded_at_their_position():
    # over F_2, |k| <= 1024 for an index and for the order M - 1 of a marker,
    # the same bound as the "k" and "N" of a JSON composition series
    from fqlin.jsonio import decode_comp, encode_comp

    edge = parse_comp_series(F2, "t^[q^1024] + x*t^[q^-1024] + O(t^[q^1025])")
    assert sorted(edge.terms) == [-1024, 1024] and edge.order == 1024
    assert parse_comp_series(F2, emit_comp_series(edge)) == edge
    assert decode_comp(F2, encode_comp(edge)) == edge
    for text, pos in [("t^[q^1025]", 0), ("x*t^[q^-1025]", 2), ("t + O(t^[q^1026])", 6), ("O(t^[q^-1024])", 2)]:
        with pytest.raises(ParseError) as info:
            parse_comp_series(F2, text)
        assert info.value.position == pos
    one = encode_comp(edge)["terms"][0]["coef"]
    for doc in ({"N": 1025, "terms": []}, {"N": None, "terms": [{"k": -1025, "coef": one}]}):
        with pytest.raises(ValidationError):
            decode_comp(F2, doc)
