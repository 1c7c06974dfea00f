"""Unit factorization, unit inversion, and the Ore construction.

Every result here is checked by multiplying back: a factorization must
recompose to its input, an inverse must compose to the identity on both
sides, and an Ore pair must satisfy the common-multiple balance exactly on
all indices both sides know.  Unit inversion is also checked byte for byte
against the compositional geometric series, an independent algorithm kept
here only as a reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlin import (
    INF,
    CompSeries,
    NotAUnit,
    OreFraction,
    PerfSeries,
    PrecisionExhausted,
    ValidationError,
    ZeroDenominator,
    ZeroInput,
    factor_unit,
    fraction_normalize,
    invert_unit,
    ore_left_multiple,
    tau_power,
)
from fqlin.jsonio import encode_comp

from conftest import F2, F3, F4, assert_cs_close, exponents, perf_series


def nonzero_comp_series(cfg, max_terms=3, max_index=3):
    pair = st.tuples(
        st.integers(0, max_index),
        perf_series(cfg, max_terms=2, depth=0, nonzero=True),
    )
    return (
        st.lists(pair, min_size=1, max_size=max_terms)
        .map(lambda ts: CompSeries(cfg, ts))
        .filter(lambda u: not u.is_zero())
    )


# -- unit factorization ---------------------------------------------------------


def test_factor_unit_golden():
    c = CompSeries(F2, {2: PerfSeries.x_pow(F2, 1), 3: PerfSeries.one(F2)}, order=5)
    fact = factor_unit(c)
    assert fact.shift == 2
    assert fact.unit.order == 3
    assert fact.unit.coeff(0) == PerfSeries.x_pow(F2, 1)
    assert fact.unit.coeff(1) == PerfSeries.one(F2)
    assert fact.unit.compose(CompSeries.monomial(F2, 2)) == c


def test_factor_unit_errors():
    with pytest.raises(ZeroInput):
        factor_unit(CompSeries.zero(F2))
    with pytest.raises(PrecisionExhausted):
        factor_unit(CompSeries.zero(F2, order=3))
    fuzzy = CompSeries(
        F2, {1: PerfSeries.zero(F2, prec=2), 2: PerfSeries.one(F2)}
    )
    with pytest.raises(PrecisionExhausted):
        factor_unit(fuzzy)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_factor_unit_round_trips(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    c = data.draw(nonzero_comp_series(cfg))
    fact = factor_unit(c)
    assert fact.unit.min_index() == 0
    assert not fact.unit.coeff(0).is_zero()
    assert fact.unit.compose(CompSeries.monomial(cfg, fact.shift)) == c


# -- unit inversion ---------------------------------------------------------------


def test_invert_unit_golden_geometric():
    # (t + x t^q)^{-1} has coefficient x^{(q^n - 1)/(q - 1)} at index n, up
    # to alternating signs
    u = CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.x_pow(F2, 1)})
    inv = invert_unit(u, order=4)
    for n in range(5):
        assert inv.coeff(n) == PerfSeries.x_pow(F2, 2**n - 1)

    u3 = CompSeries(F3, {0: PerfSeries.one(F3), 1: PerfSeries.x_pow(F3, 1)})
    inv3 = invert_unit(u3, order=4)
    for n in range(5):
        sign = 1 if n % 2 == 0 else -1
        assert inv3.coeff(n) == PerfSeries.x_pow(F3, (3**n - 1) // 2, sign)


def test_invert_unit_requirements():
    with pytest.raises(NotAUnit):
        invert_unit(CompSeries.monomial(F2, 1), order=2)
    with pytest.raises(ZeroInput):
        invert_unit(CompSeries.zero(F2), order=2)
    with pytest.raises(ValidationError):
        invert_unit(CompSeries.identity(F2))  # exact input, no order cap


def test_invert_unit_respects_input_order():
    u = CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.one(F2)}, order=2)
    inv = invert_unit(u, order=7)
    assert inv.order == 2


def test_invert_unit_is_an_involution():
    u = CompSeries(
        F3, {0: PerfSeries.constant(F3, 2), 1: PerfSeries.x_pow(F3, 1), 2: PerfSeries.one(F3)}
    )
    back = invert_unit(invert_unit(u, order=5), order=5)
    assert back.terms == u.truncate(5).terms


def _geometric_inverse(u, n_cap):
    """u^{-1} as a compositional geometric series: writing
    u = (u_0 t) o (t + w) with w = sum_{l>=1} u_0^{-1} u_l t^{q^l}, the
    inverse of t + w is sum_n (-w)^{o n}, locally finite since w^{o n}
    starts at index n."""
    u0_inv = u.coeff(0).inv()
    neg_w = CompSeries(
        u.field,
        {l: -(u0_inv * c) for l, c in u.terms.items() if l >= 1},
        n_cap,
    )
    total = CompSeries.identity(u.field)
    power = total
    for _ in range(n_cap):
        power = neg_w.compose(power)
        first = power.min_index()
        if first is None or first > n_cap:
            break
        total = total + power
    return total.compose(CompSeries.monomial(u.field, 0, u0_inv)).truncate(n_cap)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_invert_unit_matches_geometric_series(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    head = data.draw(perf_series(cfg, max_terms=2, exact=False, nonzero=True))
    tail = data.draw(
        st.lists(
            st.tuples(st.integers(1, 3), perf_series(cfg, max_terms=2, exact=False)),
            max_size=2,
        )
    )
    input_order = data.draw(st.one_of(st.just(INF), st.integers(1, 5)))
    u = CompSeries(cfg, [(0, head)] + tail, input_order)
    n = data.draw(st.integers(0, 5))
    xprec = data.draw(st.one_of(st.just(INF), exponents(cfg, depth=1, span=12)))
    ref = _geometric_inverse(u, min(n, input_order)).truncate_x(xprec)
    assert encode_comp(invert_unit(u, order=n, xprec=xprec)) == encode_comp(ref)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_invert_unit_composes_to_identity(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    unit = data.draw(
        nonzero_comp_series(cfg, max_terms=3, max_index=2).filter(
            lambda u: u.min_index() == 0
        )
    )
    inv = invert_unit(unit, order=4)
    ident = CompSeries.identity(cfg)
    assert_cs_close(unit.compose(inv), ident)
    assert_cs_close(inv.compose(unit), ident)


# -- Ore left common multiples ------------------------------------------------------


def test_ore_golden_identity_cases():
    a = CompSeries(F2, {1: PerfSeries.x_pow(F2, 2), 2: PerfSeries.one(F2)})
    ap, bp = ore_left_multiple(a, CompSeries.identity(F2), order=4)
    assert bp == CompSeries.identity(F2)
    assert ap.terms == a.truncate(4).terms

    ap, bp = ore_left_multiple(a, a, order=4)
    assert bp == CompSeries.identity(F2)
    assert ap == CompSeries.identity(F2).truncate(4)


def test_ore_golden_shift_cases():
    # a = t^q, b = x t: no shift needed, quotient rescales
    ap, bp = ore_left_multiple(
        CompSeries.monomial(F2, 1),
        CompSeries.monomial(F2, 0, PerfSeries.x_pow(F2, 1)),
        order=3,
    )
    assert bp == CompSeries.identity(F2)
    assert ap.terms == {1: PerfSeries.x_pow(F2, -2)}

    # a = x t, b = t^q: the multiple is t^q o a
    ap, bp = ore_left_multiple(
        CompSeries.monomial(F2, 0, PerfSeries.x_pow(F2, 1)),
        CompSeries.monomial(F2, 1),
        order=3,
    )
    assert bp == CompSeries.monomial(F2, 1)
    assert ap.terms == {0: PerfSeries.x_pow(F2, 2)}


def test_ore_needs_order_cap_for_exact_inputs():
    a = CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.one(F2)})
    with pytest.raises(ValidationError):
        ore_left_multiple(a, a + CompSeries.monomial(F2, 2))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ore_balance(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = data.draw(nonzero_comp_series(cfg))
    b = data.draw(nonzero_comp_series(cfg))
    ap, bp = ore_left_multiple(a, b, order=5)
    assert not ap.is_zero()
    lhs = ap.compose(b)
    rhs = bp.compose(a)
    assert_cs_close(lhs, rhs)
    # the common multiple is a left multiple of a by construction; check it
    # is one of b too on every index both sides determine
    common = min(lhs.order, rhs.order)
    for k in range(int(common) + 1):
        diff = lhs.coeff(k) - rhs.coeff(k)
        assert diff.is_zero()


# -- fractions ------------------------------------------------------------------------


def test_fraction_zero_denominator():
    with pytest.raises(ZeroDenominator):
        OreFraction(CompSeries.zero(F2), CompSeries.identity(F2))


def test_fraction_normalize_golden():
    denom = CompSeries.monomial(F2, 1)
    numer = CompSeries.monomial(F2, 2, PerfSeries.x_pow(F2, 1))
    nf = fraction_normalize(OreFraction(denom, numer), order=4)
    assert nf.shift == 1
    assert nf.series.truncate(4).terms == numer.truncate(4).terms
    mero = nf.meromorphic()
    assert mero.coeff(1) == PerfSeries.x_pow(F2, Fraction(1, 2))
    assert denom.compose(mero) == numer.truncate(denom.compose(mero).order)

    denom2 = CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.one(F2)})
    nf2 = fraction_normalize(OreFraction(denom2, CompSeries.identity(F2)), order=4)
    assert nf2.shift == 0
    for n in range(5):
        assert nf2.series.coeff(n) == PerfSeries.one(F2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fraction_normal_form_recomposes(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    denom = data.draw(nonzero_comp_series(cfg, max_terms=2, max_index=2))
    numer = data.draw(nonzero_comp_series(cfg, max_terms=2, max_index=2))
    nf = fraction_normalize(OreFraction(denom, numer), order=4)
    fact = factor_unit(denom)
    # denominator unit times the normal form series gives back the numerator
    back = fact.unit.compose(nf.series)
    assert_cs_close(back, numer.truncate(back.order))
    # same check through the meromorphic view, clearing the denominator whole
    cleared = denom.compose(nf.meromorphic())
    assert_cs_close(cleared, numer.truncate(cleared.order))
