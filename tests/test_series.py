"""Twisted composition arithmetic.

Two independent oracles back these tests: pointwise evaluation (a series is
a genuine function of t, so (a o b)(t0) must equal a(b(t0)) computed with
plain scalar arithmetic and integer powers), and direct enumeration of
compositions of an integer for the multinomial coefficients.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlin import (
    CompSeries,
    GrowthCertificate,
    INF,
    OutsideConvergenceDomain,
    PerfSeries,
    ValidationError,
    growth_certificate,
    multinomial_coeff,
)

from conftest import F2, F3, F4, comp_series, oracle_multinomial, perf_series


def ps_int_pow(a, n):
    """Plain repeated-squaring power of a scalar series (test-local)."""
    result = PerfSeries.one(a.field)
    base = a
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def ev(u, t0):
    """Pointwise evaluation with integer powers only (test-local oracle)."""
    total = PerfSeries.zero(u.field)
    for k, c in u.terms.items():
        total = total + c * ps_int_pow(t0, u.field.q**k)
    return total


# -- construction -------------------------------------------------------------


def test_constructor_normalizes():
    u = CompSeries(F2, [(1, PerfSeries.one(F2)), (1, PerfSeries.one(F2))])
    assert u.is_zero() and u.is_exact_zero()
    v = CompSeries(F2, {3: PerfSeries.one(F2)}, order=2)
    assert v.is_zero() and v.order == 2 and v.min_index() == 3
    w = CompSeries(F2, {-1: PerfSeries.x_pow(F2, Fraction(1, 2))})
    assert w.min_index() == -1
    with pytest.raises(ValidationError):
        CompSeries(F2, {0: PerfSeries.one(F3)})


def test_zero_to_precision_coefficients_are_kept():
    c = PerfSeries.zero(F2, prec=3)
    u = CompSeries(F2, {1: c})
    assert not u.is_exact_zero()
    assert u.coeff(1).prec == 3


# -- golden compositions -------------------------------------------------------


def test_compose_golden_quadratic():
    # t^q o (x t + t^q) = x^q t^q + t^{q^2} over q = 2
    a = CompSeries.monomial(F2, 1)
    b = CompSeries(
        F2, {0: PerfSeries.x_pow(F2, 1), 1: PerfSeries.one(F2)}
    )
    c = a.compose(b)
    assert c.coeff(1) == PerfSeries.x_pow(F2, 2)
    assert c.coeff(2) == PerfSeries.one(F2)
    assert set(c.terms) == {1, 2}


def test_compose_monomial_shifts():
    g = F4.gen()
    u = CompSeries(F4, {0: PerfSeries.constant(F4, g), 2: PerfSeries.one(F4)})
    left = CompSeries.monomial(F4, 1).compose(u)
    # pre-composition with t^{q} twists coefficients
    assert left.coeff(1) == PerfSeries.constant(F4, g.pow_p(F4.v))
    assert left.coeff(3) == PerfSeries.one(F4)
    right = u.compose(CompSeries.monomial(F4, 1))
    # post-composition with t^{q} shifts plainly
    assert right.coeff(1) == PerfSeries.constant(F4, g)
    assert right.coeff(3) == PerfSeries.one(F4)


# -- oracle: pointwise evaluation ----------------------------------------------


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_compose_agrees_with_pointwise_evaluation(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = data.draw(comp_series(cfg, max_terms=2, index_range=(0, 2)))
    b = data.draw(comp_series(cfg, max_terms=2, index_range=(0, 2)))
    t0 = PerfSeries.x_pow(cfg, data.draw(st.integers(1, 2)))
    lhs = ev(a.compose(b), t0)
    rhs = ev(a, ev(b, t0))
    assert lhs == rhs


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_ring_laws(data):
    cfg = data.draw(st.sampled_from([F2, F4]))
    a = data.draw(comp_series(cfg, index_range=(0, 3)))
    b = data.draw(comp_series(cfg, index_range=(0, 3)))
    c = data.draw(comp_series(cfg, index_range=(0, 3)))
    ident = CompSeries.identity(cfg)
    assert a.compose(ident) == a
    assert ident.compose(a) == a
    assert (a + b).compose(c) == a.compose(c) + b.compose(c)
    assert a.compose(b + c) == a.compose(b) + a.compose(c)
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
    assert (a + b) - b == a
    assert (a - b).compose(c) == a.compose(c) - b.compose(c)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_no_zero_divisors(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = data.draw(comp_series(cfg, index_range=(0, 3)).filter(lambda u: not u.is_zero()))
    b = data.draw(comp_series(cfg, index_range=(0, 3)).filter(lambda u: not u.is_zero()))
    assert not a.compose(b).is_zero()


# -- order bookkeeping -----------------------------------------------------------


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_truncated_composition_matches_full(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = data.draw(comp_series(cfg, max_terms=3, index_range=(0, 3)))
    b = data.draw(comp_series(cfg, max_terms=3, index_range=(0, 3)))
    full = a.compose(b)
    na = data.draw(st.integers(0, 4))
    nb = data.draw(st.integers(0, 4))
    part = a.truncate(na).compose(b.truncate(nb))
    if part.is_exact_zero():
        assert full.is_exact_zero() or min(full.terms) > max(na, nb)
        return
    assert part.order != INF or full == part
    k = 0
    while k <= part.order and part.order != INF:
        assert part.coeff(k) == full.coeff(k)
        k += 1


def test_compose_order_formula():
    a = CompSeries(F2, {1: PerfSeries.one(F2)}, order=3)
    b = CompSeries(F2, {2: PerfSeries.one(F2)}, order=5)
    c = a.compose(b)
    # unknown a_4 first pollutes index 4+2, unknown b_6 first pollutes 1+6
    assert c.order == min(3 + 2, 5 + 1)
    assert c.coeff(3) == PerfSeries.one(F2)


def test_compose_with_exact_zero():
    u = CompSeries(F2, {1: PerfSeries.x_pow(F2, -2)})
    z = CompSeries.zero(F2)
    assert u.compose(z).is_exact_zero()
    assert z.compose(u).is_exact_zero()


# -- compositional powers and multinomials ---------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multinomial_matches_enumeration(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    n_coeffs = data.draw(st.integers(1, 3))
    coeffs = {}
    for n in range(1, n_coeffs + 1):
        coeffs[n] = data.draw(perf_series(cfg, max_terms=2, depth=0))
    k = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(k, k + 4))
    assert multinomial_coeff(l, k, coeffs, cfg) == oracle_multinomial(cfg, coeffs, k, l)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_multinomial_matches_compositional_power(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    coeffs = {
        n: data.draw(perf_series(cfg, max_terms=1, depth=0)) for n in (1, 2)
    }
    z = CompSeries(cfg, dict(coeffs))
    k = data.draw(st.integers(1, 3))
    zk = z.self_power(k)
    for l in range(k, k + 3):
        assert zk.coeff(l) == multinomial_coeff(l, k, coeffs, cfg)
    # with an index-0 coefficient the table reads z from index 0, as the
    # Riccati solver's M_2[l] = sum_{n=0..l} a_n a_{l-n}^{q^n} does
    coeffs[0] = data.draw(perf_series(cfg, max_terms=1, depth=0, nonzero=True))
    z2 = CompSeries(cfg, dict(coeffs)).self_power(2)
    for l in range(5):
        assert z2.coeff(l) == multinomial_coeff(l, 2, coeffs, cfg)


def test_multinomial_two_term_pattern():
    # l = 3, k = 2 expands to c_1 c_2^{q} + c_2 c_1^{q^2}
    c = {1: PerfSeries.x_pow(F2, 1), 2: PerfSeries.x_pow(F2, -1)}
    got = multinomial_coeff(3, 2, c, F2)
    expected = c[1] * c[2].frobenius(1) + c[2] * c[1].frobenius(2)
    assert got == expected


def test_multinomial_edge_cases():
    assert multinomial_coeff(2, 3, {1: PerfSeries.one(F2)}, F2).is_exact_zero()
    assert multinomial_coeff(0, 0, {}, F2).is_exact_zero()
    c = PerfSeries.x_pow(F2, 2)
    assert multinomial_coeff(4, 1, {4: c}, F2) == c


# -- growth certificates and evaluation -------------------------------------------


def test_certificate_golden():
    u = CompSeries(
        F2, {1: PerfSeries.x_pow(F2, -1), 2: PerfSeries.x_pow(F2, -4)}
    )
    cert = growth_certificate(u)
    assert cert.kappa == Fraction(1)
    assert cert.order == INF
    assert growth_certificate(CompSeries.zero(F2)).kappa == 0


def test_certificate_uses_precision_bound_for_unknown_coefficients():
    c = PerfSeries.zero(F2, prec=-4)
    cert = growth_certificate(CompSeries(F2, {1: c}))
    assert cert.kappa == Fraction(4, 2)


def test_eval_golden_and_tail():
    u = CompSeries(
        F2, {1: PerfSeries.x_pow(F2, -1), 2: PerfSeries.x_pow(F2, -4)}, order=2
    )
    t0 = PerfSeries.x_pow(F2, 2)
    value = u.eval_at(t0)
    # x^{-1} x^4 + x^{-4} x^8 = x^3 + x^4, tail floor q^3 (2 - 1) = 8
    assert value.coeff(3) == F2.one() and value.coeff(4) == F2.one()
    assert value.prec == 8
    log = [(k, (c_k * t0.frobenius(k)).valuation_lb()) for k, c_k in u.terms.items()]
    assert log == [(1, 3), (2, 4)]


def test_negative_indices_use_exact_powers_of_q():
    # q^k for k < 0 is the Fraction 1/q^|k|, not a float: kappa = (1/9) / (1/3)
    # over F_3, 2^1024 for a pole at index -1024 over F_2, and an exact tail
    u = CompSeries(F3, {-1: PerfSeries.x_pow(F3, Fraction(-1, 9))})
    assert growth_certificate(u).kappa == Fraction(1, 3)
    with pytest.raises(OutsideConvergenceDomain):
        u.eval_at(PerfSeries.x_pow(F3, Fraction(1, 3)))
    far = CompSeries(F2, {-1024: PerfSeries.x_pow(F2, -1)})
    assert growth_certificate(far).kappa == 2**1024
    # x t^{q^-7} + O(t^{q^-5}) at x^5: the tail bound q^-5 (5 - 0) = 5/243
    # sits below the one term x^{1 + 5/3^7}
    v = CompSeries(F3, {-7: PerfSeries.x_pow(F3, 1)}, order=-6)
    assert v.eval_at(PerfSeries.x_pow(F3, 5)) == PerfSeries.zero(F3, prec=Fraction(5, 243))


def test_eval_outside_domain_raises():
    u = CompSeries(F2, {1: PerfSeries.x_pow(F2, -2)})
    with pytest.raises(OutsideConvergenceDomain):
        u.eval_at(PerfSeries.x_pow(F2, 1))
    with pytest.raises(OutsideConvergenceDomain):
        # valuation of the point is only a bound, not exact
        u.eval_at(PerfSeries.zero(F2, prec=Fraction(1, 2)))
    assert u.eval_at(PerfSeries.zero(F2)).is_exact_zero()


HUGE = 10**400  # past float range: INF must absorb it without converting it


def _inf_zero_min_index():
    assert CompSeries.zero(F2).min_index() == INF
    assert CompSeries.zero(F2, order=2).min_index() == 3


def _inf_compose_exact_zero():
    u = CompSeries(F2, {0: PerfSeries.x_pow(F2, 1), 1: PerfSeries.one(F2)}, order=3)
    zero = CompSeries.zero(F2)
    assert u.compose(zero) == zero and zero.compose(u) == zero


def _inf_exact_needs_order_cap():
    from fqlin import invert_unit, ore_left_multiple

    u = CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.x_pow(F2, 1)})
    for call in (lambda: invert_unit(u), lambda: ore_left_multiple(CompSeries.identity(F2), u)):
        with pytest.raises(ValidationError, match="order cap"):
            call()


def _inf_eval_tail_bound():
    # kappa = max(1/1, 3/3) = 1, so the tail is q^{N+1} (v(t0) - kappa) = 9 (2 - 1)
    u = CompSeries(F3, {0: PerfSeries.x_pow(F3, -1), 1: PerfSeries.x_pow(F3, -3)}, order=1)
    value = u.eval_at(PerfSeries.x_pow(F3, 2))
    assert growth_certificate(u).kappa == 1 and value.prec == 9
    assert value == PerfSeries(F3, [(1, F3.one()), (3, F3.one())], 9)
    assert CompSeries(F3, u.terms).eval_at(PerfSeries.x_pow(F3, 2)).prec == INF


def _inf_absorbs_huge_values():
    from fqlin import ore_left_multiple
    from fqlin.solvers import _solve_additive

    t0 = PerfSeries.x_pow(F2, HUGE)
    assert CompSeries.identity(F2).eval_at(t0) == t0
    far = CompSeries.monomial(F2, HUGE)
    assert ore_left_multiple(far, far, order=2)[0] == CompSeries.identity(F2).truncate(2)
    alpha, beta = PerfSeries.x_pow(F2, 1), PerfSeries.x_pow(F2, HUGE)
    assert _solve_additive(alpha, beta, PerfSeries.zero(F2), 8, 0).is_exact_zero()


@pytest.mark.parametrize(
    "check",
    [
        _inf_zero_min_index,
        _inf_compose_exact_zero,
        _inf_exact_needs_order_cap,
        _inf_eval_tail_bound,
        _inf_absorbs_huge_values,
    ],
    ids=lambda f: f.__name__[5:],
)
def test_inf_semantics(check):
    """INF is the one unbounded order, precision and minimum index, and
    sums, minima and products absorb it."""
    check()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_certificate_bounds_all_terms(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    u = data.draw(comp_series(cfg, max_terms=3, index_range=(0, 3), exact=False))
    cert = growth_certificate(u)
    q = cfg.q
    assert cert.kappa >= 0
    for k, c in u.terms.items():
        assert Fraction(c.valuation_lb()) >= -cert.kappa * q**k


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_eval_is_additive(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = data.draw(comp_series(cfg, max_terms=2, index_range=(0, 2)))
    b = data.draw(comp_series(cfg, max_terms=2, index_range=(0, 2)))
    kap = max(growth_certificate(a).kappa, growth_certificate(b).kappa)
    t0 = PerfSeries.x_pow(cfg, int(kap) + 1)
    lhs = (a + b).eval_at(t0)
    rhs = a.eval_at(t0) + b.eval_at(t0)
    m = min(lhs.prec, rhs.prec)
    assert lhs.truncate(m) == rhs.truncate(m)
    assert a.eval_at(t0) == ev(a, t0)
