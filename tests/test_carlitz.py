"""Brackets, twists, and the Carlitz derivative.

Oracle: the difference operator is defined pointwise as u(x t0) - x u(t0),
so its diagonal action and the derivative's q-th-root relation are checked
by evaluating both sides at scalar points with plain arithmetic.  The
Carlitz module's exponential and logarithm, built from brackets alone, are
known values at every order for the ODE solver, the derivative, unit
inversion and composition.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlin import (
    INF,
    CompSeries,
    FieldConfig,
    OdeProblem,
    OutsideConvergenceDomain,
    PerfSeries,
    emit_series,
    invert_unit,
    parse_comp_series,
    solve_ode,
)
from fqlin.carlitz import bracket, carlitz_d, carlitz_delta, tau_power
from fqlin.errors import KernelError

from conftest import F2, F3, F4, F4_OVER_F2, F9, assert_cs_close, comp_series, field_id, perf_series
from test_series import ev


# -- brackets -------------------------------------------------------------------


def test_bracket_goldens():
    assert bracket(F2, 0).is_exact_zero()
    b1 = bracket(F2, 1)
    assert [(e, c.coords) for e, c in b1.terms] == [(1, (1,)), (2, (1,))]
    bm1 = bracket(F2, -1)
    assert bm1.valuation_lb() == Fraction(1, 2)
    b1_f3 = bracket(F3, 1)
    assert b1_f3.coeff(1) == F3.elem(-1) and b1_f3.coeff(3) == F3.one()


@given(st.integers(1, 5), st.sampled_from([F2, F3, F4]))
@settings(max_examples=40, deadline=None)
def test_bracket_root_identity(k, cfg):
    # (x^{q^k} - x)^{1/q} = x^{q^{k-1}} - x^{1/q}
    expected = PerfSeries(
        cfg,
        [
            (Fraction(cfg.q) ** (k - 1), cfg.one()),
            (Fraction(1, cfg.q), -cfg.one()),
        ],
    )
    assert bracket(cfg, k).frobenius(-1) == expected
    assert bracket(cfg, k).frobenius(-1) == bracket(cfg, k - 1) + (
        PerfSeries.x_pow(cfg, 1) - PerfSeries.x_pow(cfg, Fraction(1, cfg.q))
    )


def test_bracket_valuations():
    for cfg in (F2, F3):
        for k in range(1, 4):
            assert bracket(cfg, k).valuation_lb() == 1
        assert bracket(cfg, -1).valuation_lb() == Fraction(1, cfg.q)


BRACKET_FIELDS = [F2, F3, F4, F9, F4_OVER_F2, FieldConfig(p=2, perf_depth=3), FieldConfig(p=3, s=2, perf_depth=2)]


def _constructed_bracket(cfg, k):
    """[k] through the public constructor, as a result or an error."""
    try:
        return PerfSeries(cfg, [(Fraction(cfg.q) ** k, cfg.one()), (Fraction(1), -cfg.one())])
    except KernelError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cfg", BRACKET_FIELDS, ids=field_id)
def test_bracket_matches_the_constructor(cfg):
    # the stored-form bracket equals the constructor's, terms and precision
    # (k = 0 the exact zero), and raises the same error where a negative k
    # leaves the exponent grid
    for k in range(-12, 13):
        try:
            got = bracket(cfg, k)
        except KernelError as exc:
            got = type(exc), str(exc)
        want = _constructed_bracket(cfg, k)
        assert got == want, k
        if isinstance(want, PerfSeries):
            assert got._terms == want._terms and got._prec is None


# -- tau ---------------------------------------------------------------------


def test_tau_matches_monomial_composition():
    g = F4.gen()
    u = CompSeries(F4, {0: PerfSeries.constant(F4, g), 1: PerfSeries.x_pow(F4, -1)}, 3)
    for j in range(3):
        assert tau_power(u, j) == CompSeries.monomial(F4, j).compose(u)


def test_tau_negative_is_root_twist():
    u = CompSeries(F2, {1: PerfSeries.x_pow(F2, 2)}, 4)
    down = tau_power(u, -1)
    assert down.coeff(0) == PerfSeries.x_pow(F2, 1)
    assert down.order == 3
    assert tau_power(down, 1) == u
    assert tau_power(tau_power(u, -2), 2) == u


# -- difference operator and derivative ----------------------------------------


def test_difference_acts_diagonally():
    u = CompSeries(F2, {0: PerfSeries.one(F2), 2: PerfSeries.x_pow(F2, -1)})
    du = carlitz_delta(u)
    assert du.coeff(0).is_exact_zero()
    assert du.coeff(2) == bracket(F2, 2) * PerfSeries.x_pow(F2, -1)


def test_derivative_golden():
    # d(t^q) = (x - x^{1/q}) t over q = 2
    d = carlitz_d(CompSeries.monomial(F2, 1))
    assert set(d.terms) == {0}
    assert [(e, c.coords) for e, c in d.coeff(0).terms] == [
        (Fraction(1, 2), (1,)),
        (1, (1,)),
    ]


def test_derivative_drops_order():
    u = CompSeries(F2, {1: PerfSeries.one(F2)}, order=4)
    assert carlitz_d(u).order == 3
    assert carlitz_d(CompSeries.monomial(F2, 0)).is_exact_zero()
    assert carlitz_d(CompSeries.monomial(F2, 2)).order == INF
    # below index -1 too: u_{-4} is unknown, so d u is known up to index -6 only
    d = carlitz_d(parse_comp_series(F2, "x*t^[q^-6] + O(t^[q^-4])"))
    assert d.order == -6 and emit_series(d) == "(x^{65/128} + x)*t^[q^-7] + O(t^[q^-5])"


# each operation f on (u, j): j is the twist count of tau and unused otherwise
CUT_OPERATIONS = {
    "d": lambda u, j: carlitz_d(u),
    "delta": lambda u, j: carlitz_delta(u),
    "tau": tau_power,
}


@pytest.mark.parametrize("name", CUT_OPERATIONS)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_claimed_digit_is_determined(name, data):
    """Cut an exact series at an order N in -4..3 and its coefficients at an
    x-adic precision; f of the exact series agrees with f of the cut one at
    every index and digit that the latter claims."""
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    order = data.draw(st.integers(-4, 3))
    pair = st.tuples(st.integers(-5, order + 3), perf_series(cfg, max_terms=2, depth=1))
    terms = data.draw(st.lists(pair, max_size=5))
    cut = data.draw(st.one_of(st.just(INF), st.integers(-2, 4)))
    exact = CompSeries(cfg, terms)
    u = CompSeries(cfg, [(k, c.truncate(cut)) for k, c in terms], order)
    j = data.draw(st.integers(-2, 2))
    f = CUT_OPERATIONS[name]
    assert_cs_close(f(exact, j), f(u, j))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_difference_matches_pointwise_oracle(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    u = data.draw(comp_series(cfg, max_terms=3, index_range=(0, 3)))
    t0 = PerfSeries.x_pow(cfg, data.draw(st.integers(1, 3)))
    x = PerfSeries.x_pow(cfg, 1)
    assert ev(carlitz_delta(u), t0) == ev(u, x * t0) - x * ev(u, t0)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_derivative_is_root_of_difference(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    u = data.draw(comp_series(cfg, max_terms=3, index_range=(0, 3)))
    t0 = PerfSeries.x_pow(cfg, data.draw(st.integers(1, 3)))
    assert ev(carlitz_d(u), t0).frobenius(1) == ev(carlitz_delta(u), t0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_derivative_linearity_and_scaling(data):
    cfg = data.draw(st.sampled_from([F2, F4]))
    u = data.draw(comp_series(cfg, index_range=(0, 3)))
    w = data.draw(comp_series(cfg, index_range=(0, 3)))
    gamma = data.draw(perf_series(cfg, max_terms=2, depth=0, nonzero=True))
    assert carlitz_d(u + w) == carlitz_d(u) + carlitz_d(w)
    # scaling is composition with gamma t: on the right it commutes plainly,
    # on the left it picks up a q-th root
    scalar = CompSeries.monomial(cfg, 0, gamma)
    assert carlitz_d(u.compose(scalar)) == carlitz_d(u).compose(scalar)
    root = CompSeries.monomial(cfg, 0, gamma.frobenius(-1))
    assert carlitz_d(scalar.compose(u)) == root.compose(carlitz_d(u))


# -- the Carlitz module: closed forms at every order ---------------------------
#
# L. Carlitz, Duke Math. J. 1 (1935); A. N. Kochubei, J. Number Theory 83
# (2000).  The exponential satisfies e_C(x t) = x e_C(t) + e_C(t)^q, so
# d e_C = e_C and z = e_C - t solves d z = t + z.

CARLITZ_FIELDS = [F2, F3, F4, FieldConfig(p=5), F9]


def carlitz_exp_log(cfg, order):
    """e_C = sum t^{q^i}/D_i and log_C = sum (-1)^i t^{q^i}/L_i up to index
    ``order``, with D_0 = L_0 = 1, D_i = [i] D_{i-1}^q and L_i = [i] L_{i-1};
    each 1/D_i and 1/L_i to ``inv``'s default precision."""
    d = l = PerfSeries.one(cfg)
    exp_terms, log_terms = {0: d}, {0: l}
    for i in range(1, order + 1):
        d = bracket(cfg, i) * d.frobenius(1)
        l = bracket(cfg, i) * l
        exp_terms[i] = d.inv()
        log_terms[i] = l.inv() if i % 2 == 0 else -l.inv()
    return CompSeries(cfg, exp_terms, order), CompSeries(cfg, log_terms, order)


def carlitz_ode(cfg):
    """d z = t + z: a_00 = a_01 = 1."""
    one = PerfSeries.one(cfg)
    return OdeProblem(cfg, {(0, 0): one, (0, 1): one})


def assert_agree(u, closed, order):
    """u is the closed form at every index up to ``order``, modulo the
    precision of each side, and claims no index past it."""
    assert u.order == closed.order == order
    assert_cs_close(u, closed)


@given(st.sampled_from(CARLITZ_FIELDS), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_carlitz_module_closed_forms(cfg, order):
    e, log = carlitz_exp_log(cfg, order)
    z, _ = solve_ode(carlitz_ode(cfg), order, xprec=30)
    assert_agree(z, e - CompSeries.identity(cfg), order)
    assert_agree(carlitz_d(e), e.truncate(order - 1), order - 1)
    assert_agree(invert_unit(e, order), log, order)
    x = PerfSeries.x_pow(cfg, 1)
    phi_x = CompSeries(cfg, {0: x, 1: PerfSeries.one(cfg)})  # x t + t^q
    assert_agree(e.compose(CompSeries.monomial(cfg, 0, x)), phi_x.compose(e), order)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: the certificate takes kappa from the stored coefficients only",
)
def test_eval_refuses_the_carlitz_exponential_on_its_boundary():
    """The growth constant of e_C is 1/(q - 1), since v(1/D_i) =
    -(q^i - 1)/(q - 1): over F_2 the series diverges at t0 = x.  Today every
    order's certificate admits x, and eval_at returns x + O(x^2) at N = 4
    and 6 and O(x^2) at N = 5 and 7."""
    x = PerfSeries.x_pow(F2, 1)
    for order in range(4, 8):
        e, _ = carlitz_exp_log(F2, order)
        with pytest.raises(OutsideConvergenceDomain):
            e.eval_at(x)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 20: the ODE step asks div for the precision of 1/[i], not of the quotient",
)
def test_solve_ode_reaches_the_requested_xprec():
    """With exact integral inputs every coefficient of d z = t + z is known
    to the requested x^30.  Today, over F_2, c_1..c_5 are known only to
    x^30, x^29, x^25, x^17 and x^1."""
    z, _ = solve_ode(carlitz_ode(F2), 5, xprec=30)
    assert [z.coeff(i).prec for i in range(1, 6)] == [30] * 5
