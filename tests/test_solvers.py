"""Implicit and additive-ODE solvers.

The universal oracle is back-substitution: a claimed solution composed into
the original equation must leave a residual whose coefficients are all zero
to the computed order.  The implicit golden values are additionally checked
against an independent coefficient recursion built on the enumeration form
of the multinomial, and the first ODE coefficient against the closed form
c_1 = [1]^{-1} a_{00}^q.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlin import (
    INF,
    CompSeries,
    FieldConfig,
    ImplicitProblem,
    NotSolvable,
    OdeProblem,
    PerfSeries,
    RiccatiProblem,
    ValidationError,
    bracket,
    growth_certificate,
    normalize_time_change,
    parse_series,
    residual,
    riccati_series,
    solve_implicit,
    solve_ode,
    solve_riccati,
    untransform_ode_solution,
)

from conftest import F2, F3, F4, F9, assert_cs_close, elems, oracle_multinomial, perf_series, random_elem


def oracle_implicit(field, q0, qk, order):
    """Independent recursion for z = Q_0 - sum_k Q_k o z^{o k} (nu = 0),
    using the enumeration multinomial."""
    c = {}
    for i in range(1, order + 1):
        total = q0.coeff(i)
        for k, qs in qk.items():
            for n, q_n in qs.terms.items():
                l = i - n
                if l < k:
                    continue
                total = total - q_n * oracle_multinomial(field, c, k, l).frobenius(n)
        c[i] = total
    return c


def zero_residual(res):
    return all(c.is_zero() for c in res.terms.values())


# -- implicit equations -------------------------------------------------------


def test_implicit_golden_quadratic():
    # z + z o z = t^2 over q = 2: coefficients 1, 1, 0, 1
    t = CompSeries.identity(F2)
    t2 = CompSeries.monomial(F2, 1)
    prob = ImplicitProblem((-t2, t, t))
    z, cert = solve_implicit(prob, 4)
    one = F2.one()
    assert [z.coeff(i).coeff(0) for i in range(1, 5)] == [
        one,
        one,
        F2.zero(),
        one,
    ]
    assert zero_residual(residual(prob, z, 4))
    assert cert.kappa == 0


def test_implicit_golden_matches_independent_recursion():
    t = CompSeries.identity(F2)
    t2 = CompSeries.monomial(F2, 1)
    z, _ = solve_implicit(ImplicitProblem((-t2, t, t)), 6)
    expected = oracle_implicit(F2, t2, {2: t}, 6)
    for i in range(1, 7):
        assert z.coeff(i) == expected[i]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_implicit_matches_enumeration_oracle(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    unit_tail = {
        i: data.draw(perf_series(cfg, max_terms=1, depth=0))
        for i in data.draw(st.sets(st.integers(1, 2), max_size=2))
    }
    p1 = CompSeries(cfg, {0: PerfSeries.constant(cfg, data.draw(elems(cfg, nonzero=True))), **unit_tail})
    p0_terms = {
        i: data.draw(perf_series(cfg, max_terms=1, depth=0))
        for i in data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=3))
    }
    p0 = CompSeries(cfg, p0_terms)
    p2 = CompSeries(cfg, {data.draw(st.integers(0, 1)): PerfSeries.one(cfg)})
    prob = ImplicitProblem((p0, p1, p2))
    order = 5
    z, _ = solve_implicit(prob, order)
    assert zero_residual(residual(prob, z, order))
    from fqlin import factor_unit, invert_unit

    u_inv = invert_unit(factor_unit(p1).unit, order=order)
    q0 = -(u_inv.compose(p0))
    expected = oracle_implicit(cfg, q0, {2: u_inv.compose(p2)}, order)
    for i in range(1, order + 1):
        diff = z.coeff(i) - expected[i]
        assert diff.is_zero()


def test_implicit_shifted_golden():
    # tau z + z o z + P_0 = 0 with solution t^{q^2} + t^{q^3} + t^{q^5}
    one = PerfSeries.one(F2)
    z_true = CompSeries(F2, {2: one, 3: one, 5: one})
    tq = CompSeries.monomial(F2, 1)
    t = CompSeries.identity(F2)
    p0 = -(tq.compose(z_true) + z_true.compose(z_true))
    prob = ImplicitProblem((p0, tq, t), nu=1)
    z, _ = solve_implicit(prob, 6)
    assert sorted(z.terms) == [2, 3, 5]
    assert_cs_close(z, z_true.truncate(6))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_implicit_shifted_round_trip(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    nu = data.draw(st.integers(0, 2))
    z_terms = {
        i: data.draw(perf_series(cfg, max_terms=1, depth=0, nonzero=True))
        for i in data.draw(
            st.sets(st.integers(nu + 1, nu + 4), min_size=1, max_size=3)
        )
    }
    z_true = CompSeries(cfg, z_terms)
    p1 = CompSeries.monomial(cfg, nu, data.draw(elems(cfg, nonzero=True)))
    p2 = CompSeries.monomial(cfg, data.draw(st.integers(0, 1)))
    # a cubic term reads M_3, whose cached entries must wait for c_1 .. c_{i-1}
    p3 = CompSeries.monomial(cfg, data.draw(st.integers(0, 1)), data.draw(elems(cfg)))
    p0 = -(p1.compose(z_true) + p2.compose(z_true.self_power(2)) + p3.compose(z_true.self_power(3)))
    prob = ImplicitProblem((p0, p1, p2, p3), nu=nu)
    order = nu + 5
    z, cert = solve_implicit(prob, order)
    assert_cs_close(z, z_true.truncate(order))
    for i in range(nu + 1):
        assert z.coeff(i).is_zero()
    assert zero_residual(residual(prob, z, order))


def test_implicit_xprec_truncates_the_exact_solution():
    # nu = 1 with P_2, P_3 at index 0 and poles: the exact coefficients have
    # growing exponents, and truncating each step at xprec must agree with
    # the exact solve modulo every coefficient's precision
    texts = ("x*t^[q^3] + x^-1*t^[q^4]", "t^[q^1] + x*t^[q^2]", "t + x^-1*t^[q^1]", "x*t + t^[q^2]")
    prob = ImplicitProblem(tuple(parse_series(F2, text) for text in texts), nu=1)
    order = 6
    exact, _ = solve_implicit(prob, order)
    assert all(c.prec == INF for c in exact.terms.values())
    for xprec in (Fraction(1, 2), Fraction(3), Fraction(8)):
        z, _ = solve_implicit(prob, order, xprec=xprec)
        assert sorted(z.terms) == sorted(exact.terms)
        for i, c in z.terms.items():
            assert c.prec <= xprec
            assert (c - exact.coeff(i)).is_zero()
        assert zero_residual(residual(prob, z, order))


def test_implicit_rejects_bad_problems():
    t = CompSeries.identity(F2)
    tq = CompSeries.monomial(F2, 1)
    with pytest.raises(ValidationError):
        ImplicitProblem((t,))
    with pytest.raises(ValidationError):
        ImplicitProblem((t, tq), nu=-1)
    with pytest.raises(NotSolvable):
        ImplicitProblem((t, CompSeries.zero(F2)))  # zero linear part
    with pytest.raises(NotSolvable):
        ImplicitProblem((tq, tq, t), nu=0)  # P_1 starts at 1, not nu
    with pytest.raises(NotSolvable):
        ImplicitProblem((CompSeries.identity(F2), t, t))  # a_00 nonzero
    with pytest.raises(ValidationError):
        ImplicitProblem((CompSeries(F2, {-1: PerfSeries.one(F2)}), t))


def test_implicit_shifted_incompatible_constant():
    # with nu = 1 the normalized constant term must vanish through index 2;
    # the problem refuses it, before any solve
    t = CompSeries.identity(F2)
    tq = CompSeries.monomial(F2, 1)
    for bad_index in (0, 1, 2):
        p0 = CompSeries.monomial(F2, bad_index)
        with pytest.raises(NotSolvable, match=f"P_0 has a nonzero coefficient at index {bad_index}"):
            ImplicitProblem((p0, tq, t), nu=1)


def test_implicit_residual_detects_perturbation():
    t = CompSeries.identity(F2)
    t2 = CompSeries.monomial(F2, 1)
    prob = ImplicitProblem((-t2, t, t))
    z, _ = solve_implicit(prob, 4)
    wrong = z + CompSeries.monomial(F2, 3, PerfSeries.x_pow(F2, 1))
    res = residual(prob, wrong, 4)
    assert not zero_residual(res)


# -- additive ODEs ------------------------------------------------------------


def test_ode_golden_geometric():
    # d z = x t: c_1 = [1]^{-1} x^q = x + x^2 + x^3 + ... over q = 2
    prob = OdeProblem(F2, {(0, 0): PerfSeries.x_pow(F2, 1)})
    z, cert = solve_ode(prob, 4)
    c1 = z.coeff(1)
    for n in range(1, 16):
        assert c1.coeff(n) == F2.one()
    assert c1.coeff(0).is_zero()
    for i in range(2, 5):
        assert z.coeff(i).is_zero()
    assert zero_residual(residual(prob, z, 4))
    assert cert.kappa == 0


def test_ode_zero_right_side():
    z, cert = solve_ode(OdeProblem(F2, {}), 6)
    assert z.is_exact_zero() or not z.terms
    assert cert.kappa == 0


def test_ode_zero_candidate_residual():
    a00 = PerfSeries.x_pow(F3, 2)
    prob = OdeProblem(F3, {(0, 0): a00})
    res = residual(prob, CompSeries.zero(F3, 4), 4)
    assert res.coeff(0) == -a00
    assert all(res.coeff(i).is_zero() for i in range(1, 5))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_ode_first_coefficient_identity(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    a00 = data.draw(perf_series(cfg, max_terms=2, depth=1, nonzero=True))
    z, _ = solve_ode(OdeProblem(cfg, {(0, 0): a00}), 2)
    lhs = bracket(cfg, 1) * z.coeff(1)
    rhs = a00.frobenius(1)
    assert (lhs - rhs).is_zero()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ode_residual_vanishes(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    support = data.draw(
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 3)),
            min_size=1,
            max_size=3,
        )
    )
    a = {
        jk: data.draw(perf_series(cfg, max_terms=1, depth=0, nonzero=True))
        for jk in support
    }
    prob = OdeProblem(cfg, a)
    order = 6
    z, _ = solve_ode(prob, order)
    assert zero_residual(residual(prob, z, order))


def test_ode_rejects_negative_indices():
    with pytest.raises(ValidationError):
        OdeProblem(F2, {(-1, 0): PerfSeries.one(F2)})
    with pytest.raises(ValidationError):
        OdeProblem(F2, {(0, -1): PerfSeries.one(F2)})


# -- time change --------------------------------------------------------------


def test_time_change_exponent_goldens():
    # v(a_00) = -1, q = 2: conjugation scales a_00 by gamma^{(q-1)/q}, so
    # gamma = x^2 is the first integer power clearing the pole
    prob = OdeProblem(F2, {(0, 0): PerfSeries.x_pow(F2, -1)})
    norm, gamma = normalize_time_change(prob)
    assert gamma == PerfSeries.x_pow(F2, 2)
    assert norm.a[(0, 0)].valuation_lb() == 0

    # v(a_10) = -3, q = 2: e = ceil(3 * 2 / 3) = 2
    prob = OdeProblem(F2, {(1, 0): PerfSeries.x_pow(F2, -3)})
    _, gamma = normalize_time_change(prob)
    assert gamma == PerfSeries.x_pow(F2, 2)

    # v(a_10) = -1, q = 3: e = ceil(1 * 3 / 8) = 1
    prob = OdeProblem(F3, {(1, 0): PerfSeries.x_pow(F3, -1)})
    _, gamma = normalize_time_change(prob)
    assert gamma == PerfSeries.x_pow(F3, 1)


def test_time_change_identity_when_integral():
    prob = OdeProblem(F2, {(0, 0): PerfSeries.x_pow(F2, 1)})
    norm, gamma = normalize_time_change(prob)
    assert norm is prob
    assert gamma == PerfSeries.one(F2)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_time_change_round_trip(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    a = {(0, 0): PerfSeries.x_pow(cfg, data.draw(st.integers(-3, -1)))}
    for jk in data.draw(
        st.sets(st.tuples(st.integers(0, 1), st.integers(1, 2)), max_size=2)
    ):
        a[jk] = data.draw(perf_series(cfg, max_terms=1, depth=0, nonzero=True))
    prob = OdeProblem(cfg, a)
    norm, gamma = normalize_time_change(prob)
    for (j, k), coef in norm.a.items():
        if k == 0:
            assert coef.valuation_lb() >= 0
    order = 5
    zp, _ = solve_ode(norm, order)
    z = untransform_ode_solution(zp, gamma)
    assert zero_residual(residual(prob, z, order))


def test_posed_solve_matches_the_time_change_reference():
    # solving the problem as posed (what solve-ode runs) against the time
    # change's round trip: every digit both know agrees, the posed solve
    # knows at least as many, and its residual is zero
    for cfg in (F2, F3, F4, F9):
        for seed in range(10):
            prob = _pole_ode(random.Random(f"posed ode {seed} {cfg.p}^{cfg.degree}"), cfg)
            norm, gamma = normalize_time_change(prob)
            assert norm is not prob  # a_10 has a pole, so gamma != 1
            for order, xprec in ((6, Fraction(24)), (8, Fraction(40))):
                z, _ = solve_ode(prob, order, xprec=xprec)
                ref = untransform_ode_solution(solve_ode(norm, order, xprec=xprec)[0], gamma)
                for i in range(1, order + 1):
                    c, r = z.coeff(i), ref.coeff(i)
                    assert c.prec >= r.prec, (cfg, seed, order, i)
                    assert not (c - r).truncate(r.prec).terms, (cfg, seed, order, i)
                assert zero_residual(residual(prob, z, order))


def test_growth_certificate_reflects_poles():
    prob = OdeProblem(F2, {(0, 0): PerfSeries.x_pow(F2, -1)})
    z, cert = solve_ode(prob, 3)
    assert cert.kappa > 0
    assert cert == growth_certificate(z)


# -- residuals ----------------------------------------------------------------


def per_k_residual(prob, z, order):
    """The residual with every z^{o k} formed on its own by ``self_power``
    and nothing cut before the end (test-local)."""
    from fqlin import carlitz_d, tau_power

    fld = prob.field
    if isinstance(prob, ImplicitProblem):
        total = prob.P[0]
        for k, p_k in enumerate(prob.P[1:], start=1):
            total = total + p_k.compose(z.self_power(k))
        return total.truncate(order)
    if isinstance(prob, RiccatiProblem):
        # d y - lambda (y o y) - sum_k p_k tau^k(y) - R
        # a scalar factor gamma is composition with gamma t on the left
        rhs = CompSeries.monomial(fld, 0, prob.lam).compose(z.self_power(2)) + CompSeries(fld, prob.r)
        for k, p_k in prob.p.items():
            rhs = rhs + CompSeries.monomial(fld, 0, p_k).compose(tau_power(z.self_power(1), k))
        return (carlitz_d(z) - rhs).truncate(order)
    rhs = CompSeries.zero(fld)
    for (j, k), a_jk in prob.a.items():
        rhs = rhs + CompSeries.monomial(fld, 0, a_jk).compose(tau_power(z.self_power(k), j))
    return (carlitz_d(z) - rhs).truncate(order)


@pytest.mark.parametrize("low", [-1, 0, 1])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_residual_matches_per_k_self_powers(low, data):
    # candidates from index low (so min_index() < 0, = 0 or > 0), exact or
    # known to an order, and residual orders up to three past the candidate's
    cfg = data.draw(st.sampled_from([F2, F3]))
    coef = perf_series(cfg, max_terms=2, depth=1, exact=data.draw(st.booleans()))
    indices = data.draw(st.sets(st.integers(low + 1, low + 3), max_size=2))
    z_order = data.draw(st.sampled_from([INF, low + 3, low + 4]))
    z = CompSeries(cfg, {i: data.draw(coef) for i in {low} | indices}, z_order)
    scalar = perf_series(cfg, max_terms=2, depth=0, nonzero=True)
    family = data.draw(st.sampled_from(["implicit", "ode", "riccati"]))
    if family == "implicit":
        p0 = CompSeries(cfg, {i: data.draw(scalar) for i in data.draw(st.sets(st.integers(1, 3), max_size=2))})
        p1 = CompSeries(cfg, {0: PerfSeries.constant(cfg, data.draw(elems(cfg, nonzero=True))), 1: data.draw(scalar)})
        rest = [CompSeries(cfg, {data.draw(st.integers(0, 2)): data.draw(scalar)}) for _ in range(data.draw(st.integers(0, 2)))]
        prob = ImplicitProblem((p0, p1, *rest))
    elif family == "ode":
        support = data.draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=3))
        prob = OdeProblem(cfg, {jk: data.draw(scalar) for jk in support})
    else:
        # lambda, p_k and r_j at or above the floor 1/q^2, lambda sometimes inexact
        floor = Fraction(1, cfg.q**2)
        above = st.builds(lambda n, c: PerfSeries.x_pow(cfg, floor + n, c), st.integers(0, 2), elems(cfg, nonzero=True))
        lam = data.draw(above)
        if data.draw(st.booleans()):
            lam = lam + PerfSeries.zero(cfg, prec=lam.valuation_lb() + data.draw(st.integers(1, 3)))
        p = {k: data.draw(above) for k in data.draw(st.sets(st.integers(1, 3), max_size=2))}
        r = {j: data.draw(above) for j in data.draw(st.sets(st.integers(0, 3), max_size=2))}
        prob = RiccatiProblem(lam, p, r)
    order = data.draw(st.integers(0, (low + 4 if z_order == INF else z_order) + 3))
    assert residual(prob, z, order) == per_k_residual(prob, z, order)


def test_residual_builds_each_power_once(monkeypatch):
    # one chain z, z o z, z o (z o z): 2 compositions for the powers, plus one
    # per P_k with k >= 1; the oracle never reads the solvers' power table
    import fqlin.series
    import fqlin.solvers

    def refuse(*args, **kwargs):
        raise AssertionError("residual reached the solvers' recursion")

    for module, name in ((fqlin.solvers, "_recursion"), (fqlin.series, "multinomial_coeff")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(fqlin.series._PowerTable, "get", refuse)
    calls = []
    compose = CompSeries.compose
    monkeypatch.setattr(CompSeries, "compose", lambda *args, **kw: calls.append(1) or compose(*args, **kw))
    one = PerfSeries.one(F2)
    t = CompSeries.identity(F2)
    z = CompSeries(F2, {i: PerfSeries.x_pow(F2, i) for i in range(1, 40)})
    residual(ImplicitProblem((CompSeries(F2, {1: one}), t, t, t)), z, 5)
    assert len(calls) == 5
    calls.clear()
    residual(OdeProblem(F2, {(0, 0): one, (1, 1): one, (0, 2): one, (1, 3): one}), z, 5)
    assert len(calls) == 5
    calls.clear()
    # y o y is the chain's one composition, plus P_1 = x t^{q^1} and P_2 = x t
    x = PerfSeries.x_pow(F2, 1)
    residual(RiccatiProblem(x, {1: x}, {0: x}), z, 5)
    assert len(calls) == 3


def test_riccati_residual_reads_no_coefficient_past_its_cut():
    # y o y is cut like every power: a candidate from index -2 reads y_j
    # only up to j = order + 2, so the root twist of y_6 = x^{1/128} by
    # 1/q^2, off the exponent grid at perfection depth 8, is never formed
    x = PerfSeries.x_pow
    prob = RiccatiProblem(x(F2, Fraction(1, 4)), {1: x(F2, 1)}, {0: x(F2, Fraction(1, 2))})
    y = CompSeries(F2, {-2: PerfSeries.one(F2), 6: x(F2, Fraction(1, 128))})
    res = residual(prob, y, 2)
    assert res == residual(prob, CompSeries(F2, {-2: PerfSeries.one(F2)}), 2)
    assert res.order == 2 and sorted(res.terms) == [-4, -3, -1, 0]


# -- a seeded sweep of residuals pinned by digest ---------------------------

PIN_FIELDS = [F2, F3, F4, FieldConfig(p=3, s=2), FieldConfig(p=2, s=2)]


def _pin_scalar(rng, cfg, n_terms, lo, hi):
    """Exact scalar with n_terms monomials at integer exponents in [lo, hi]."""
    exps = rng.sample(range(lo, hi + 1), n_terms)
    return PerfSeries(cfg, [(Fraction(e), random_elem(rng, cfg, nonzero=True)) for e in exps])


def _pole_ode(rng, cfg):
    """An ODE in the shape of the benchmark's pole ODEs: poles in a_00 (two
    terms) and a_10 (one term), and the nonlinear a_11, a_02 and a_13."""
    elem = lambda: random_elem(rng, cfg, nonzero=True)
    pole = PerfSeries(cfg, [(Fraction(-rng.randint(1, 3)), elem()), (Fraction(rng.randint(0, 3)), elem())])
    a = {
        (0, 0): pole,
        (1, 0): PerfSeries.x_pow(cfg, -rng.randint(1, 3), elem()),
        (1, 1): _pin_scalar(rng, cfg, 1, 0, 3),
        (0, 2): _pin_scalar(rng, cfg, 2, 0, 3),
        (1, 3): _pin_scalar(rng, cfg, 1, 0, 3),
    }
    return OdeProblem(cfg, a)


def _pin_problems(rng, cfg, order, xprec):
    """(problem, solution) pairs in the shapes of the benchmark's implicit,
    pole-ODE and Riccati instances (test-local copies of those shapes)."""

    def s(n_terms, lo, hi):
        return _pin_scalar(rng, cfg, n_terms, lo, hi)

    def x_pow(e):
        return PerfSeries.x_pow(cfg, e, random_elem(rng, cfg, nonzero=True))

    p0 = CompSeries(cfg, {i: s(3, 0, 5) for i in (1, 2, 3)})
    p1 = CompSeries(cfg, {0: PerfSeries.constant(cfg, random_elem(rng, cfg, nonzero=True)), 1: s(2, 0, 4), 2: s(2, 0, 4)})
    nonlinear = [CompSeries(cfg, {i: s(2, 0, 4) for i in (0, 1)}) for _ in (2, 3)]
    imp = ImplicitProblem((p0, p1, *nonlinear))
    yield imp, solve_implicit(imp, order, xprec=xprec)[0]
    ode = _pole_ode(rng, cfg)
    norm, gamma = normalize_time_change(ode)
    yield ode, untransform_ode_solution(solve_ode(norm, order, xprec=xprec)[0], gamma)
    floor = Fraction(1, cfg.q**2)
    branch = "nonzero" if cfg.s == 2 and rng.random() < 0.5 else "zero"
    ric = RiccatiProblem(x_pow(floor), {1: x_pow(floor + 1)}, {0: x_pow(floor + 2)}, branch)
    c, coeffs = solve_riccati(ric, order, xprec=xprec)
    yield ric, riccati_series(c, coeffs, cfg)


def test_residual_sweep_pinned():
    # bench-shaped implicit, ODE and Riccati problems over the benchmark's five
    # fields, four seeds each: every solution and a copy with one extra term,
    # with 360 residuals at orders below, at and past the candidate's order 4
    # (64 of them nonzero) and 480 self_power(k) for k = 0..3.  A change to
    # the residual or to the power chain must reproduce every repr byte for
    # byte
    lines = []
    for seed in (0, 7, 13, 29):
        for cfg in PIN_FIELDS:
            rng = random.Random(f"residual sweep {seed} {cfg.p}^{cfg.degree}")
            for prob, z in _pin_problems(rng, cfg, 4, Fraction(10)):
                extra = CompSeries.monomial(cfg, rng.randint(1, 4), PerfSeries.x_pow(cfg, rng.randint(-4, 4), random_elem(rng, cfg, nonzero=True)))
                for cand in (z, z + extra):
                    lines += [repr(residual(prob, cand, order)) for order in (2, 4, 6)]
                    lines += [repr(cand.self_power(k)) for k in range(4)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "31f85173ee4879a23b1944cbb636b9cb79c633c83dc9d06f1eaf60f2c44f5f73"
