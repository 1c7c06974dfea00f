"""Riccati-type equations through the fractional leading term.

The oracle is the per-step additive equation itself: every computed
coefficient a_{l+1} must satisfy alpha a_{l+1}^{1/q} - beta a_{l+1} = rhs_l
to the working precision, with alpha, beta and rhs_l reassembled here
independently of the solver, and the final series must leave a zero
residual in the full equation.  The Hensel lift is also held to a seeded
sweep pinned by digest and to a test-local copy that forms every residual.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlin import (
    CompSeries,
    NeedsFieldExtension,
    NonConvergent,
    PerfSeries,
    RiccatiProblem,
    ValidationError,
    bracket,
    residual,
    riccati_series,
    solve_riccati,
)

from conftest import F2, F3, F4, F4_OVER_F2, elems, random_elem
from fqlin import FieldConfig
from fqlin.errors import KernelError, PerfectionDepthExceeded
import fqlin.solvers
from fqlin.fields import INF, den_exp
from fqlin.solvers import _residue_root

F9_OVER_F3 = FieldConfig(p=3, s=2)


def step_rhs(prob, c, a, l):
    """Right-hand side of the additive equation for a_{l+1} (test-local)."""
    fld = prob.field
    rhs = PerfSeries.zero(fld)
    for n in range(l + 1):
        rhs = rhs + prob.lam * (a[n] * a[l - n].frobenius(n))
    for k, p_k in prob.p.items():
        if 1 <= k <= l:
            rhs = rhs + p_k * a[l - k].frobenius(k)
        elif k == l + 1:
            rhs = rhs + p_k * c.frobenius(l + 1)
    r_l = prob.r.get(l)
    if r_l is not None:
        rhs = rhs + r_l
    return rhs


def step_defect(prob, c, a, l):
    """alpha w - beta w^q - rhs_l at the computed w = a_{l+1}^{1/q}."""
    fld = prob.field
    q = fld.q
    alpha = bracket(fld, l + 1).frobenius(-1) - bracket(fld, -1).frobenius(-1)
    beta = prob.lam * c.frobenius(l + 1)
    w = a[l + 1].frobenius(-1)
    return alpha * w - beta * a[l + 1] - step_rhs(prob, c, a, l)


def admissible_problem(data, cfg, branch="zero", inexact=False):
    """lambda with valuation exactly 1/q^2, and with ``inexact`` sometimes
    known only to a precision; the remaining data sits strictly above the
    floor, which keeps every step in the linear-residue regime where no
    scalar-field extension can be needed."""
    q = cfg.q
    floor = Fraction(1, q**2)
    lam = PerfSeries.x_pow(cfg, floor, data.draw(elems(cfg, nonzero=True)))
    if inexact and data.draw(st.booleans()):
        lam = lam + PerfSeries.zero(cfg, prec=floor + data.draw(st.integers(1, 3)))
    p = {}
    for k in data.draw(st.sets(st.integers(1, 2), max_size=2)):
        exp = floor + data.draw(st.integers(1, 2))
        p[k] = PerfSeries.x_pow(cfg, exp, data.draw(elems(cfg, nonzero=True)))
    r = {}
    for k in data.draw(st.sets(st.integers(0, 2), max_size=2)):
        exp = floor + data.draw(st.integers(1, 2))
        r[k] = PerfSeries.x_pow(cfg, exp, data.draw(elems(cfg, nonzero=True)))
    return RiccatiProblem(lam, p, r, branch)


def test_golden_monomial_lambda():
    # q = 2, lambda = x^{1/4}: c = lambda^{-1} [-1]^{1/2} = 1 + x^{1/4},
    # exactly, and the zero branch of the homogeneous equation is y = c t^{1/2}
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    prob = RiccatiProblem(lam)
    c, a = solve_riccati(prob, 5, xprec=Fraction(16))
    assert c.prec == float("inf")
    assert c.coeff(0) == F2.one()
    assert c.coeff(Fraction(1, 4)) == F2.one()
    assert len(c.terms) == 2
    assert all(a_n.is_zero() for a_n in a)
    assert a[0].is_exact_zero()
    y = riccati_series(c, a, F2)
    res = residual(prob, y, 4)
    assert all(cc.is_zero() for cc in res.terms.values())


def test_golden_leading_term_identity():
    # lambda c = [-1]^{1/q} for several lambdas and fields
    for cfg, exp in ((F2, Fraction(1, 4)), (F3, Fraction(1, 9))):
        lam = PerfSeries.x_pow(cfg, exp, 1)
        c, _ = solve_riccati(RiccatiProblem(lam), 1, xprec=Fraction(8))
        assert (lam * c - bracket(cfg, -1).frobenius(-1)).is_zero()


def test_branch_nonzero_char2_subfield():
    # over F_4 scalars with q = 2 the first step's residue equation
    # 1 + w + w^2 = 0 has the generator as its lexicographically least root
    lam = PerfSeries.x_pow(F4_OVER_F2, Fraction(1, 4))
    prob = RiccatiProblem(lam, branch="nonzero")
    c, a = solve_riccati(prob, 3, xprec=Fraction(8))
    assert a[0] == PerfSeries.one(F4_OVER_F2)
    assert not a[1].is_zero()
    y = riccati_series(c, a, F4_OVER_F2)
    res = residual(prob, y, 2)
    assert all(cc.is_zero() for cc in res.terms.values())


def test_branch_nonzero_needs_extension_over_f2():
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    prob = RiccatiProblem(lam, branch="nonzero")
    with pytest.raises(NeedsFieldExtension, match=r"step l = 0 \(a_1\)") as info:
        solve_riccati(prob, 3, xprec=Fraction(8))
    assert info.value.required_degree == 2


def test_branch_nonzero_odd_characteristic():
    # a_0^{q-1} = -1 has no root in F_3 but g works in F_9 where g^2 = -1
    lam3 = PerfSeries.x_pow(F3, Fraction(1, 9))
    with pytest.raises(NeedsFieldExtension, match="a_0") as info:
        solve_riccati(RiccatiProblem(lam3, branch="nonzero"), 2)
    assert info.value.required_degree == 2

    lam9 = PerfSeries.x_pow(F9_OVER_F3, Fraction(1, 9))
    c, a = solve_riccati(
        RiccatiProblem(lam9, branch="nonzero"), 1, xprec=Fraction(4)
    )
    assert a[0] == PerfSeries.constant(F9_OVER_F3, F9_OVER_F3.gen())
    assert (a[0].frobenius(-1) + a[0]).is_zero()


# the zero branch over F_2 and F_3, and the nonzero branch, which seeds a_0
# at index 0 of the multinomial table, over F_4 and F_9 scalars (q = 2, 3)
BRANCH_CASES = [(F2, "zero"), (F3, "zero"), (F4_OVER_F2, "nonzero"), (F9_OVER_F3, "nonzero")]


@pytest.mark.parametrize(
    "kwargs",
    [{"p": 2}, {"p": 2, "v": 2}, {"p": 2, "s": 2}, {"p": 2, "v": 3}, {"p": 3}, {"p": 3, "v": 2},
     {"p": 3, "s": 2}, {"p": 3, "v": 3}, {"p": 5}, {"p": 5, "v": 2}, {"p": 7}, {"p": 13, "s": 2}],
)
def test_nonzero_a0_matches_enumeration(kwargs):
    # a_0 is the lexicographically least nonzero root of a^{1/q} + a = 0,
    # found here by enumerating the field (test-local)
    cfg = FieldConfig(**kwargs)
    roots = [e for e in cfg.elements() if not e.is_zero() and e.pow_p(-cfg.v) == -e]
    prob = RiccatiProblem(PerfSeries.x_pow(cfg, Fraction(1, cfg.q**2)), branch="nonzero")
    if not roots:
        with pytest.raises(NeedsFieldExtension, match="Riccati a_0") as info:
            solve_riccati(prob, 0)
        assert info.value.required_degree == 2
    else:
        _, a = solve_riccati(prob, 0)
        assert a == [PerfSeries.constant(cfg, roots[0])]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_per_step_equation_residual(data):
    cfg, branch = data.draw(st.sampled_from(BRANCH_CASES))
    prob = admissible_problem(data, cfg, branch, inexact=True)
    xprec = Fraction(10)
    c, a = solve_riccati(prob, 4, xprec=xprec)
    for l in range(4):
        defect = step_defect(prob, c, a, l)
        assert defect.is_zero() or defect.valuation_lb() >= xprec


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_full_residual_vanishes(data):
    cfg, branch = data.draw(st.sampled_from(BRANCH_CASES))
    prob = admissible_problem(data, cfg, branch, inexact=True)
    order = 4
    c, a = solve_riccati(prob, order, xprec=Fraction(10))
    y = riccati_series(c, a, cfg)
    res = residual(prob, y, order - 1)
    assert all(cc.is_zero() for cc in res.terms.values())


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_all_coefficients_integral(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    prob = admissible_problem(data, cfg)
    _, a = solve_riccati(prob, 4, xprec=Fraction(8))
    for a_n in a:
        assert a_n.valuation_lb() >= 0


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_deterministic_runs(data):
    cfg = data.draw(st.sampled_from([F2, F3]))
    prob = admissible_problem(data, cfg)
    first = solve_riccati(prob, 3, xprec=Fraction(8))
    second = solve_riccati(prob, 3, xprec=Fraction(8))
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_hensel_trace_strictly_increases():
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    r = {0: PerfSeries.x_pow(F2, Fraction(1, 2)), 1: PerfSeries.x_pow(F2, 1)}
    prob = RiccatiProblem(lam, r=r)
    xprec = Fraction(12)
    trace = []
    solve_riccati(prob, 4, xprec=xprec, trace=trace)
    assert len(trace) == 4
    saw_iterations = False
    for entry in trace:
        for step in entry["steps"]:
            vals = step["residuals"]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            if len(vals) > 1:
                saw_iterations = True
                # q-adic contraction: reaching the target takes at most
                # ceil(log_q(xprec / v_0)) + 2 rounds
                v0 = vals[0]
                bound = 2
                level = v0
                while level < xprec:
                    level *= F2.q
                    bound += 1
                assert len(vals) - 1 <= bound
    assert saw_iterations


def test_hensel_bound_counts_the_contraction():
    fr = Fraction
    # q = 2, v(alpha) = v(beta) = 1/4, v(e) = 1: v(e) runs 1, 2, 4, 8, so the
    # residual v(alpha) + v(e) passes 8 on the third iteration
    assert _hensel_bound(fr(1), fr(1, 4), fr(1, 4), 2, fr(8)) == 3
    assert _hensel_bound(fr(1), fr(1, 4), fr(1, 4), 2, fr(5, 4)) == 0
    # v(beta) - v(alpha) + (q - 1) v(e) <= 0: the error never shrinks
    assert _hensel_bound(fr(1, 8), fr(1), fr(0), 2, fr(8)) == 0


def test_hensel_iterations_stay_within_the_bound():
    # every root's residual reaches the working precision within the Hensel
    # bound of its first residual, on the F_2 problem and on the six bench
    # shapes at seed 0 (order 5, xprec 20 and 40)
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    r = {0: PerfSeries.x_pow(F2, Fraction(1, 2)), 1: PerfSeries.x_pow(F2, 1)}
    cases = [(RiccatiProblem(lam, r=r), 4, Fraction(12))]
    for cfg, branch in BENCH_SHAPES:
        prob = bench_shaped_problem(random.Random("bench shape 0"), cfg, branch)
        cases += [(prob, 5, Fraction(xprec)) for xprec in (20, 40)]
    for prob, order, xprec in cases:
        trace = []
        c, _ = solve_riccati(prob, order, xprec=xprec, trace=trace)
        q, wprec, v_alpha = prob.field.q, xprec + 4, Fraction(1, prob.field.q**2)
        counts = []
        for entry in trace:
            v_beta = prob.lam.valuation_lb() + q ** (entry["l"] + 1) * c.valuation_lb()
            stop = max(wprec + v_alpha, q * wprec + v_beta)
            for step in entry["steps"]:
                vals = step["residuals"]
                if vals[0] < stop:
                    counts.append((len(vals) - 1, _hensel_bound(vals[0] - v_alpha, v_alpha, v_beta, q, stop)))
        assert counts and all(0 < done <= bound for done, bound in counts), (prob, xprec)


def test_hensel_iteration_count_small():
    lam = PerfSeries.x_pow(F3, Fraction(1, 9))
    prob = RiccatiProblem(lam, r={0: PerfSeries.x_pow(F3, Fraction(1, 9))})
    trace = []
    solve_riccati(prob, 3, xprec=Fraction(9), trace=trace)
    for entry in trace:
        for step in entry["steps"]:
            assert len(step["residuals"]) <= 10


def test_inexact_step_claims_only_determined_digits():
    # a Hensel step whose residual is zero only modulo a precision below the
    # target once returned a_2 = x^11 + O(x^30), while every exact completion
    # of the inputs has nonzero terms at x^{59/3}, x^25, x^27, x^{85/3}, x^29
    e = F9_OVER_F3.elem
    lam_terms = [(Fraction(4, 9), e((2, 1))), (Fraction(10, 9), e((0, 1))), (Fraction(16, 9), e((0, 1)))]
    r0_terms = [(Fraction(34, 9), e((2, 2)))]
    r1 = PerfSeries(F9_OVER_F3, [(Fraction(34, 9), e((2, 0)))])
    prob = RiccatiProblem(
        PerfSeries(F9_OVER_F3, lam_terms, Fraction(28, 9)),
        r={0: PerfSeries(F9_OVER_F3, r0_terms, Fraction(64, 9)), 1: r1},
        branch="nonzero",
    )
    completion = RiccatiProblem(
        PerfSeries(F9_OVER_F3, lam_terms), r={0: PerfSeries(F9_OVER_F3, r0_terms), 1: r1}, branch="nonzero"
    )
    c, a = solve_riccati(prob, 3, xprec=Fraction(6))
    c_exact, a_exact = solve_riccati(completion, 3, xprec=Fraction(46))
    assert (c - c_exact).is_zero()
    for a_n, exact in zip(a, a_exact):
        assert (a_n - exact).is_zero()


def test_multi_term_lambda():
    lam = PerfSeries(
        F2, [(Fraction(1, 4), F2.one()), (Fraction(5, 4), F2.one())]
    )
    prob = RiccatiProblem(lam, r={0: PerfSeries.x_pow(F2, 1)})
    c, a = solve_riccati(prob, 3, xprec=Fraction(8))
    assert (lam * c - bracket(F2, -1).frobenius(-1)).is_zero()
    y = riccati_series(c, a, F2)
    res = residual(prob, y, 2)
    assert all(cc.is_zero() for cc in res.terms.values())


def test_out_of_range_lambda_not_convergent():
    lam = PerfSeries.x_pow(F2, 1)  # valuation 1 > 1/4: admissible type,
    prob = RiccatiProblem(lam, r={0: PerfSeries.x_pow(F2, Fraction(1, 4))})
    # but outside the certified range: the root does not contract, so its Hensel bound is 0
    with pytest.raises(NonConvergent, match=r"step l = 0 \(a_1\).* within the Hensel bound \(0 iterations\)"):
        solve_riccati(prob, 3, xprec=Fraction(8))


def test_validation_rejects_bad_data():
    with pytest.raises(ValidationError):
        RiccatiProblem(PerfSeries.zero(F2))
    with pytest.raises(ValidationError):
        RiccatiProblem(PerfSeries.x_pow(F2, Fraction(1, 8)))  # below 1/q^2
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    with pytest.raises(ValidationError):
        RiccatiProblem(lam, p={0: PerfSeries.one(F2)})  # p starts at k = 1
    with pytest.raises(ValidationError):
        RiccatiProblem(lam, r={-1: PerfSeries.one(F2)})
    with pytest.raises(ValidationError):
        RiccatiProblem(lam, r={0: PerfSeries.x_pow(F2, Fraction(1, 8))})
    with pytest.raises(ValidationError):
        RiccatiProblem(lam, branch="maybe")


def test_riccati_series_shape():
    lam = PerfSeries.x_pow(F2, Fraction(1, 4))
    c, a = solve_riccati(RiccatiProblem(lam), 3, xprec=Fraction(8))
    y = riccati_series(c, a, F2)
    assert y.min_index() == -1
    assert y.coeff(-1) == c
    assert y.order == 3


# ---------------------------------------------------------------------------
# a seeded sweep pinned by digest

SWEEP_FIELDS = [F2, F3, F4, F4_OVER_F2, F9_OVER_F3, FieldConfig(p=5)]


def _sweep_coeff(rng, cfg, lead):
    """One to three terms from x^lead up, in steps of 1/q; 40% of them known
    only to a precision a little above lead."""
    q = cfg.q
    exps = {lead} | {lead + Fraction(rng.randint(1, 2 * q), q) for _ in range(rng.randint(0, 2))}
    s = PerfSeries(cfg, [(e, random_elem(rng, cfg, nonzero=True)) for e in sorted(exps)])
    if rng.random() < 0.4:
        s = s + PerfSeries.zero(cfg, prec=lead + Fraction(rng.randint(1, 3 * q), q))
    return s


def _sweep_problem(rng, cfg, branch):
    """lambda at the floor 1/q^2 (70%) or above it, which leaves the
    certified range; p_k and r_k at or above the floor."""
    floor = Fraction(1, cfg.q**2)

    def above():
        return floor + Fraction(rng.randint(0, 2 * cfg.q), cfg.q)

    lam = _sweep_coeff(rng, cfg, floor if rng.random() < 0.7 else above())
    p = {k: _sweep_coeff(rng, cfg, above()) for k in rng.sample((1, 2), rng.randint(0, 2))}
    r = {k: _sweep_coeff(rng, cfg, above()) for k in rng.sample((0, 1, 2), rng.randint(0, 2))}
    return RiccatiProblem(lam, p, r, branch)


def _sweep_outcome(prob, order, xprec):
    trace = []
    try:
        c, a = solve_riccati(prob, order, xprec=xprec, trace=trace)
    except KernelError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{c!r} {a!r} {trace!r}"


def test_solve_riccati_sweep_pinned():
    # 600 problems over F_2, F_3, F_4 (q = 4 and q = 2), F_9 (q = 3) and F_5,
    # both branches: 279 solve, 241 need an extension and 80 do not contract.
    # The outputs with their Hensel traces, or each error's type and message,
    # are pinned, so a change to the lift must reproduce them byte for byte
    rng = random.Random("riccati sweep")
    lines = []
    for i in range(600):
        cfg = SWEEP_FIELDS[i % len(SWEEP_FIELDS)]
        prob = _sweep_problem(rng, cfg, ("zero", "nonzero")[i // len(SWEEP_FIELDS) % 2])
        lines.append(_sweep_outcome(prob, rng.randint(2, 4), Fraction(rng.choice((6, 8, 10)))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "13017267a6f69c5b0df56934ad7083b6379cebee147e1f6e940df947c38a853e"


OFF_GRID_FIELDS = [FieldConfig(p=2, perf_depth=3), FieldConfig(p=3, perf_depth=2), FieldConfig(p=3, s=2, perf_depth=2)]


def test_solve_riccati_off_grid_pinned():
    # 300 problems over shallow fields (F_2 at depth 3, F_3 and F_9 at depth
    # 2), where roots, working precisions and outputs leave the exponent grid:
    # xprec on the grid, off it (denominator p^(depth + 1)) or INF.  The
    # outputs with their Hensel traces, or each error's type and message, are
    # pinned, which keeps the point where an off-grid precision raises
    rng = random.Random("riccati off grid")
    lines = []
    for i in range(300):
        cfg = OFF_GRID_FIELDS[i % len(OFF_GRID_FIELDS)]
        prob = _sweep_problem(rng, cfg, ("zero", "nonzero")[i // len(OFF_GRID_FIELDS) % 2])
        grid = cfg.p**cfg.perf_depth
        xprec = rng.choice(
            (Fraction(rng.randint(4, 10)), Fraction(rng.randint(4 * grid, 10 * grid), grid),
             Fraction(rng.randint(4, 10)) + Fraction(rng.randint(1, cfg.p - 1), grid * cfg.p), INF)
        )
        lines.append(_sweep_outcome(prob, rng.randint(2, 4), xprec))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "b491611326555344fe209c040c59881ff246779ca285b29b0a01088d7e8df155"


def _x(cfg, exp, coeff=1):
    return PerfSeries.x_pow(cfg, Fraction(exp), coeff)


# the benchmark's riccati shapes, fields and branches (test-local copy)
BENCH_SHAPES = [
    (F2, "zero"), (F3, "zero"), (F4, "zero"), (F9_OVER_F3, "zero"), (F9_OVER_F3, "nonzero"),
    (F4_OVER_F2, "nonzero"),
]


def bench_shaped_problem(rng, cfg, branch):
    """lambda at valuation exactly 1/q^2, p_1 one and r_0 two above it."""
    floor = Fraction(1, cfg.q**2)
    lam, p1, r0 = (PerfSeries.x_pow(cfg, floor + k, random_elem(rng, cfg, nonzero=True)) for k in (0, 1, 2))
    return RiccatiProblem(lam, {1: p1}, {0: r0}, branch)


def test_solve_riccati_bench_shapes_pinned():
    # 144 bench-shaped problems (six shapes, four seeds, orders 3 and 5,
    # xprec 10, 20 and 40) and the ROADMAP problem at order 5, where the
    # working precision q wprec + v(beta) far exceeds the wprec digits kept:
    # the outputs with their Hensel traces are pinned
    lines = []
    for cfg, branch in BENCH_SHAPES:
        for seed in range(4):
            prob = bench_shaped_problem(random.Random(f"bench shape {seed}"), cfg, branch)
            lines += [_sweep_outcome(prob, n, Fraction(xp)) for n in (3, 5) for xp in (10, 20, 40)]
    road = RiccatiProblem(_x(F2, "1/4"), {1: _x(F2, 1)}, {0: _x(F2, "1/2")})
    lines += [_sweep_outcome(road, 5, Fraction(xp)) for xp in (10, 20, 40)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "38fd1e9e566b147c3ba3f5c953268a5aaf1320231036dbc8ba98041608c38430"


# quotient digits of one order-5, xprec-20 solve of bench_shaped_problem at
# seed 0 had every fixed-point iterate been divided out to the working precision
DIVIDED_TO_STOP = [(F9_OVER_F3, "nonzero", 5681), (F4_OVER_F2, "nonzero", 3295), (F3, "zero", 2326)]


DIVIDED_IDS = ["F9-nonzero", "F4-q2-nonzero", "F3-zero"]


@pytest.mark.parametrize("cfg, branch, to_stop", DIVIDED_TO_STOP, ids=DIVIDED_IDS)
def test_lift_divides_once_only_to_the_digits_kept(cfg, branch, to_stop, monkeypatch):
    # each step's one twisted division stops at the digits w keeps, which
    # leaves at most 40% of those digits.  Every division, the public div's
    # and the lift's twisted one too, runs through the long-division core
    div, digits = PerfSeries._div, [0]

    def counting_div(self, other, limit=None, twist=None):
        out = div(self, other, limit, twist)
        digits[0] += len(out._terms)
        return out

    monkeypatch.setattr(PerfSeries, "_div", counting_div)
    solve_riccati(bench_shaped_problem(random.Random("bench shape 0"), cfg, branch), 5, xprec=Fraction(20))
    assert 0 < digits[0] <= 0.4 * to_stop


def test_lift_iterations_build_no_fraction(monkeypatch):
    # the lift runs on the stored form: the one twisted division that gives
    # w past its residue root builds no Fraction.  The root's exponent, the
    # trace and the errors are the edges, before that division and after it
    lift, div, new = fqlin.solvers._solve_additive, PerfSeries._div, Fraction.__new__
    built, inside, calls = [0], [], []

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    def marking_div(self, other, limit=None, twist=None):
        if twist is None:
            return div(self, other, limit)
        before = built[0]
        out = div(self, other, limit, twist)
        inside.append(built[0] - before)
        return out

    def counted_lift(*args, **kwargs):
        start = len(inside)
        out = lift(*args, **kwargs)
        calls.append(len(inside) - start)
        return out

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(PerfSeries, "_div", marking_div)
    monkeypatch.setattr(fqlin.solvers, "_solve_additive", counted_lift)
    road = RiccatiProblem(_x(F2, "1/4"), {1: _x(F2, 1)}, {0: _x(F2, "1/2")})
    solve_riccati(road, 5, xprec=Fraction(40), trace=[])
    for cfg, branch, _ in DIVIDED_TO_STOP:
        solve_riccati(bench_shaped_problem(random.Random("bench shape 0"), cfg, branch), 5, xprec=Fraction(20), trace=[])
    assert len(inside) >= 10 and not any(inside), inside
    assert max(calls) == 1


# ---------------------------------------------------------------------------
# the Hensel lift against a copy that forms every residual


def _hensel_bound(v_e, v_alpha, v_beta, q, stop):
    """Iterations until the residual, of valuation v(alpha) + v(e), reaches
    stop when the error contracts as v(e') = v(beta) - v(alpha) + q v(e);
    0 when it does not contract, so no iteration converges (test-local)."""
    count = 0
    while v_alpha + v_e < stop:
        nxt = v_beta - v_alpha + q * v_e
        if nxt <= v_e:
            return 0
        v_e, count = nxt, count + 1
    return count


def residual_forming_lift(alpha, beta, rhs, wprec, l, trace=None, cuts=None):
    """``_solve_additive`` with every residual formed: each iteration
    multiplies alpha * w and subtracts rhs - (alpha w - beta w^q)
    (test-local).  ``cuts`` collects, per iteration, whether rhs's
    precision is the residual's, that is whether it sets T."""
    fld = alpha.field
    q = fld.q
    v_alpha = alpha.valuation_lb()
    v_beta = beta.valuation_lb()
    stop = max(Fraction(wprec) + v_alpha, q * Fraction(wprec) + v_beta)
    if rhs.is_zero():
        return PerfSeries.zero(fld, prec=min(rhs.prec - v_alpha, (rhs.prec - v_beta) / q))
    v_r = rhs.valuation_lb()
    chord = v_r + Fraction(v_beta - v_r) / q
    if v_alpha < chord:
        candidates = [(Fraction(v_r - v_alpha), (0, 1)), (Fraction(v_alpha - v_beta) / (q - 1), (1, q))]
    elif v_alpha == chord:
        candidates = [(Fraction(v_r - v_beta) / q, (0, 1, q))]
    else:
        candidates = [(Fraction(v_r - v_beta) / q, (0, q))]
    r0, a0, b0 = rhs.leading()[1], alpha.leading()[1], beta.leading()[1]
    needed_degree = None
    bounds = []
    for mu, on_line in candidates:
        if mu < 0 or den_exp(mu, fld.p) is None:
            continue
        root = _residue_root(fld, on_line, r0, a0, b0, q)
        if isinstance(root, int):
            needed_degree = root if needed_degree is None else min(needed_degree, root)
            continue
        w = PerfSeries.x_pow(fld, mu, root)
        bwq = beta * w.frobenius(1)
        res = rhs - (alpha * w - bwq)
        res_vals = [res.valuation_lb()]
        converged = res.is_zero() or res_vals[-1] >= stop
        bounds.append(0 if converged else _hensel_bound(res_vals[0] - v_alpha, v_alpha, v_beta, q, stop))
        for _ in range(bounds[-1]):
            if converged:
                break
            w = (rhs + bwq).div(alpha, prec=stop - 2 * v_alpha + 1)
            bwq = beta * w.frobenius(1)
            res = rhs - (alpha * w - bwq)
            if cuts is not None:
                cuts.append(res.prec == rhs.prec != INF)
            v_now = res.valuation_lb()
            if not res.is_zero() and v_now <= res_vals[-1]:
                break
            res_vals.append(v_now)
            converged = res.is_zero() or v_now >= stop
        if converged:
            if trace is not None:
                trace.append({"mu": mu, "residuals": res_vals})
            return w.truncate(min(wprec, res_vals[-1] - v_alpha))
    if needed_degree is not None:
        raise NeedsFieldExtension(
            needed_degree,
            f"Riccati step l = {l} (a_{l + 1}): residue equation has no root in the scalar field",
        )
    within = f" within the Hensel bound ({', '.join(map(str, bounds))} iterations)" if bounds else ""
    raise NonConvergent(
        f"Riccati step l = {l} (a_{l + 1}): no contracting root with non-negative "
        f"valuation{within}; the equation falls outside the certified parameter range"
    )


def _outcome(lift, *args, **kwargs):
    try:
        return lift(*args, **kwargs)
    except KernelError as exc:
        return type(exc), str(exc)


def solve_checking_each_lift(prob, order, xprec, cuts=None):
    """solve_riccati with every Hensel lift also run by the residual-forming
    copy; each step must return the same w (terms and precision), the same
    trace (roots and residual valuations) or the same error."""
    lift = fqlin.solvers._solve_additive
    lifts = []

    def both(alpha, beta, rhs, wprec, l, trace=None):
        old_trace, new_trace = [], []
        old = _outcome(residual_forming_lift, alpha, beta, rhs, wprec, l, trace=old_trace, cuts=cuts)
        lifts.append(l)
        try:
            new = lift(alpha, beta, rhs, wprec, l, trace=new_trace)
        except KernelError as exc:
            assert (type(exc), str(exc)) == old, f"step l = {l}"
            raise
        assert new == old and new_trace == old_trace, f"step l = {l}"
        if trace is not None:
            trace.extend(new_trace)
        return new

    fqlin.solvers._solve_additive = both
    try:
        _outcome(solve_riccati, prob, order, xprec=xprec)
    finally:
        fqlin.solvers._solve_additive = lift
    return lifts


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_lift_matches_the_residual_forming_copy(data):
    shallow = FieldConfig(p=2, perf_depth=3)  # roots and precisions leave its grid
    cfg, branch = data.draw(st.sampled_from(BRANCH_CASES + [(FieldConfig(p=5), "zero"), (F4, "zero"), (shallow, "zero")]))
    prob = admissible_problem(data, cfg, branch, inexact=True)
    # the high precisions first, which hypothesis draws more often.  -k is 10
    # plus a step k digits below the field's exponent grid: q wprec is on the
    # grid (k = 1, q = p) or off it too (k = 2), so the error comes at the end
    # of the lift or in its first iteration, where the copy must raise the same
    xprec = Fraction(data.draw(st.sampled_from((40, 20, 16, 10, 6, -1, -2))))
    if xprec < 0:
        xprec = 10 + Fraction(1, cfg.p ** (cfg.perf_depth - xprec))
    solve_checking_each_lift(prob, data.draw(st.integers(1, 4)), xprec)


def test_lift_raises_an_off_grid_limit_in_its_first_iteration():
    # xprec = 10 + 2^-10 over F_2 (grid 2^-8): q wprec, and so the limit of a
    # division to stop, is off the grid, and the first iteration raises there
    # (the truncation to wprec at the end would name depth 10, not 9)
    road = RiccatiProblem(_x(F2, "1/4"), {1: _x(F2, 1)}, {0: _x(F2, "1/2")})
    xprec = 10 + Fraction(1, 2**10)
    with pytest.raises(PerfectionDepthExceeded, match=r"^exponent 14721/512 needs perfection depth 9 > cap 8$"):
        solve_riccati(road, 3, xprec=xprec)
    assert solve_checking_each_lift(road, 3, xprec) == [0]


def test_lift_reads_rhs_precision_as_the_cut():
    # r_0 is known below x^{9/4} only: step 0's second residual is zero modulo
    # rhs's precision, which is then T, the residual's precision (prec(w) +
    # v(alpha) equals it, and beta w^q is known further)
    one, g = F4_OVER_F2.one(), F4_OVER_F2.gen()
    prob = RiccatiProblem(
        PerfSeries(F4_OVER_F2, [(Fraction(1, 4), g), (Fraction(7, 4), one)]),
        r={
            0: PerfSeries(F4_OVER_F2, [(Fraction(5, 4), one)], Fraction(9, 4)),
            2: PerfSeries(F4_OVER_F2, [(Fraction(7, 4), one)], Fraction(15, 4)),
        },
    )
    trace, cuts = [], []
    solve_riccati(prob, 4, xprec=Fraction(6), trace=trace)
    assert trace[0]["steps"] == [{"mu": 1, "residuals": [2, Fraction(9, 4)]}]
    assert solve_checking_each_lift(prob, 4, Fraction(6), cuts) == [0, 1, 2, 3]
    assert any(cuts)


@pytest.mark.parametrize(
    "prob, order, xprec",
    [
        (RiccatiProblem(_x(F2, "1/4"), r={0: _x(F2, "1/2"), 1: _x(F2, 1)}), 4, 12),
        (RiccatiProblem(_x(F2, "1/4"), {1: _x(F2, 1)}, {0: _x(F2, "1/2")}), 4, 20),
        (
            RiccatiProblem(
                _x(F9_OVER_F3, "1/9", F9_OVER_F3.gen()), r={0: _x(F9_OVER_F3, "10/9")}, branch="nonzero"
            ),
            4,
            10,
        ),
    ]
    + [(bench_shaped_problem(random.Random("bench shape 0"), cfg, branch), 5, 20) for cfg, branch, _ in DIVIDED_TO_STOP],
    ids=["F2-r0-r1", "F2-roadmap", "F9-nonzero"] + [f"bench-{name}" for name in DIVIDED_IDS],
)
def test_lift_forms_two_products_per_root(prob, order, xprec, monkeypatch):
    # the residue-root monomial's residual takes two products, alpha w and
    # beta w^q, each with that one-term monomial as a factor, so a root costs
    # at most len(alpha) + len(beta) term pairs; the iterations take none:
    # their residual valuations follow from the first, and w comes out of one
    # twisted division.  Every root tried here converges, so the step's trace
    # lists them all
    lift, mul = fqlin.solvers._solve_additive, PerfSeries.__mul__
    counted, products = [], [None]

    def counting_mul(a, b):
        if products[0] is not None:
            monomials = [f.terms[0][0] for f in (a, b) if len(f._terms) == 1 and f._prec is None]
            products[0].append((monomials, len(a._terms) * len(b._terms)))
        return mul(a, b)

    def counting_lift(alpha, beta, *args, trace=None, **kwargs):
        products[0], step_trace = [], []
        out = lift(alpha, beta, *args, trace=step_trace, **kwargs)
        counted.append((products[0], step_trace, len(alpha._terms) + len(beta._terms)))
        products[0] = None
        return out

    monkeypatch.setattr(PerfSeries, "__mul__", counting_mul)
    monkeypatch.setattr(fqlin.solvers, "_solve_additive", counting_lift)
    solve_riccati(prob, order, xprec=Fraction(xprec))
    assert len(counted) == order and sum(len(s["residuals"]) - 1 for _, t, _ in counted for s in t) > 0
    q = prob.field.q
    for step_products, step_trace, per_root in counted:
        roots = {s["mu"] for s in step_trace} | {q * s["mu"] for s in step_trace}
        assert len(step_products) == 2 * len(step_trace)
        assert all(roots.intersection(monomials) for monomials, _ in step_products)
        assert sum(pairs for _, pairs in step_products) <= per_root * len(step_trace)
