"""Coefficient-recursion solvers with growth certificates.

Three equation families are solved exactly, coefficient by coefficient.

Implicit equations P_0 + P_1 o z + sum_k P_k o z^{o k} = 0 with the linear
part P_1 = u o t^{q^nu} (u a unit): the index-(i+nu) coefficient of the
equation contains the unknown c_i only through the single term
u_0 c_i^{q^nu}, since the tail of P_1 and the nonlinear terms only involve
earlier coefficients.  Dividing by u_0 and taking a q^nu-th root reads off
c_i directly; the compositional inverse of u is never formed, so sparse
solutions stay cheap even when u has dense higher coefficients.

Additive ODEs d z = sum_{j,k} a_{jk} tau^j (z^{o k}) + sum_j a_{j0} t^{q^j}
with d the Carlitz derivative: matching the t^{q^i} coefficient of both
sides gives

    c_{i+1} = [i+1]^{-1} (sum_{j+l=i, l>=1} sum_k a_{jk} M_{l,k}(c)^{q^j}
              + a_{i0})^q,

where M_{l,k} is the compositional multinomial.  The whole bracket is
raised to the q-th power before dividing by [i+1]; the base case is
c_1 = [1]^{-1} a_{00}^q.  A time change conjugating by gamma t (gamma a
power of x) makes every inhomogeneous coefficient integral first.  The
conjugation scales every a_{jk} by gamma^{q^j - 1/q}: scaling only the
inhomogeneous column, which would suffice for linear equations, does not
survive the k >= 2 terms, so the transform used here is
z = (gamma t) o z' o (gamma^{-1} t), i.e. c_i = gamma^{1-q^i} c'_i.

All three families are solved by one coefficient recursion,
``_recursion``.  Each becomes a list of (k, n, a) terms; a term stands for
a * (z^{o k})_{e-n}^{q^n} at equation index e, with a P_k's coefficient at
index n for the implicit equation, a_{nk} for the ODE.  Since z^{o 0} = t,
P_0 and the inhomogeneous column a_{j0} join the same sum.  Step i sums
the terms at e = i + nu (implicit) or e = i - 1 (ODE and Riccati); c_i
itself is not yet known there and reads zero.  The solver's own step
turns the sum s into c_i: (-(u_0^{-1} s))^{q^{-nu}} for the implicit
equation and [i]^{-1} s^q for the ODE.  The multinomials M_k[m] =
(z^{o k})_m come from one table per solve, which keeps every entry once
computed and grows as the steps ask for more: the online ("relaxed")
evaluation of van der Hoeven, "Relax, but don't be too lazy" (J. Symbolic
Comput. 2002).  The table reads z from index 1, or from index 0 when the
solver seeds c_0; at step i every entry with k >= 2 involves only
coefficients below i, so it is final when it is computed.

Riccati-type equations d y = lambda (y o y) + P(tau) y + R with
y = c t^{1/q} + sum_n a_n t^{q^n}: the fractional index forces
c = lambda^{-1} [-1]^{1/q} exactly and a_0^{1/q} + a_0 = 0, that is
a_0 + a_0^q = 0, a residue equation like those of the later steps.  With
z = sum_{n>=0} a_n t^{q^n} the right-hand side at e = l is the term list
(2, 0, lambda), (1, k, p_k), (0, j, r_j): M_2[l] = sum_{n=0..l}
a_n a_{l-n}^{q^n}, and lambda multiplies it once.  The step adds the one
term that holds c, p_{l+1} c^{q^{l+1}}, and solves the additive equation

    alpha w - beta w^q = rhs_l,      w = a_{l+1}^{1/q},
    alpha = [l+1]^{1/q} - lambda c = x^{q^l} - x^{1/q^2},
    beta = lambda c^{q^{l+1}},

by a Newton-polygon analysis over the value group Z[1/p], a residue-field
solve, and a Hensel lift.  Past the residue root w_0, w = w_0 + delta with
alpha delta - beta delta^q = res_0, the root's residual (Frobenius is
additive), and each digit of delta is fixed by earlier ones: delta is one
long division of res_0 by the exact binomial alpha whose dividend gains
beta d^q x^{qn} as each digit d x^n comes out (``PerfSeries._div`` with a
twist), the relaxed evaluation again.  The fixed-point iterates
w <- (rhs + beta w^q) / alpha are never formed.  Consecutive ones differ
by res / alpha, so their residuals contract as v -> v(beta) +
q (v - v(alpha)) below the precision a division to the working precision
would carry; that recurrence, on ints exponent * p^perf_depth, gives the
trace and the digits w keeps.  A root is kept exactly when its first step
gains, (q - 1)(v - v(alpha)) > v(alpha) - v(beta); every later step then
gains more, so a kept root always reaches the working precision.

``residual`` back-substitutes a candidate into the one shape that the
three families share, sum_k P_k o z^{o k} = 0 (implicit) or = d z, with
P_k = sum_j a_{jk} t^{q^j} for the ODE and P_0 = R, P_1 = P(tau),
P_2 = lambda t for the Riccati equation.  It composes plainly,
independently of ``_recursion`` and its power table, on the one chain of
powers z, z o z, z o (z o z), ... that ``CompSeries.powers`` builds and
cuts.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .carlitz import bracket, carlitz_d
from .errors import (
    NeedsFieldExtension,
    NonConvergent,
    NotSolvable,
    ValidationError,
    ZeroInput,
)
from .fields import (
    DEFAULT_XPREC,
    INF,
    FieldElem,
    PerfSeries,
    _scaled,
    least_factor_degree,
    twisted_sum,
)
from .ore import factor_unit
from .series import CompSeries, GrowthCertificate, _PowerTable, growth_certificate

__all__ = [
    "GrowthCertificate",
    "ImplicitProblem",
    "OdeProblem",
    "RiccatiProblem",
    "growth_certificate",
    "normalize_time_change",
    "residual",
    "riccati_series",
    "solve_implicit",
    "solve_ode",
    "solve_riccati",
    "untransform_ode_solution",
]


def _coerce_coeff(field, value, what):
    if not isinstance(value, PerfSeries) or value.field != field:
        raise ValidationError(f"{what} must be a scalar series over the problem field")
    return value


# ---------------------------------------------------------------------------
# the coefficient recursion shared by the three solvers


def _recursion(fld, terms, indices, shift, step, a0=None):
    """c_i = step(i, s) for i in indices, where s = sum a * M_k[e - n]^{q^n}
    over the (k, n, a) terms at equation index e = i + shift.  c_i enters
    the table after its step, so the term holding it reads zero.  z starts
    at index 1, or at index 0 with c_0 = a0 when the solver seeds it."""
    coeffs = {} if a0 is None else {0: a0}
    powers = _PowerTable(fld, coeffs, 1 if a0 is None else 0)
    for i in indices:
        e = i + shift
        c = step(i, twisted_sum(fld, [(a, powers.get(k, e - n), n) for k, n, a in terms]))
        if not c.is_exact_zero():
            coeffs[i] = c
    return coeffs


# ---------------------------------------------------------------------------
# implicit equations


class ImplicitProblem:
    """P_0 + P_1 o z + P_2 o (z o z) + ... = 0 with a t^{q^nu}-shifted
    invertible linear part."""

    def __init__(self, P, nu=0):
        self.P = P = tuple(P)
        self.nu = nu
        if len(P) < 2:
            raise ValidationError("an implicit problem needs at least P_0 and P_1")
        if nu < 0:
            raise ValidationError("nu must be non-negative")
        fld = P[1].field
        for i, part in enumerate(P):
            if not isinstance(part, CompSeries) or part.field != fld:
                raise ValidationError(f"P_{i} is not a series over the problem field")
            if part.min_index() < 0:
                raise ValidationError(f"P_{i} has negative indices")
        try:
            fact = factor_unit(P[1])
        except ZeroInput:
            raise NotSolvable("the linear part P_1 is zero") from None
        if fact.shift != nu:
            raise NotSolvable(f"P_1 starts at index {fact.shift}, expected nu = {nu}")
        for j, c in P[0].terms.items():
            if j <= 2 * nu and not c.is_zero():
                raise NotSolvable(f"P_0 has a nonzero coefficient at index {j}")

    @property
    def field(self):
        return self.P[1].field


def solve_implicit(prob, order, xprec=INF):
    """Unique solution z = sum_{i > nu} c_i t^{q^i} and its certificate."""
    nu = prob.nu
    fld = prob.field
    p0, p1 = prob.P[0], prob.P[1]
    u0_inv = p1.coeff(nu).inv()
    bounds = [order, p0.order - nu, p1.order + 1]
    bounds += [pk.order + k * (nu + 1) - nu for k, pk in enumerate(prob.P[2:], start=2)]
    n_eff = int(min(bounds))
    terms = [(k, n, a) for k, pk in enumerate(prob.P) for n, a in pk.terms.items()]

    def step(i, s):
        return (-(u0_inv * s)).frobenius(-nu).truncate(xprec)

    coeffs = _recursion(fld, terms, range(nu + 1, n_eff + 1), nu, step)
    z = CompSeries(fld, coeffs, n_eff)
    return z, growth_certificate(z)


# ---------------------------------------------------------------------------
# additive ODEs


class OdeProblem:
    """d z = sum a_{jk} tau^j (z^{o k}) + sum a_{j0} t^{q^j}, keyed (j, k)."""

    def __init__(self, field, a):
        self.field = field
        self.a = clean = {}
        for (j, k), coef in dict(a).items():
            j, k = int(j), int(k)
            if j < 0 or k < 0:
                raise ValidationError("coefficient indices (j, k) must be >= 0")
            field.check_twist(j, "j")
            field.check_twist(k, "k")
            _coerce_coeff(field, coef, f"a[{j},{k}]")
            if not coef.is_exact_zero():
                clean[(j, k)] = coef


def solve_ode(prob, order, xprec=INF):
    """Unique solution z = sum_{i>=1} c_i t^{q^i} and its certificate."""
    fld = prob.field
    terms = [(k, j, a) for (j, k), a in prob.a.items()]

    def step(i, s):
        if s.is_exact_zero():
            return s  # stays unstored; truncating would make it O(x^xprec)
        return s.frobenius(1).div(bracket(fld, i), prec=xprec + 1).truncate(xprec)

    coeffs = _recursion(fld, terms, range(1, order + 1), -1, step)
    z = CompSeries(fld, coeffs, order)
    return z, growth_certificate(z)


def normalize_time_change(prob):
    """Conjugate by gamma t with gamma = x^e, the smallest integer power
    making every inhomogeneous coefficient a_{j0} integral.

    Every coefficient a_{jk} is scaled by gamma^{q^j - 1/q}; solutions
    transform back through untransform_ode_solution.
    """
    q = prob.field.q
    e = 0
    for (j, k), coef in prob.a.items():
        if k != 0:
            continue
        v = Fraction(coef.valuation_lb())
        if v >= 0:
            continue
        need = math.ceil(-v * q / (q ** (j + 1) - 1))
        e = max(e, need)
    gamma = PerfSeries.x_pow(prob.field, e)
    if e == 0:
        return prob, gamma
    scaled = {
        (j, k): coef.shift_x(Fraction(e * (q ** (j + 1) - 1), q))
        for (j, k), coef in prob.a.items()
    }
    return OdeProblem(prob.field, scaled), gamma


def untransform_ode_solution(zp, gamma):
    """Undo the conjugation: c_i = gamma^{1 - q^i} c'_i, which for
    gamma = x^e shifts the exponents of c'_i by e - e q^i."""
    e, q = gamma.valuation_lb(), Fraction(zp.field.q)
    terms = {i: c.shift_x(e - e * q**i) for i, c in zp.terms.items()}
    return CompSeries(zp.field, terms, zp.order)


# ---------------------------------------------------------------------------
# Riccati-type equations


class RiccatiProblem:
    """d y = lambda (y o y) + P(tau) y + R, solved through the fractional
    leading term y = c t^{1/q} + sum a_n t^{q^n}."""

    def __init__(self, lam, p=(), r=(), branch="zero"):
        self.lam, self.branch = lam, branch
        if not isinstance(lam, PerfSeries):
            raise ValidationError("lambda must be a scalar series")
        fld = lam.field
        floor = Fraction(1, fld.q**2)
        if lam.is_zero():
            raise ValidationError("lambda must be nonzero")
        if lam.valuation_lb() < floor:
            raise ValidationError(f"lambda needs valuation >= {floor}")
        for name, data, k_min in (("p", p, 1), ("r", r, 0)):
            clean = {}
            for k, coef in dict(data).items():
                k = int(k)
                if k < k_min:
                    raise ValidationError(f"{name}_{k} index below {k_min}")
                fld.check_twist(k, f"{name} index")
                _coerce_coeff(fld, coef, f"{name}_{k}")
                if coef.is_exact_zero():
                    continue
                if Fraction(coef.valuation_lb()) < floor:
                    raise ValidationError(f"{name}_{k} needs valuation >= {floor}")
                clean[k] = coef
            setattr(self, name, clean)
        if branch not in ("zero", "nonzero"):
            raise ValidationError("branch must be 'zero' or 'nonzero'")

    @property
    def field(self):
        return self.lam.field


def _residue_root(fld, on_line, r0, a0, b0, q):
    """Lexicographically least nonzero solution of the residue equation
    r0*[0] - a0*w*[1] + b0*w^q*[q] = 0 restricted to the on-line indices.

    Returns a field element, or the extension degree needed when the
    equation has no root in the scalar field.  The candidates are the codes
    of ``FieldConfig._codes()``, in the order of ``elements()``."""
    zero = fld.zero()
    monomials = {i: c for i, c in ((0, r0), (1, -a0), (q, b0)) if i in on_line}
    c0, c1, cq = (monomials.get(i, zero).code for i in (0, 1, q))
    add, mul, frob = fld._ops.add, fld._ops.mul, fld._ops.frob(fld.v) or (lambda c: c)
    for w in fld._codes():
        if w and not add(add(c0, mul(c1, w)), mul(cq, frob(w))):
            return FieldElem(fld, w)
    coeffs = [monomials.get(i, zero) for i in range(q + 1)]
    while coeffs[0].is_zero():
        coeffs = coeffs[1:]  # discard the root w = 0, found by direct search
    return least_factor_degree(coeffs)


def _solve_additive(alpha, beta, rhs, wprec, l, trace=None):
    """The small solution of alpha w - beta w^q = rhs with v(w) >= 0,
    Hensel-lifted to x-adic precision wprec; errors name the Riccati step l.

    alpha must be exact.  Each residue root is kept or dropped by one test:
    whether its residual contracts.  Only that residual is formed; the later
    valuations follow from it, and w is the root plus one twisted division
    of that residual by alpha (see the module docstring).  Every valuation
    and precision is an int in the stored form."""
    fld = alpha.field
    q, scale = fld.q, fld._scale
    stored = lambda s: INF if s._prec is None else s._prec  # a precision in the stored form
    v_alpha, v_beta = alpha._terms[0][0], beta._terms[0][0]
    if rhs.is_zero():
        v_a, v_b = Fraction(v_alpha, scale), Fraction(v_beta, scale)
        return PerfSeries.zero(fld, prec=min(rhs.prec - v_a, (rhs.prec - v_b) / q))
    # stop = max(wprec + v(alpha), q wprec + v(beta)) is stop_n / den stored; grid values meet it at its ceiling
    num, den = wprec.numerator * scale, wprec.denominator
    stop_n = max(num + v_alpha * den, q * num + v_beta * den)
    stop, w_floor, w_off = -(-stop_n // den), num // den, num % den
    v_r = rhs._terms[0][0]
    chord = q * v_alpha - (q - 1) * v_r - v_beta  # v(alpha) against v_r + (v(beta) - v_r)/q
    if chord < 0:  # mu = numerator / divisor
        candidates = [(v_r - v_alpha, 1, (0, 1)), (v_alpha - v_beta, q - 1, (1, q))]
    else:
        candidates = [(v_r - v_beta, q, (0, 1, q) if chord == 0 else (0, q))]
    r0, a0, b0 = (s.leading()[1] for s in (rhs, alpha, beta))
    needed_degree, stalled = None, 0  # stalled: the roots whose residual does not contract
    for mu_n, mu_d, on_line in candidates:
        mu, off = divmod(mu_n, mu_d)
        if mu < 0 or (off and mu_d < q):
            continue  # negative, or a denominator that is no power of p
        root = _residue_root(fld, on_line, r0, a0, b0, q)
        if isinstance(root, int):
            needed_degree = root if needed_degree is None else min(needed_degree, root)
            continue
        w = PerfSeries.x_pow(fld, Fraction(mu_n, mu_d * scale), root)  # raises off the grid
        bwq = beta * w.frobenius(1)
        res = rhs - (alpha * w - bwq)
        res_vals = [res._terms[0][0] if res._terms else stored(res)]
        if res._terms and res_vals[0] < stop:
            # the error e = res / alpha becomes beta e^q / alpha: the map
            # v(e) -> v(beta) - v(alpha) + q v(e) has slope q > 1, so once the
            # first step gains, every later one gains more and v reaches stop
            if (q - 1) * (res_vals[0] - v_alpha) <= v_alpha - v_beta:
                stalled += 1
                continue
            if stop_n % den:  # an off-grid limit fails here, as a division to stop would
                _scaled(fld, Fraction(stop_n + (scale - 2 * v_alpha) * den, den * scale))
            # every iterate, divided out to stop, is known below cut - v(alpha):
            # rhs, the root's beta w^q and 1/alpha (known to stop - 2 v(alpha) + 1,
            # on a dividend of valuation v(alpha) + mu) bound it; as the root
            # contracts, the iterate's own beta w^q is known past the cut
            cut = min(stored(rhs), stored(bwq), stop + scale + mu)
            # w - w_old = res / alpha, so below the cut the next residual,
            # beta (w - w_old)^q, is at v(beta) + q diff, or is zero there
            while res_vals[-1] < min(stop, cut):
                res_vals.append(min(cut, v_beta + q * (res_vals[-1] - v_alpha)))
        if trace is not None:
            residuals = [v if v == INF else Fraction(v, scale) for v in res_vals]
            trace.append({"mu": Fraction(mu_n, mu_d * scale), "residuals": residuals})
        # a residual that is zero only modulo its precision fixes fewer digits
        fixed = res_vals[-1] - v_alpha
        if w_off and fixed > w_floor:
            _scaled(fld, wprec)  # raises: the digits run past an off-grid wprec
        keep = min(w_floor, fixed)
        if keep > res_vals[0] - v_alpha:  # the fixed point of delta = (res + beta delta^q) / alpha
            return w + res._div(alpha, keep - res_vals[0], twist=beta)
        return w._truncate(keep)
    if needed_degree is not None:
        raise NeedsFieldExtension(
            needed_degree,
            f"Riccati step l = {l} (a_{l + 1}): residue equation has no root in the scalar field",
        )
    within = f" within the Hensel bound ({', '.join(['0'] * stalled)} iterations)" if stalled else ""
    raise NonConvergent(
        f"Riccati step l = {l} (a_{l + 1}): no contracting root with non-negative "
        f"valuation{within}; the equation falls outside the certified parameter range"
    )


def solve_riccati(prob, order, xprec=INF, trace=None):
    """Solution data (c, [a_0 ... a_order]) of the fractional-term ansatz;
    the digits are infinitely many, so xprec = INF means DEFAULT_XPREC."""
    fld = prob.field
    q = fld.q
    wprec = Fraction(DEFAULT_XPREC if xprec == INF else xprec) + 4
    lam = prob.lam
    root_bracket = bracket(fld, -1).frobenius(-1)  # [-1]^{1/q}, exact
    if lam.prec == INF and len(lam.terms) == 1:
        lam_inv = lam.inv()  # exact for a monomial
    else:
        lam_inv = lam.inv(prec=wprec)
    c = lam_inv * root_bracket
    a0 = None
    if prob.branch == "nonzero":  # a^{1/q} + a = 0, raised to the q-th power
        root = _residue_root(fld, (1, q), fld.zero(), -fld.one(), fld.one(), q)
        if isinstance(root, int):
            raise NeedsFieldExtension(
                root, "Riccati a_0: no nonzero solution of a^{q-1} = -1 in the scalar residue field"
            )
        a0 = PerfSeries.constant(fld, root)
    terms = [(2, 0, lam)] + [(1, k, p_k) for k, p_k in prob.p.items()]
    terms += [(0, j, r_j) for j, r_j in prob.r.items()]
    scale, minus_one = fld._scale, fld._ops.neg(1)

    def step(i, s):
        # the one term outside the list: p_i c^{q^i}, where c sits at index -1
        c_i = c.frobenius(i)
        if i in prob.p:
            s = s + prob.p[i] * c_i
        # x^{q^l} - x^{1/q^2} in the stored form; root_bracket put 1/q^2 on the grid
        alpha = PerfSeries._make(fld, [(scale // q**2, minus_one), (q ** (i - 1) * scale, 1)], None)
        step_trace = None if trace is None else []
        w = _solve_additive(alpha, lam * c_i, s, wprec, i - 1, trace=step_trace)
        if trace is not None:
            trace.append({"l": i - 1, "steps": step_trace})
        return w.frobenius(1)

    coeffs = _recursion(fld, terms, range(1, order + 1), -1, step, a0)
    return c, [coeffs.get(n, PerfSeries.zero(fld)) for n in range(order + 1)]


def riccati_series(c, a, field):
    """Assemble y = c t^{1/q} + sum a_n t^{q^n} as one composition series."""
    terms = {}
    if not c.is_exact_zero():
        terms[-1] = c
    for n, a_n in enumerate(a):
        terms[n] = a_n
    return CompSeries(field, terms, len(a) - 1)


# ---------------------------------------------------------------------------
# residuals


def _equation_parts(prob):
    """The parts of the problem's equation sum_k P_k o z^{o k} as {k: P_k},
    without the exact-zero ones, and whether the sum equals d z (ODE and
    Riccati) rather than 0 (implicit)."""
    fld = prob.field
    if isinstance(prob, ImplicitProblem):
        parts = dict(enumerate(prob.P))
    elif isinstance(prob, OdeProblem):
        columns = {}
        for (j, k), a_jk in prob.a.items():
            columns.setdefault(k, {})[j] = a_jk
        parts = {k: CompSeries(fld, col) for k, col in columns.items()}
    elif isinstance(prob, RiccatiProblem):
        lam_t = CompSeries.monomial(fld, 0, prob.lam)
        parts = {0: CompSeries(fld, prob.r), 1: CompSeries(fld, prob.p), 2: lam_t}
    else:
        raise ValidationError(f"no residual for problem type {type(prob).__name__}")
    parts = {k: p_k for k, p_k in parts.items() if not p_k.is_exact_zero()}
    return parts, not isinstance(prob, ImplicitProblem)


def residual(prob, candidate, order):
    """Left-hand side minus right-hand side of the problem's equation,
    evaluated at the candidate and truncated to the given order.  A
    candidate solves the problem modulo the order exactly when every
    coefficient of the residual is zero."""
    parts, differential = _equation_parts(prob)
    powers = candidate.powers(max(parts, default=0), order)
    terms = (p_k if k == 0 else p_k.compose(powers[k], order) for k, p_k in parts.items())
    total = sum(terms, CompSeries.zero(prob.field))
    return (carlitz_d(candidate) - total if differential else total).truncate(order)
