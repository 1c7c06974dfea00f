"""F_q-linear series and their twisted composition.

A composition series is a finite F_q-linear combination u = sum c_k t^{q^k}
with coefficients in the perfected scalar field, plus an order marker:
``order`` = N means the coefficients at indices 0..N are accounted for and
anything at index N+1 and beyond is unknown, so u is carried modulo
O(t^{q^{N+1}}); ``order`` = INF marks an exact series.  Order arithmetic
absorbs INF: the exact zero has ``min_index()`` INF, so composing with it
gives the exact zero, and an exact series has tail bound INF.

Composition twists coefficients by the q-power Frobenius,

    (a o b)_l  =  sum_{n+j=l} a_n * b_j^{q^n},

which makes the identity t a two-sided unit and keeps both distributive
laws.  Negative indices are allowed: t^{q^{-j}} stands for the q^j-th root
twist, available because the scalars are perfected.  Exact zero
coefficients are never stored; zero-to-x-precision coefficients are kept
because they still carry information.

Each such coefficient, and each entry M_k[m] of the power table below, is
one twisted sum of products (``fields.twisted_sum``), accumulated in one
pass and cut at its precision.

A growth certificate for u is the number kappa >= 0 with
v(c_k) >= -kappa * q^k for every known coefficient.  Evaluation at a point
t0 with v(t0) > kappa then converges, and cutting the sum after index N
leaves a tail of valuation at least q^{N+1} * (v(t0) - kappa).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import OutsideConvergenceDomain, ValidationError
from .fields import INF, PerfSeries, twisted_sum


class CompSeries:
    """Finite sum of c_k t^{q^k} known up to index ``order``."""

    __slots__ = ("field", "terms", "order")

    def __init__(self, field, terms, order=INF):
        if order != INF:
            order = int(order)
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for k, coef in items:
            k = int(k)
            if not isinstance(coef, PerfSeries) or (coef.field is not field and coef.field != field):
                raise ValidationError("coefficients must be series over the same field")
            if k > order:
                continue
            if k in clean:
                coef = clean[k] + coef
            clean[k] = coef
        self.field = field
        self.terms = {k: c for k, c in sorted(clean.items()) if not c.is_exact_zero()}
        self.order = order

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field, order=INF):
        return cls(field, {}, order)

    @classmethod
    def identity(cls, field):
        return cls(field, {0: PerfSeries.one(field)})

    @classmethod
    def monomial(cls, field, k, coef=None):
        if coef is None:
            coef = PerfSeries.one(field)
        elif not isinstance(coef, PerfSeries):
            coef = PerfSeries.constant(field, coef)
        return cls(field, {k: coef})

    # -- structure ------------------------------------------------------------

    def coeff(self, k):
        c = self.terms.get(k)
        return PerfSeries.zero(self.field) if c is None else c

    def min_index(self):
        """Smallest index whose coefficient might be nonzero; INF for the
        exact zero."""
        return min(self.terms) if self.terms else self.order + 1

    def is_zero(self):
        return not self.terms

    def is_exact_zero(self):
        return not self.terms and self.order == INF

    def _check(self, other):
        if not isinstance(other, CompSeries) or (other.field is not self.field and other.field != self.field):
            raise ValidationError("mixed-field composition arithmetic")

    # -- additive structure ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        order = min(self.order, other.order)
        merged = dict(self.terms)
        for k, c in other.terms.items():
            merged[k] = merged[k] + c if k in merged else c
        return CompSeries(self.field, merged, order)

    def __neg__(self):
        return CompSeries(
            self.field, {k: -c for k, c in self.terms.items()}, self.order
        )

    def __sub__(self, other):
        return self + (-other)

    # -- composition ----------------------------------------------------------

    def compose(self, other, order=INF):
        """self o other, cut at ``order``: the same series as
        ``self.compose(other).truncate(order)``, without forming the
        coefficients above the cut.  Each coefficient is one twisted sum."""
        self._check(other)
        order = min(order, self.order + other.min_index(), other.order + self.min_index())
        sums = {}  # l -> the triples (a_n, b_j, n) with n + j = l
        for n, a_n in self.terms.items():
            for j, b_j in other.terms.items():
                if n + j > order:
                    break  # the indices of other ascend
                sums.setdefault(n + j, []).append((a_n, b_j, n))
        fld = self.field
        return CompSeries(fld, {l: twisted_sum(fld, triples) for l, triples in sums.items()}, order)

    def powers(self, top, order=INF):
        """[self^{o 0}, ..., self^{o top}] as one chain with self outermost,
        self^{o k} cut at order + m (top - k), m = -min_index() if that is
        negative and 0 otherwise: the highest index that a sum of
        P_k o self^{o k} (min_index(P_k) >= 0) cut at ``order`` reads.  The
        cut drops no coefficient and moves no order marker of that sum;
        order = INF cuts nothing."""
        self.field.check_twist(top, "k")
        low = self.min_index()
        margin = -low if low < 0 else 0
        chain = [CompSeries.identity(self.field)]
        for k in range(1, top + 1):
            cut = order + margin * (top - k)
            chain.append(self.truncate(cut) if k == 1 else self.compose(chain[-1], cut))
        return chain

    def self_power(self, k):
        """k-fold composition of self with itself (k >= 0)."""
        if k < 0:
            raise ValidationError("compositional power must be non-negative")
        return self.powers(k)[-1]

    # -- truncation and evaluation ---------------------------------------------

    def truncate(self, order):
        if order >= self.order:
            return self
        return CompSeries(self.field, self.terms, int(order))

    def truncate_x(self, xprec):
        """Truncate every coefficient to the given x-adic precision."""
        return CompSeries(
            self.field,
            {k: c.truncate(xprec) for k, c in self.terms.items()},
            self.order,
        )

    def eval_at(self, t0, cert=None):
        """Evaluate at a scalar point inside the convergence domain.

        The result precision accounts both for coefficient x-precision and
        for the certified tail bound q^{order+1} * (v(t0) - kappa), which is
        INF for an exact series.
        """
        if not isinstance(t0, PerfSeries) or t0.field != self.field:
            raise ValidationError("evaluation point must be a scalar series")
        if cert is None:
            cert = growth_certificate(self)
        if t0.is_exact_zero():
            return PerfSeries.zero(self.field)
        vt0 = t0.valuation_lb()
        if vt0 <= cert.kappa:
            detail = " (valuation known only as a bound)" if t0.is_zero() else ""
            raise OutsideConvergenceDomain(
                f"v(t0) = {vt0} is not above kappa = {cert.kappa}{detail}"
            )
        total = twisted_sum(self.field, [(c_k, t0, k) for k, c_k in self.terms.items()])
        tail = Fraction(self.field.q) ** (self.order + 1) * (vt0 - cert.kappa)
        return total.truncate(min(total.prec, tail))

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CompSeries)
            and other.field == self.field
            and other.terms == self.terms
            and other.order == self.order
        )

    def __repr__(self):
        body = " + ".join(f"({c!r})*t^[q^{k}]" for k, c in self.terms.items()) or "0"
        tail = "" if self.order == INF else f" + O(t^[q^{self.order + 1}])"
        return f"<CompSeries {body}{tail}>"


# ---------------------------------------------------------------------------
# growth certificates


# kappa bounds coefficient decay: v(c_k) >= -kappa q^k for k <= order, an int,
# or INF when every coefficient is accounted for
GrowthCertificate = namedtuple("GrowthCertificate", "kappa order")


def growth_certificate(u):
    q = u.field.q
    kappa = Fraction(0)
    for k, c in u.terms.items():
        bound = -Fraction(c.valuation_lb()) / Fraction(q) ** k
        if bound > kappa:
            kappa = bound
    return GrowthCertificate(kappa=kappa, order=u.order)


# ---------------------------------------------------------------------------
# multinomial coefficients of compositional powers


class _PowerTable:
    """M_k[m], the index-m coefficient of z^{o k} for z = sum_{n>=lo} c_n t^{q^n},
    with c_n read from the live table ``coeffs``; the lowest index lo is 1,
    or 0 when the solver seeds c_0.  M_0 = t, M_1[m] = c_m and, for k >= 2
    (z outermost), M_k[m] = sum_{n>=lo} c_n * M_{k-1}[m-n]^{q^n}, one
    ``twisted_sum``, which reads c_n for n <= m - (k-1) lo only.  Entries
    with k >= 2 are kept once computed, so each must involve only c_n
    already in ``coeffs`` when first asked for.  M_1 is ``coeffs`` itself,
    where a solver adds its unknown, and is never cached."""

    def __init__(self, field, coeffs, lo):
        self.field = field
        self.coeffs = coeffs
        self.lo = lo
        self.kept = {}  # (k, m) -> M_k[m] for k >= 2
        self.zero = PerfSeries.zero(field)
        self.one = PerfSeries.one(field)

    def get(self, k, m):
        if k == 0:
            return self.one if m == 0 else self.zero
        if k == 1:
            return self.coeffs.get(m, self.zero)
        entry = self.kept.get((k, m))
        if entry is None:
            triples = []
            for n in range(self.lo, m - (k - 1) * self.lo + 1):
                c_n = self.coeffs.get(n)
                if c_n is not None:
                    triples.append((c_n, self.get(k - 1, m - n), n))
            entry = self.kept[k, m] = twisted_sum(self.field, triples)
        return entry


def multinomial_coeff(l, k, coeffs, field):
    """Coefficient at index l of z^{o k} for z = sum_{n>=lo} c_n t^{q^n}, with
    lo = 0 when ``coeffs`` holds c_0 and 1 otherwise (exact zero for k < 1
    or l < k lo), from a one-shot _PowerTable.  Only c_n with
    n <= l - (k-1) lo are read, so a partially known ``coeffs`` is safe."""
    lo = 0 if 0 in coeffs else 1
    if k < 1 or l < k * lo:
        return PerfSeries.zero(field)
    return _PowerTable(field, coeffs, lo).get(k, l)
