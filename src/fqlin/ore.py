"""Units, left common multiples, and fraction normal forms.

Under composition the series with an invertible coefficient at index 0 are
exactly the units; every nonzero series splits as c = u o t^{q^m} with u a
unit and m the index of the first nonzero coefficient, because
post-composition with t^{q^m} shifts indices plainly.  The inverse v of a
unit u solves v o u = t, which is triangular in the index:

    v_l = (delta_{l0} - sum_{n<l} v_n u_{l-n}^{q^n}) (u_0^{q^l})^{-1},

so u^{-1} is the cofactor a' of the Ore pair (t, u) below, computed by the
same right division.

Any two nonzero series a, b admit a common left multiple

    a' o b = t^{q^L} o a,      L = max(0, l - m),

with m, l the first nonzero indices of a and b: the right-hand side starts
at index m + L >= l, and dividing by b from the right solves ascending
index by index since the first coefficient of b is invertible.  This is
the Ore condition that makes left fractions denom^{-1} o numer composable.
A fraction is reported in the normal form (shift, series) meaning that
denom^{-1} o numer equals the formal q^shift-th root twist applied to the
series, obtained from the unit part of the denominator.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    NotAUnit,
    PrecisionExhausted,
    ValidationError,
    ZeroDenominator,
    ZeroInput,
)
from .carlitz import tau_power
from .fields import INF, twisted_sum
from .series import CompSeries


UnitFactorization = namedtuple("UnitFactorization", "shift unit")


class OreFraction:
    """Left fraction denom^{-1} o numer."""

    def __init__(self, denom, numer):
        if denom.field != numer.field:
            raise ValidationError("fraction parts over different fields")
        if denom.is_exact_zero():
            raise ZeroDenominator("fraction with zero denominator")
        self.denom, self.numer = denom, numer

    def __repr__(self):
        return f"OreFraction(denom={self.denom!r}, numer={self.numer!r})"


class FractionNormalForm(namedtuple("FractionNormalForm", "shift series")):
    """The fraction equals the q^shift-th root twist applied to ``series``."""

    __slots__ = ()

    def meromorphic(self):
        """t^{q^{-shift}} o series as one twisted Laurent series; applies
        inverse Frobenius to the coefficients."""
        return tau_power(self.series, -self.shift)


def _leading(c, what):
    """First possibly-nonzero index and its coefficient, which must be
    certifiably nonzero and sit at a non-negative index."""
    if c.is_exact_zero():
        raise ZeroInput(f"{what} is the zero series")
    m = c.min_index()
    if m < 0:
        raise ValidationError(f"{what} has a negative leading index {m}")
    lead = c.terms.get(m)
    if lead is None or lead.is_zero():
        raise PrecisionExhausted(
            f"first nonzero index of {what} is not determined at this precision"
        )
    return m, lead


def factor_unit(c):
    """Split c = unit o t^{q^shift} off the first nonzero coefficient."""
    m, _ = _leading(c, "factorization input")
    unit = CompSeries(c.field, {k - m: v for k, v in c.terms.items()}, c.order - m)
    return UnitFactorization(shift=m, unit=unit)


def invert_unit(u, order=INF, xprec=INF):
    """Compositional inverse of a unit, with coefficients up to ``order``."""
    m, _ = _leading(u, "unit")
    if m != 0:
        raise NotAUnit(f"first nonzero coefficient sits at index {m}, not 0")
    inv, _ = ore_left_multiple(CompSeries.identity(u.field), u, order)
    return inv.truncate_x(xprec)


def ore_left_multiple(a, b, order=INF):
    """Cofactors (a', b') with a' o b = b' o a and b' = t^{q^L}.

    ``order`` caps the index range of a'; with exact inputs it is required,
    otherwise the cap defaults to what the input orders determine.
    """
    if a.field != b.field:
        raise ValidationError("mixed-field Ore construction")
    m, _ = _leading(a, "first Ore input")
    l, beta = _leading(b, "second Ore input")
    shift = max(0, l - m)
    k0 = m + shift - l
    cap = min(order, a.order + shift - l, b.order + k0 - l)
    if cap == INF:
        raise ValidationError("an exact input needs an order cap (--order)")
    cap = int(cap)
    beta_inv = beta.inv()
    target = tau_power(a, shift)
    quot = {}
    for k in range(k0, cap + 1):
        known = [(qi, b.terms[k + l - i], i) for i, qi in quot.items() if k + l - i in b.terms]
        s = target.coeff(k + l) - twisted_sum(a.field, known)
        if s.is_exact_zero():
            continue
        quot[k] = s * beta_inv.frobenius(k)
    a_prime = CompSeries(a.field, quot, cap)
    b_prime = CompSeries.monomial(a.field, shift)
    return a_prime, b_prime


def fraction_normalize(f, order=INF, xprec=INF):
    """Normal form of denom^{-1} o numer: a root twist and a single series."""
    fact = factor_unit(f.denom)
    inv = invert_unit(fact.unit, order=order)
    series = inv.compose(f.numer, order).truncate_x(xprec)
    return FractionNormalForm(shift=fact.shift, series=series)
