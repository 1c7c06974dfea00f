"""Carlitz brackets, twist operators, and the Carlitz derivative.

The bracket [k] = x^{q^k} - x vanishes at k = 0 and has valuation 1 for
k >= 1; negative k gives fractional exponents (for example [-1] has
valuation 1/q).  Its q-th root is again a two-term expression because
(x^{q^{k}} - x)^{1/q} = x^{q^{k-1}} - x^{1/q}.

On composition series, tau_j is pre-composition with t^{q^j}: indices shift
up by j and coefficients are twisted by the q^j-power Frobenius.  The
difference operator sends u to u(x t) - x u(t), which acts diagonally as
c_k -> [k] c_k, and the Carlitz derivative is its q-th root

    d(c_k t^{q^k}) = ([k] c_k)^{1/q} t^{q^{k-1}},

an F_q-linear map that lowers the order marker by one.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import PerfSeries, _scaled
from .series import CompSeries


def bracket(field, k):
    """[k] = x^{q^k} - x as an exact scalar series, built in the stored form."""
    field.check_twist(k, "k")
    if k == 0:
        return PerfSeries.zero(field)
    scale, minus_one = field._scale, field._ops.neg(1)
    if k > 0:
        return PerfSeries._make(field, [(scale, minus_one), (field.q**k * scale, 1)], None)
    n, r = divmod(scale, field.q**-k)
    if r:
        _scaled(field, Fraction(1, field.q**-k))  # raises off the grid
    return PerfSeries._make(field, [(n, 1), (scale, minus_one)], None)


def tau_power(u, j):
    """t^{q^j} o u; negative j applies the formal q^{|j|}-th root twist."""
    u.field.check_twist(j, "j")
    if j == 0:
        return u
    return CompSeries(
        u.field, {k + j: c.frobenius(j) for k, c in u.terms.items()}, u.order + j
    )


def carlitz_delta(u):
    """u(x t) - x u(t); multiplies the k-th coefficient by [k]."""
    terms = {k: bracket(u.field, k) * c for k, c in u.terms.items()}
    return CompSeries(u.field, terms, u.order)


def carlitz_d(u):
    """tau^{-1} o delta, the q-th root of the difference operator; drops the order by one."""
    return tau_power(carlitz_delta(u), -1)
