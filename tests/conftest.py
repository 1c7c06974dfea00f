"""Shared field configurations, hypothesis strategies and test oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fqlin import INF, CompSeries, FieldConfig, PerfSeries

F2 = FieldConfig(p=2)
F3 = FieldConfig(p=3)
F4 = FieldConfig(p=2, v=2)
F8 = FieldConfig(p=2, v=3)
F9 = FieldConfig(p=3, v=2)
F4_OVER_F2 = FieldConfig(p=2, v=1, s=2)  # scalars in F_4, q = 2

SMALL_FIELDS = [F2, F3, F4, F9, F4_OVER_F2]


def field_id(cfg):
    """Short test id of a field, e.g. p2v1s2."""
    return f"p{cfg.p}v{cfg.v}s{cfg.s}"


@pytest.fixture(params=SMALL_FIELDS, ids=field_id)
def field(request):
    return request.param


def elems(cfg, nonzero=False):
    coords = st.tuples(*[st.integers(0, cfg.p - 1)] * cfg.degree)
    strat = coords.map(cfg.elem)
    if nonzero:
        strat = strat.filter(lambda e: not e.is_zero())
    return strat


def random_elem(rng, cfg, nonzero=False):
    """An element with coordinates drawn from the seeded ``rng``, drawn again
    while it is zero if ``nonzero``.  The pinned digests of the seeded sweeps
    depend on this draw order."""
    while True:
        e = cfg.elem([rng.randrange(cfg.p) for _ in range(cfg.degree)])
        if not (nonzero and e.is_zero()):
            return e


def exponents(cfg, depth=2, span=6):
    """Exponents in Z[1/p] with denominator at most p^depth."""
    return st.builds(
        lambda n, d: Fraction(n, cfg.p**d),
        st.integers(-span, span),
        st.integers(0, depth),
    )


def assert_cs_close(a, b):
    """No certifiably nonzero coefficient in the difference, up to the
    common order."""
    d = a - b
    for k, c in d.terms.items():
        assert c.is_zero(), f"index {k} differs: {c!r}"


def oracle_multinomial(field, coeffs, k, l):
    """Sum over all compositions l = n_1 + ... + n_k with n_i >= 1 of
    c_{n_1} c_{n_2}^{q^{n_1}} ... c_{n_k}^{q^{n_1+...+n_{k-1}}}, by
    enumeration (independent of ``multinomial_coeff``)."""
    zero = PerfSeries.zero(field)
    total = zero
    for parts in itertools.product(range(1, l - k + 2), repeat=k):
        if sum(parts) != l:
            continue
        prod = PerfSeries.one(field)
        shift = 0
        for n in parts:
            prod = prod * coeffs.get(n, zero).frobenius(shift)
            shift += n
        total = total + prod
    return total


def perf_series(cfg, max_terms=4, depth=2, exact=True, nonzero=False):
    pairs = st.lists(
        st.tuples(exponents(cfg, depth=depth), elems(cfg)),
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    )
    if exact:
        strat = pairs.map(lambda ts: PerfSeries(cfg, ts))
    else:
        prec = st.one_of(st.none(), exponents(cfg, depth=1, span=8))
        strat = st.builds(
            lambda ts, pr: PerfSeries(cfg, ts) if pr is None else PerfSeries(cfg, ts, pr),
            pairs,
            prec,
        )
    if nonzero:
        strat = strat.filter(lambda s: not s.is_zero())
    return strat


def comp_series(cfg, max_terms=3, index_range=(-2, 3), exact=True):
    lo, hi = index_range
    pair = st.tuples(st.integers(lo, hi), perf_series(cfg, max_terms=2, depth=1))
    pairs = st.lists(pair, max_size=max_terms)
    if exact:
        return pairs.map(lambda ts: CompSeries(cfg, ts))
    order = st.one_of(st.just(INF), st.integers(lo, hi + 1))
    return st.builds(lambda ts, o: CompSeries(cfg, ts, o), pairs, order)
