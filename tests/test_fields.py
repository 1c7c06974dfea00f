"""Residue field and perfected-series arithmetic.

The residue-field oracle is sympy's finite-field polynomial toolkit
(``gf_add``, ``gf_mul``, ``gf_rem``, ``gf_pow_mod``) on coordinate vectors,
which shares no code with fqlin.fields.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_pow_mod, gf_rem, gf_strip

from fqlin import (
    DivisionByZero,
    FieldConfig,
    FieldElem,
    INF,
    KernelError,
    PerfSeries,
    PerfectionDepthExceeded,
    PrecisionExhausted,
    ValidationError,
)
from fqlin.fields import DEFAULT_XPREC, twisted_sum
from fqlin.jsonio import decode_exp, encode_exp
from fqlin.textio import parse_series

from conftest import F2, F3, F4, F4_OVER_F2, F8, F9, SMALL_FIELDS, elems, exponents, perf_series


def gf_dense(coords):
    """sympy's dense form (leading coefficient first) of a coordinate vector."""
    return gf_strip([ZZ(c) for c in reversed(coords)])


def gf_coords(cfg, f):
    """The coordinate vector (constant first) of a sympy polynomial of degree
    below the field's."""
    coords = [int(c) % cfg.p for c in reversed(f)]
    return tuple(coords + [0] * (cfg.degree - len(coords)))


def oracle_mul(cfg, a_coords, b_coords):
    """Product of coordinate vectors, reduced mod the modulus, by sympy."""
    prod = gf_mul(gf_dense(a_coords), gf_dense(b_coords), cfg.p, ZZ)
    return gf_coords(cfg, gf_rem(prod, gf_dense(cfg.modulus), cfg.p, ZZ))


def code_of(cfg, coords):
    """The documented int code: coordinates base p, constant least significant."""
    return sum(c * cfg.p**i for i, c in enumerate(coords))


# -- residue field ----------------------------------------------------------


def test_default_moduli_are_lexicographically_first():
    assert F2.modulus == (0, 1)
    assert F3.modulus == (0, 1)
    assert F4.modulus == (1, 1, 1)
    assert F8.modulus == (1, 0, 1, 1)
    assert F9.modulus == (1, 0, 1)
    assert FieldConfig(p=5, v=2).modulus == (1, 1, 1)
    assert FieldConfig(p=101, v=4).modulus == (1, 0, 0, 1, 1)
    assert FieldConfig(p=7, v=2, s=4).modulus == (1, 0, 0, 0, 0, 0, 1, 2, 1)


def test_bad_configs_rejected():
    with pytest.raises(ValidationError):
        FieldConfig(p=4)
    with pytest.raises(ValidationError):
        FieldConfig(p=2, v=0)
    with pytest.raises(ValidationError):
        FieldConfig(p=2, v=2, modulus=(1, 0, 1))  # (1+g)^2 over F_2
    with pytest.raises(ValidationError):
        FieldConfig(p=2, v=2, modulus=(1, 1, 1, 1))  # wrong degree


def test_field_and_twist_bounds():
    # at most 2^32 elements, refused before the primality test or the modulus search
    for kwargs in ({"p": 1000000000000000003}, {"p": 2, "s": 300}, {"p": 2, "v": 129}, {"p": 65537, "v": 2}):
        with pytest.raises(ValidationError, match="more than 2"):
            FieldConfig(**kwargs)
    assert FieldConfig(p=65537).order == 65537
    # q^|k| <= 2^1024
    for cfg, bound in ((F2, 1024), (F3, 646), (F4, 512), (FieldConfig(p=65537), 63)):
        assert cfg.max_twist == bound
        cfg.check_twist(-bound, "k")
        with pytest.raises(ValidationError, match=rf"needs \|k\| <= {bound}"):
            cfg.check_twist(bound + 1, "k")


def test_f4_generator_table():
    g = F4.gen()
    assert (g * g).coords == (1, 1)  # g^2 = g + 1
    assert (g * g * g).coords == (1, 0)
    assert g.inverse() == g * g
    assert g.pow_p(1) == g * g
    assert g.pow_p(2) == g


def test_f9_generator_is_square_root_of_minus_one():
    g = F9.gen()
    assert g * g == F9.elem(-1)
    assert g ** 4 == F9.one()
    assert g.pow_p(1) == g ** 3


@given(st.data())
@settings(max_examples=200)
def test_mul_matches_oracle(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(elems(cfg))
    b = data.draw(elems(cfg))
    assert (a * b).coords == oracle_mul(cfg, a.coords, b.coords)


@given(st.data())
@settings(max_examples=200)
def test_field_axioms(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(elems(cfg))
    b = data.draw(elems(cfg))
    c = data.draw(elems(cfg))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == cfg.zero()
    assert a * cfg.one() == a


@given(st.data())
@settings(max_examples=200)
def test_inverse_multiplies_back(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(elems(cfg, nonzero=True))
    assert a * a.inverse() == cfg.one()
    assert a.inverse().inverse() == a


@given(st.data())
@settings(max_examples=200)
def test_frobenius_is_additive_and_periodic(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(elems(cfg))
    b = data.draw(elems(cfg))
    assert (a + b).pow_p(1) == a.pow_p(1) + b.pow_p(1)
    assert (a * b).pow_p(1) == a.pow_p(1) * b.pow_p(1)
    assert a.pow_p(1) == a ** cfg.p
    assert a.pow_p(cfg.degree) == a
    assert a.pow_p(1).pow_p(-1) == a


def test_inverse_of_zero_raises():
    # a table's inverse of the code 0 is garbage, so FieldElem must refuse it
    for cfg in (F2, F4, F9, F2_16, F7_8):
        with pytest.raises(DivisionByZero):
            cfg.zero().inverse()
        with pytest.raises(DivisionByZero):
            cfg.zero() ** -1


def test_elements_enumeration_and_subfield():
    assert [e.coords for e in F4.elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    big = FieldConfig(p=2, v=1, s=2)
    sub = [e for e in big.elements() if e.pow_p(big.v) == e]
    assert len(sub) == 2  # F_2 inside F_4
    assert all(e * e == e for e in sub)


# -- the int-code arithmetic against sympy -------------------------------------
#
# Every residue-field element is an int code with the field's arithmetic
# (FieldConfig._ops): residues mod p, log/Zech tables up to order 2^16 and
# slot-packed coordinates above.  FieldElem runs on the same codes, so both
# are checked against sympy's galoistools on the coordinates.

F2_16 = FieldConfig(p=2, v=16)  # the largest table field
F7_8 = FieldConfig(p=7, v=8)  # above the cut-off: slot-packed coordinates
F2_20 = FieldConfig(p=2, v=20)
PRIMES_TO_81 = [p for p in range(2, 82) if all(p % d for d in range(2, p))]
CODED_FIELDS = [FieldConfig(p=p, v=v) for p in PRIMES_TO_81 for v in range(1, 7) if p**v <= 81]
CODED_FIELDS += [F4_OVER_F2, FieldConfig(p=3, v=2, modulus=(2, 1, 1)), F2_16, F7_8]


def test_codes_round_trip_on_small_fields():
    for cfg in CODED_FIELDS[:-2]:
        codes = [e.code for e in cfg.elements()]
        assert sorted(codes) == list(range(cfg.order))
        for c, e in zip(codes, cfg.elements()):
            assert FieldElem(cfg, c) == e and code_of(cfg, e.coords) == c
        assert cfg.zero().code == 0 and cfg.one().code == 1


@pytest.mark.parametrize("cfg", CODED_FIELDS + [F2_20], ids=lambda cfg: f"F{cfg.p}^{cfg.degree}")
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_code_ops_match_coordinate_arithmetic(cfg, data):
    a, b = data.draw(elems(cfg)), data.draw(elems(cfg))
    p, n, ops = cfg.p, cfg.degree, cfg._ops
    ca, cb = a.code, b.code
    assert ca == code_of(cfg, a.coords) and 0 <= ca < cfg.order and bool(a) == bool(ca)
    fa, fb, mod = gf_dense(a.coords), gf_dense(b.coords), gf_dense(cfg.modulus)
    want = {
        "add": gf_coords(cfg, gf_add(fa, fb, p, ZZ)),
        "neg": gf_coords(cfg, gf_neg(fa, p, ZZ)),
        "mul": oracle_mul(cfg, a.coords, b.coords),
    }
    got = {"add": ops.add(ca, cb), "neg": ops.neg(ca), "mul": ops.mul(ca, cb)}
    assert got == {op: code_of(cfg, coords) for op, coords in want.items()}
    assert ((a + b).coords, (-a).coords, (a * b).coords) == (want["add"], want["neg"], want["mul"])
    assert (a - b) + b == a
    if ca:
        one = gf_coords(cfg, [1])
        assert oracle_mul(cfg, a.coords, a.inverse().coords) == one
        assert ops.inv(ca) == a.inverse().code and (a ** -1).code == ops.inv(ca)
    for k in range(-1, n + 1):
        image = gf_coords(cfg, gf_pow_mod(fa, p ** (k % n), mod, p, ZZ))
        frob = ops.frob(k)
        assert (ca if frob is None else frob(ca)) == code_of(cfg, image)
        assert a.pow_p(k).coords == image
    assert (a**p).coords == gf_coords(cfg, gf_pow_mod(fa, p, mod, p, ZZ))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_series_coefficients_leave_as_field_elements(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4, F9, F2_16, F7_8]))
    pairs = data.draw(st.lists(st.tuples(exponents(cfg, depth=1), elems(cfg)), max_size=5))
    a = PerfSeries(cfg, pairs)
    ref = {}
    for e, c in pairs:
        ref[e] = ref[e] + c if e in ref else c
    want = tuple((e, ref[e]) for e in sorted(ref) if not ref[e].is_zero())
    assert a.terms == want
    assert all(type(c) is FieldElem and c.field is cfg for _, c in a.terms)
    assert a.leading() == (want[0] if want else None)
    assert all(a.coeff(e) == c for e, c in ref.items())
    # the same value with the terms reversed and one coefficient split in two
    extra = data.draw(elems(cfg))
    split = [(e, c - extra) for e, c in pairs[:1]] + [(e, extra) for e, _ in pairs[:1]]
    b = PerfSeries(cfg, pairs[:0:-1] + split)
    assert a == b and hash(a) == hash(b)
    assert b.terms == want


# -- perfected exponents ----------------------------------------------------


def test_perf_exp_round_trip():
    assert encode_exp(Fraction(3, 4), 2) == {"num": 3, "den_exp": 2}
    assert decode_exp({"num": 3, "den_exp": 2}, 2) == Fraction(3, 4)
    assert encode_exp(6, 3) == {"num": 6, "den_exp": 0}
    assert decode_exp({"num": 6, "den_exp": 0}, 3) == 6
    with pytest.raises(ValidationError):
        encode_exp(Fraction(1, 6), 2)
    with pytest.raises(ValidationError):
        PerfSeries.x_pow(F2, Fraction(1, 6))
    with pytest.raises(ValidationError):
        decode_exp({"num": 1, "den_exp": -1}, 2)
    depth2 = FieldConfig(p=2, perf_depth=2)
    assert PerfSeries.x_pow(depth2, Fraction(3, 4)).terms[0][0] == Fraction(3, 4)
    with pytest.raises(PerfectionDepthExceeded):
        PerfSeries.x_pow(depth2, Fraction(1, 8))


def test_series_rejects_deep_exponents():
    shallow = FieldConfig(p=2, perf_depth=1)
    PerfSeries(shallow, [(Fraction(1, 2), shallow.one())])
    with pytest.raises(PerfectionDepthExceeded):
        PerfSeries(shallow, [(Fraction(1, 4), shallow.one())])
    with pytest.raises(ValidationError):
        PerfSeries(F2, [(Fraction(1, 3), F2.one())])


# -- perfected series -------------------------------------------------------


def test_series_normalization():
    a = PerfSeries(F2, [(Fraction(1), F2.one()), (Fraction(1), F2.one())])
    assert a.is_zero() and a.prec == INF
    b = PerfSeries(F2, [(Fraction(5), F2.one())], prec=3)
    assert b.is_zero() and b.prec == 3
    c = PerfSeries(F3, [(Fraction(2), F3.elem(1)), (Fraction(0), F3.elem(2))])
    assert [e for e, _ in c.terms] == [0, 2]


def test_inv_golden_geometric_series():
    a = PerfSeries(F2, [(Fraction(0), F2.one()), (Fraction(1), F2.one())])
    inv = a.inv(prec=4)
    assert [(e, c.coords) for e, c in inv.terms] == [
        (0, (1,)), (1, (1,)), (2, (1,)), (3, (1,))
    ]
    assert inv.prec == 4
    assert (a * inv).terms == PerfSeries.one(F2).truncate(4).terms

    b = PerfSeries(F3, [(Fraction(0), F3.one()), (Fraction(1), F3.elem(-1))])
    inv3 = b.inv(prec=3)
    assert [(e, c.coords) for e, c in inv3.terms] == [(0, (1,)), (1, (1,)), (2, (1,))]


def test_inv_exact_monomial_stays_exact():
    m = PerfSeries.x_pow(F4, Fraction(3, 2), F4.gen())
    inv = m.inv()
    assert inv.prec == INF
    assert (m * inv) == PerfSeries.one(F4)


def test_inv_exact_multi_term_uses_default_relative_precision():
    a = PerfSeries(F2, [(Fraction(2), F2.one()), (Fraction(3), F2.one())])
    inv = a.inv()
    assert inv.prec == DEFAULT_XPREC - 2 == 30  # relative to the valuation -2
    prod = a * inv
    assert prod.truncate(30) == PerfSeries.one(F2).truncate(30)


def test_inv_precision_failures():
    with pytest.raises(DivisionByZero):
        PerfSeries.zero(F2).inv()
    with pytest.raises(PrecisionExhausted):
        PerfSeries.zero(F2, prec=5).inv()
    with pytest.raises(PrecisionExhausted):
        PerfSeries.x_pow(F2, 2).inv(prec=-2)


def test_precision_propagation_rules():
    a = PerfSeries(F2, [(Fraction(0), F2.one())], prec=2)
    b = PerfSeries(F2, [(Fraction(1), F2.one())], prec=5)
    assert (a + b).prec == 2
    assert (a * b).prec == 3  # min(2 + 1, 5 + 0)
    c = PerfSeries(F2, [(Fraction(-1), F2.one()), (Fraction(0), F2.one())], prec=4)
    assert c.inv().prec == 4 - 2 * (-1)


def test_frobenius_golden_bracket_root():
    # ([1])^{1/q} over q = 2: (x^2 - x)^{1/2} = x - x^{1/2}
    br = PerfSeries(F2, [(Fraction(2), F2.one()), (Fraction(1), F2.one())])
    root = br.frobenius(-1)
    assert [(e, c.coords) for e, c in root.terms] == [
        (Fraction(1, 2), (1,)), (Fraction(1), (1,))
    ]
    assert br.frobenius(-1) == root
    assert root.frobenius(1) == br


def test_valuation_reporting():
    # the leading exponent, or the precision bound when no term is known
    a = PerfSeries(F2, [(Fraction(-2), F2.one())], prec=1)
    assert a.valuation_lb() == Fraction(-2) and not a.is_zero()
    z = PerfSeries.zero(F2, prec=3)
    assert z.valuation_lb() == 3 and z.is_zero()
    assert PerfSeries.zero(F2).valuation_lb() == INF and PerfSeries.zero(F2).is_zero()


def test_truncate_and_coeff():
    a = PerfSeries(F3, [(Fraction(0), F3.elem(2)), (Fraction(2), F3.one())])
    t = a.truncate(1)
    assert t.prec == 1 and len(t.terms) == 1
    assert a.coeff(2) == F3.one()
    assert a.coeff(1).is_zero()
    assert a.truncate(INF) == a


@given(st.data())
@settings(max_examples=150)
def test_series_ring_laws_exact(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(perf_series(cfg))
    b = data.draw(perf_series(cfg))
    c = data.draw(perf_series(cfg))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == PerfSeries.zero(cfg)
    assert (a + b) - b == a


@given(st.data())
@settings(max_examples=150)
def test_series_laws_with_precision(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(perf_series(cfg, exact=False))
    b = data.draw(perf_series(cfg, exact=False))
    c = data.draw(perf_series(cfg, exact=False))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    d1 = a * (b + c)
    d2 = a * b + a * c
    m = min(d1.prec, d2.prec)
    assert d1.truncate(m) == d2.truncate(m)


@given(st.data())
@settings(max_examples=150)
def test_series_frobenius_laws(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(perf_series(cfg, exact=False))
    b = data.draw(perf_series(cfg, exact=False))
    fa = a.frobenius(1)
    assert fa.frobenius(-1) == a
    assert (a + b).frobenius(1) == fa + b.frobenius(1)
    assert (a * b).frobenius(1) == fa * b.frobenius(1)
    if a.prec != INF:
        assert fa.prec == a.prec * cfg.q


@given(st.data())
@settings(max_examples=150)
def test_series_valuation_laws(data):
    cfg = data.draw(st.sampled_from(SMALL_FIELDS))
    a = data.draw(perf_series(cfg, nonzero=True))
    b = data.draw(perf_series(cfg, nonzero=True))
    va = a.valuation_lb()
    vb = b.valuation_lb()
    assert (a * b).valuation_lb() == va + vb
    s = a + b
    if not s.is_zero():
        assert s.valuation_lb() >= min(va, vb)


@given(st.data())
@settings(max_examples=100)
def test_inverse_series_multiplies_back(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    a = data.draw(perf_series(cfg, max_terms=3, depth=1, nonzero=True))
    inv = a.inv(prec=Fraction(4) - a.valuation_lb())
    prod = a * inv
    one = PerfSeries.one(cfg)
    m = prod.prec
    assert prod.truncate(m) == one.truncate(m)


def test_scale_and_shift():
    g = F4.gen()
    a = PerfSeries(F4, [(Fraction(0), F4.one()), (Fraction(1), g)], prec=2)
    sh = a.shift_x(Fraction(1, 2))
    assert sh.coeff(Fraction(1, 2)) == F4.one()
    assert sh.prec == Fraction(5, 2)
    # a shift off the exponent grid (F_2 at depth 8) raises unless nothing is shifted
    off_grid = Fraction(1, 2**9)
    assert F2.perf_depth == 8
    with pytest.raises(PerfectionDepthExceeded, match="513/512 needs perfection depth 9"):
        PerfSeries.x_pow(F2, 1).shift_x(off_grid)
    with pytest.raises(PerfectionDepthExceeded, match="needs perfection depth 9"):
        PerfSeries.zero(F2, prec=3).shift_x(off_grid)
    assert PerfSeries.zero(F2).shift_x(off_grid).is_exact_zero()


# -- depth cap of q-th roots --------------------------------------------------


def test_root_respects_the_depth_cap():
    shallow = FieldConfig(p=2, perf_depth=1)
    with pytest.raises(PerfectionDepthExceeded):
        PerfSeries.x_pow(shallow, Fraction(1, 2)).frobenius(-1)
    with pytest.raises(PerfectionDepthExceeded):
        PerfSeries.zero(shallow, prec=Fraction(1, 2)).frobenius(-1)
    # q = 4, depth 16: a root divides the denominator by q, not by p
    assert F4.perf_depth == 16
    root = PerfSeries.x_pow(F4, Fraction(1, 2**14)).frobenius(-1)
    assert root == PerfSeries.x_pow(F4, Fraction(1, 2**16))
    with pytest.raises(PerfectionDepthExceeded):
        PerfSeries.x_pow(F4, Fraction(1, 2**15)).frobenius(-1)


def test_equal_values_are_equal_however_built():
    pairs = [
        (PerfSeries.x_pow(F2, Fraction(2, 4)), PerfSeries.x_pow(F2, Fraction(1, 2))),
        (PerfSeries.x_pow(F3, 3), PerfSeries.x_pow(F3, Fraction(3))),
        (parse_series(F2, "x^{1/2} + O(x^{6/4})"),
         PerfSeries(F2, [(Fraction(1, 2), F2.one())], prec=Fraction(3, 2))),
        # an equal field that is a different object
        (PerfSeries.x_pow(FieldConfig(p=2, v=2), 1, F4.gen()), PerfSeries.x_pow(F4, 1, F4.gen())),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert a.terms == b.terms and a.prec == b.prec
    assert PerfSeries.x_pow(FieldConfig(p=2), 1) * PerfSeries.x_pow(F2, 1) == PerfSeries.x_pow(F2, 2)
    with pytest.raises(ValidationError):
        PerfSeries.one(F2) * PerfSeries.one(F3)
    with pytest.raises(ValidationError):
        PerfSeries.one(F4) + PerfSeries.one(FieldConfig(p=2, v=2, perf_depth=3))
    with pytest.raises(ValidationError):
        F2.one() * F3.one()


# -- series arithmetic against a Fraction-keyed schoolbook reference ----------
#
# A reference value is (terms, prec): a dict exponent -> coefficient with
# Fraction exponents, and a Fraction precision or None for "exact".  The rules
# are the ones in the fields module docstring, applied term by term.


def ref_of(a):
    return dict(a.terms), None if a.prec == INF else a.prec


def ref_normal(terms, prec):
    """The (terms, prec) attributes a series with this content must show."""
    kept = tuple(
        (e, terms[e])
        for e in sorted(terms)
        if not terms[e].is_zero() and (prec is None or e < prec)
    )
    return kept, INF if prec is None else prec


def ref_min(*precs):
    finite = [pr for pr in precs if pr is not None and pr != INF]
    return min(finite) if finite else None


def ref_val(terms, prec):
    live = [e for e, c in terms.items() if not c.is_zero()]
    return min(live) if live else prec


def ref_neg(a):
    ta, pa = a
    return {e: -c for e, c in ta.items()}, pa


def ref_add(a, b):
    (ta, pa), (tb, pb) = a, b
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out[e] + c if e in out else c
    return out, ref_min(pa, pb)


def ref_mul(a, b):
    (ta, pa), (tb, pb) = a, b
    va, vb = ref_val(ta, pa), ref_val(tb, pb)
    left = None if pa is None or vb is None else pa + vb
    right = None if pb is None or va is None else pb + va
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            out[ea + eb] = out[ea + eb] + ca * cb if ea + eb in out else ca * cb
    return out, ref_min(left, right)


def ref_inv(cfg, a, prec):
    """Long division 1 / a, one digit per step, to the precision the rules give."""
    ta, pa = a
    w = min(e for e, c in ta.items() if not c.is_zero())
    c0_inv = ta[w].inverse()
    limit = ref_min(None if pa is None else pa - 2 * w, prec)
    if limit is None:
        limit = DEFAULT_XPREC - w
    digits = {}
    rem = {Fraction(0): cfg.one()}
    while True:
        live = [e for e, c in rem.items() if not c.is_zero()]
        if not live or min(live) - w >= limit:
            return digits, limit
        e_r = min(live)
        d = rem[e_r] * c0_inv
        digits[e_r - w] = d
        for e, c in ta.items():
            key = e_r - w + e
            rem[key] = rem.get(key, cfg.zero()) - d * c


def ref_frobenius(cfg, a, e):
    ta, pa = a
    qe = Fraction(cfg.q) ** e
    return {x * qe: c.pow_p(e * cfg.v) for x, c in ta.items()}, None if pa is None else pa * qe


def ref_shift(a, s):
    ta, pa = a
    return {x + s: c for x, c in ta.items()}, None if pa is None else pa + s


def ref_truncate(a, t):
    ta, pa = a
    return ta, ref_min(pa, t)


def assert_matches(series, ref):
    assert (series.terms, series.prec) == ref_normal(*ref)


@given(st.data())
@settings(max_examples=200)
def test_series_arithmetic_matches_reference(data):
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    a = data.draw(perf_series(cfg, exact=False))
    b = data.draw(perf_series(cfg, exact=False))
    ra, rb = ref_of(a), ref_of(b)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(-a, ref_neg(ra))
    assert_matches(a - b, ref_add(ra, ref_neg(rb)))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a.frobenius(1), ref_frobenius(cfg, ra, 1))
    assert_matches(a.frobenius(-1), ref_frobenius(cfg, ra, -1))
    s = data.draw(exponents(cfg))
    assert_matches(a.shift_x(s), ref_shift(ra, s))
    t = data.draw(exponents(cfg, depth=1, span=8))
    assert_matches(a.truncate(t), ref_truncate(ra, t))
    if not a.is_zero():
        want = data.draw(st.one_of(st.just(INF), exponents(cfg, depth=1, span=8)))
        limit = ref_inv(cfg, ra, want)[1]
        if limit <= -a.terms[0][0]:
            with pytest.raises(PrecisionExhausted):
                a.inv(prec=want)
        elif want == INF and a.prec == INF and len(a.terms) == 1:
            e, c = a.terms[0]
            assert_matches(a.inv(), ({-e: c.inverse()}, None))
        else:
            assert_matches(a.inv(prec=want), ref_inv(cfg, ra, want))
    want = data.draw(st.one_of(st.just(INF), exponents(cfg, depth=1, span=8)))
    if b.is_exact_zero():
        with pytest.raises(DivisionByZero):
            a.div(b, prec=want)
    elif b.is_zero():
        with pytest.raises(PrecisionExhausted):
            a.div(b, prec=want)
    elif ref_inv(cfg, rb, want)[1] <= -b.terms[0][0]:
        with pytest.raises(PrecisionExhausted):
            a.div(b, prec=want)
    elif want == INF and b.prec == INF and len(b.terms) == 1:
        e, c = b.terms[0]
        assert_matches(a.div(b), ref_mul(ra, ({-e: c.inverse()}, None)))
    else:
        assert_matches(a.div(b, prec=want), ref_mul(ra, ref_inv(cfg, rb, want)))


def _outcome(thunk):
    """(terms, prec) of the series thunk() returns, or the error type it raises."""
    try:
        out = thunk()
    except KernelError as exc:
        return type(exc)
    return out.terms, out.prec


@given(st.data())
@settings(max_examples=150)
def test_div_equals_product_with_inverse(data):
    # the Hensel divisors alpha_l = x^{q^l} - x^{1/q^2} and the ODE brackets
    # [i] = x^{q^i} - x, against exact and inexact dividends
    cfg = data.draw(st.sampled_from([F2, F3, F4]))
    q, i = cfg.q, data.draw(st.integers(0, 3))
    low = data.draw(st.sampled_from([Fraction(1, q**2), Fraction(1)]))
    d = PerfSeries(cfg, [(Fraction(q) ** i, cfg.one()), (low, -cfg.one())])
    x = data.draw(perf_series(cfg, max_terms=6, depth=2 * cfg.v, exact=data.draw(st.booleans())))
    off_grid = [Fraction(7, 5), Fraction(5, cfg.p ** (cfg.perf_depth + 1))]
    prec = data.draw(
        st.one_of(st.just(INF), exponents(cfg, depth=2 * cfg.v, span=40), st.sampled_from(off_grid))
    )
    assert _outcome(lambda: x.div(d, prec=prec)) == _outcome(lambda: x * d.inv(prec=prec))


TWIST_FIELDS = [F2, F3, F4, F9, F4_OVER_F2, FieldConfig(p=2, perf_depth=3)]


def _led_series(data, cfg, lead, grid, exact):
    """lead and up to three exponents above it (steps of 1/grid), nonzero
    coefficients; known only to a precision above lead when not exact."""
    nz = elems(cfg, nonzero=True)
    exps = {lead} | {lead + Fraction(k, grid) for k in data.draw(st.lists(st.integers(1, 3 * grid), max_size=3))}
    s = PerfSeries(cfg, [(e, data.draw(nz)) for e in sorted(exps)])
    if not exact:
        s = s + PerfSeries.zero(cfg, prec=lead + Fraction(data.draw(st.integers(1, 4 * grid)), grid))
    return s


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_twisted_div_is_the_fixed_point(data):
    # alpha w = N + beta w^q on the contracting side, v(N) - v(alpha) >
    # (v(alpha) - v(beta)) / (q - 1): the one twisted long division solves
    # the equation modulo w's precision and equals the fixed point of the
    # public div, iterated to that precision
    cfg = data.draw(st.sampled_from(TWIST_FIELDS))
    q, grid = cfg.q, cfg.p ** min(2, cfg.perf_depth)
    nz = elems(cfg, nonzero=True)
    v_alpha = Fraction(data.draw(st.integers(-grid, 2 * grid)), grid)
    # 2-4 terms, so that tail and twist updates interleave in the remainder
    tops = data.draw(st.lists(st.integers(1, 4 * grid), min_size=1, max_size=3, unique=True))
    alpha = PerfSeries(cfg, [(v_alpha + Fraction(k, grid), data.draw(nz)) for k in [0] + tops])
    v_beta = Fraction(data.draw(st.integers(-grid, 2 * grid)), grid)
    beta = _led_series(data, cfg, v_beta, grid, data.draw(st.booleans()))
    bound = (v_alpha - v_beta) / (q - 1)
    v_num = v_alpha + Fraction(math.floor(bound * grid) + data.draw(st.integers(1, 2 * grid)), grid)
    num = _led_series(data, cfg, v_num, grid, data.draw(st.booleans()))
    want = v_num - v_alpha + Fraction(data.draw(st.integers(1, 6 * grid)), grid)
    scale = cfg.p**cfg.perf_depth
    w = num._div(alpha, int((want - v_num) * scale), twist=beta)
    assert w.prec <= want
    defect = alpha * w - beta * w.frobenius(1) - num
    assert defect.is_zero() and defect.prec == w.prec + v_alpha
    fixed = PerfSeries.zero(cfg)
    while True:
        nxt = (num + beta * fixed.frobenius(1)).div(alpha, prec=w.prec - v_num)
        if nxt == fixed:
            break
        fixed = nxt
    assert w == fixed


def test_twisted_div_refuses_a_twist_that_does_not_contract():
    # (q - 1) v(w) = 1 is not above v(alpha) - v(beta) = 1
    alpha = PerfSeries(F2, [(0, F2.one()), (1, F2.one())])
    with pytest.raises(ValidationError, match="does not contract"):
        PerfSeries.x_pow(F2, 1)._div(alpha, 8 * 2**8, twist=PerfSeries.x_pow(F2, -1))


F2_17 = FieldConfig(p=2, s=17)  # 2^17 elements: slot-packed coordinate arithmetic
F3_SHALLOW = FieldConfig(p=3, perf_depth=1)  # a q-th root of x^{1/3} leaves the grid


@given(st.data())
@settings(max_examples=250)
def test_twisted_sum_equals_products_added_left_to_right(data):
    cfg = data.draw(st.sampled_from([F2, F3, F3_SHALLOW, F4, F9, F4_OVER_F2, F2_17]))
    depth = min(2, cfg.perf_depth)
    series = st.one_of(
        perf_series(cfg, depth=depth, exact=True),
        perf_series(cfg, depth=depth, exact=False),
        st.just(PerfSeries.zero(cfg, prec=data.draw(exponents(cfg, depth=depth)))),
    )
    triples = data.draw(
        st.lists(st.tuples(series, series, st.sampled_from([-1, 0, 1, 2, 3])), max_size=4)
    )

    def reference():
        """The products added up left to right by the rules above."""
        total = ({}, None)
        for a, b, e in triples:
            b.frobenius(e)  # raises where a root leaves the exponent grid
            total = ref_add(total, ref_mul(ref_of(a), ref_frobenius(cfg, ref_of(b), e)))
        return total

    try:
        want = reference()
    except KernelError as exc:
        with pytest.raises(type(exc)):
            twisted_sum(cfg, triples)
    else:
        assert_matches(twisted_sum(cfg, triples), want)
