"""The dense-polynomial layer over the residue field.

``least_factor_degree`` decides both the irreducibility of residue-field
moduli and the extension degree a residue equation needs.  Its oracle is
sympy's finite-field polynomial toolkit, which shares no code with fqlin.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_irreducible_p, gf_sqf_p

from fqlin import FieldConfig
from fqlin.fields import least_factor_degree
from fqlin.solvers import _residue_root

from conftest import F2, F3

PRIME_FIELDS = {p: FieldConfig(p=p) for p in (2, 3, 5, 7)}


def poly(cfg, coeffs):
    """FieldElem coefficient list, constant first."""
    return [cfg.elem(c) for c in coeffs]


@pytest.mark.parametrize(
    "cfg, coeffs, degree",
    [
        (F3, [-1, -1, 0, 1], 3),  # w^3 - w - 1: no root in F_3, splits in F_27
        (F2, [1, 1, 0, 0, 1], 4),  # w^4 + w + 1 is irreducible
        (F2, [1, 0, 0, 0, 1, 1], 2),  # (w^2 + w + 1)(w^3 + w + 1)
    ],
)
def test_least_factor_degree(cfg, coeffs, degree):
    assert least_factor_degree(poly(cfg, coeffs)) == degree


def test_residue_root_reports_the_needed_degree():
    # -1 - w + w^3 = 0 on the full Newton-polygon line over F_3
    one = F3.one()
    assert _residue_root(F3, (0, 1, 3), -one, one, one, 3) == 3


@st.composite
def monic_polys(draw):
    p = draw(st.sampled_from(sorted(PRIME_FIELDS)))
    degree = draw(st.integers(1, 6))
    lower = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return p, lower + [1]


@given(monic_polys())
@settings(max_examples=300, deadline=None)
def test_matches_sympy(case):
    p, coeffs = case
    d = least_factor_degree(poly(PRIME_FIELDS[p], coeffs))
    dense = [ZZ(c) for c in reversed(coeffs)]  # sympy lists lead first
    assert (d == len(coeffs) - 1) == gf_irreducible_p(dense, p, ZZ)
    if gf_sqf_p(dense, p, ZZ):
        assert d == min(k for _, k in gf_ddf_zassenhaus(dense, p, ZZ))
