"""Outputs over table-sized and large residue fields, pinned by digest.

One fixed, seeded computation per field (long and short series products,
sums, division, inversion, both Frobenius twists, element products, inverses
and p-power maps, and the least factor degree of a few polynomials) is
rendered with ``repr`` and ``emit_series``; each group of outputs is pinned
by its sha256.  A change to the residue-field arithmetic must keep every
digest, so fields above 2^16 and table fields answer byte for byte as before.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from fqlin import FieldConfig, PerfSeries
from fqlin.fields import least_factor_degree
from fqlin.textio import emit_series

from conftest import random_elem


def _series(rng, cfg, n_terms, span, prec=None):
    """n_terms distinct exponents k/p with 0 <= k < span and random nonzero
    coefficients, exact unless prec is given."""
    exps = rng.sample(range(span), n_terms)
    terms = [(Fraction(k, cfg.p), random_elem(rng, cfg, nonzero=True)) for k in exps]
    return PerfSeries(cfg, terms) if prec is None else PerfSeries(cfg, terms, prec)


def _outputs(cfg):
    """Group name -> list of output strings of the seeded computation."""
    rng = random.Random(f"pinned {cfg.p}^{cfg.degree}")
    long_a, long_b = _series(rng, cfg, 150, 600), _series(rng, cfg, 150, 600)
    short = [_series(rng, cfg, 5, 40, prec=rng.choice([None, 9, Fraction(31, cfg.p)])) for _ in range(4)]
    unit = PerfSeries(cfg, [(0, random_elem(rng, cfg, nonzero=True))] + list(_series(rng, cfg, 4, 30).terms))
    out = {"products": [long_a * long_b] + [a * b for a in short for b in short]}
    out["sums"] = [long_a + long_b, long_a - long_b] + [a + b for a in short for b in short] + [-a for a in short]
    out["div"] = [unit.inv(prec=12), unit.inv(prec=Fraction(7, cfg.p))] + [a.div(unit, prec=10) for a in short]
    out["frobenius"] = [a.frobenius(e) for a in (long_a, *short) for e in (1, -1)]
    pairs = [(random_elem(rng, cfg), random_elem(rng, cfg, nonzero=True)) for _ in range(40)]
    out["elements"] = [x * y for x, y in pairs] + [y.inverse() for _, y in pairs]
    out["elements"] += [x.pow_p(k) for x, _ in pairs[:10] for k in range(-1, cfg.degree + 1)]
    polys = [[random_elem(rng, cfg) for _ in range(d)] + [random_elem(rng, cfg, nonzero=True)] for d in (2, 3, 4)]
    polys.append([cfg.zero(), cfg.one(), cfg.one()])  # w + w^2: a root in every field
    out["factor"] = [least_factor_degree(f) for f in polys]
    return out


def _render(value):
    if isinstance(value, PerfSeries):
        return f"{value!r}\n{emit_series(value)}"
    return repr(value)


PINNED = {
    FieldConfig(p=3, v=2): {
        "products": "016519ebb71cbbffd644533bd80bb638bdaa1e04e9dd62309aa061a4011b0152",
        "sums": "e6d8cb23deb796b334ea27dc7ba70642cc368a8d16abd98492a10252aa36f06c",
        "div": "d46c1e8e065ab4bb2b4b9ad8f40043087309628c65ec26a10d59662492bf38c9",
        "frobenius": "50f9f279b764a9b371be217b7140ce5c5aec908cbe2f3d9eabc69c3dbc40de43",
        "elements": "9efb6461438a964dede3b5762fde3896cbe8c5781d62fbe3339d3a165826d9a2",
        "factor": "8cd2211932939ecfef0ea4f66435d456ee8a0f95d3c81dde7fe7e11467eed4c0",
    },
    FieldConfig(p=2, v=16): {
        "products": "8439bb6795ba60249dbd38bf1de7cb3ba2708d7903ce093829cb305fbbf5992c",
        "sums": "44c5e03973b704451c3432e132f3f2656f0af540125fd3a057e5d18a4cf1c0b0",
        "div": "a21e2081db5016d80475cbede8ffc5d8536361e81af1c8afaf54fad74c3585d3",
        "frobenius": "b9829efd930ed769f33e7ff16e6a4817424c7f64c1c072d42c59dec4b9f951fe",
        "elements": "329cb419fbc75503d6ab969006f7a414dfa802959d88498756b0c6d421b3755a",
        "factor": "04d51c1da3d5e601d3dbacbdc9feaa41e9f656a66c9ee1e2b063796d84e03520",
    },
    FieldConfig(p=7, v=8): {
        "products": "f05758635daf857b208fc06696f6dc457dced36aeaf477b3d26e185e5ddf0403",
        "sums": "74be967e76644b26d7efd33305148d4a6336da68ed86d7f805fd09acbe904906",
        "div": "a894facba757ff2f8a8ccf138c0768e3f731244ff94281446beee257cbc5c2a7",
        "frobenius": "adcf37858de77fef4817e796375b91c327ca6e33fa150743617b6594d78b0f6b",
        "elements": "1985e5e97b79bc7295c85110a03b875064695c7b0cde3d71485ccc036dff9f8c",
        "factor": "34e46b618212f7b653e41162855c0ad79da57b9b281fb85bb39299e66461e53a",
    },
    FieldConfig(p=2, v=20): {
        "products": "48ec71debc7971313aa7ac909b764c47aa7216cdb6315e81f1ac921dcb1f0171",
        "sums": "0cdff3d3537ddeb17963fd032f7f5b55b3a81cedf7719b28103721e3e7ab33e5",
        "div": "04455adfa210693af517687d870e7a853de861804ae5758ef7713643e8b22eb7",
        "frobenius": "8f90f63e0358d3c227129ec4b089df21b5b40e9d00af32c5d5362e2002906ace",
        "elements": "02f2352fbf29e393f25923f5232ae497155e90948dd83847b2efe208c850164e",
        "factor": "97d8fe9598006be8b6d48cfd27e575ee36044497481e3001d7768c2bf0bf1eea",
    },
}


@pytest.mark.parametrize("cfg", list(PINNED), ids=lambda cfg: f"F{cfg.p}^{cfg.degree}")
def test_large_field_outputs_pinned(cfg):
    digests = {
        group: hashlib.sha256("\n".join(map(_render, values)).encode()).hexdigest()
        for group, values in _outputs(cfg).items()
    }
    assert digests == PINNED[cfg]
