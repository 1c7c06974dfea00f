"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every check is exact: a criterion passes only when the stated count
of random cases satisfies the stated identity with zero tolerance, within
the stated time budget.
"""

import json
import random
import time
from fractions import Fraction

from fqlin import (
    CompSeries,
    FieldConfig,
    ImplicitProblem,
    OdeProblem,
    OutsideConvergenceDomain,
    PerfSeries,
    RiccatiProblem,
    bracket,
    carlitz_d,
    emit_series,
    growth_certificate,
    invert_unit,
    multinomial_coeff,
    normalize_time_change,
    ore_left_multiple,
    residual,
    riccati_series,
    solve_implicit,
    solve_ode,
    solve_riccati,
    untransform_ode_solution,
)
from fqlin.cli import main
from fqlin.jsonio import decode_comp, decode_perf, encode_comp, encode_perf
from fqlin.textio import parse_comp_series, parse_perf_series

from conftest import random_elem

F2 = FieldConfig(p=2)
F3 = FieldConfig(p=3)
F4 = FieldConfig(p=2, v=2)
CONFIGS = [F2, F3, F4]


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


# -- deterministic random draws ---------------------------------------------------


def rand_perf(rng, field, max_terms=2, span=3, depth=0, nonzero=False):
    while True:
        pairs = []
        for _ in range(rng.randint(1, max_terms)):
            e = Fraction(rng.randint(-span, span), field.p ** rng.randint(0, depth))
            pairs.append((e, random_elem(rng, field)))
        s = PerfSeries(field, pairs)
        if not (nonzero and s.is_zero()):
            return s


def rand_comp(rng, field, max_index=8, max_terms=3, min_index=0, nonzero=False, **perf_kw):
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            k = rng.randint(min_index, max_index)
            terms[k] = rand_perf(rng, field, **perf_kw)
        u = CompSeries(field, terms)
        if not (nonzero and u.is_zero()):
            return u


def rand_unit(rng, field, max_index=4):
    """A composition unit whose leading coefficient stays exactly invertible."""
    lead = PerfSeries.x_pow(field, rng.randint(-2, 2), random_elem(rng, field, nonzero=True))
    terms = {0: lead}
    for _ in range(rng.randint(0, 2)):
        terms[rng.randint(1, max_index)] = rand_perf(rng, field)
    return CompSeries(field, terms)


def coeffs_all_zero(series):
    return all(c.is_zero() for c in series.terms.values())


# -- criteria ----------------------------------------------------------------------


def test_criterion_1_ring_laws():
    started = time.monotonic()
    per_config = 500
    for cfg in CONFIGS:
        rng = random.Random(1000 + cfg.q)
        ident = CompSeries.identity(cfg)
        for _ in range(per_config):
            a = rand_comp(rng, cfg, max_index=8, max_terms=2)
            b = rand_comp(rng, cfg, max_index=8, max_terms=2)
            c = rand_comp(rng, cfg, max_index=8, max_terms=2)
            assert a.compose(b).compose(c) == a.compose(b.compose(c))
            assert (a + b).compose(c) == a.compose(c) + b.compose(c)
            assert a.compose(b + c) == a.compose(b) + a.compose(c)
            assert a.compose(ident) == a and ident.compose(a) == a
            if not a.is_zero() and not b.is_zero():
                prod = a.compose(b)
                assert prod.min_index() == a.min_index() + b.min_index()
                lead = prod.coeff(prod.min_index())
                assert not lead.is_zero()
    elapsed = time.monotonic() - started
    report(
        1,
        elapsed < 30.0,
        f"ring laws hold on {per_config} triples for q in (2,3,4) at N=8 ({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_ore_identity():
    started = time.monotonic()
    per_config = 100
    order = 8
    for cfg in CONFIGS:
        rng = random.Random(2000 + cfg.q)
        for _ in range(per_config):
            a = rand_comp(rng, cfg, max_index=3, max_terms=2, nonzero=True)
            b = rand_comp(rng, cfg, max_index=3, max_terms=2, nonzero=True)
            a_prime, b_prime = ore_left_multiple(a, b, order=order)
            assert not b_prime.is_zero()
            diff = a_prime.compose(b) - b_prime.compose(a)
            assert not is_order_below(diff, order)
            assert coeffs_all_zero(diff)
            cert = growth_certificate(a_prime)
            assert isinstance(cert.kappa, Fraction)
    elapsed = time.monotonic() - started
    report(
        2,
        elapsed < 30.0,
        f"Ore cofactors satisfy a' o b = b' o a on {per_config} pairs per q at N=8 ({elapsed:.1f}s < 30s)",
    )


def is_order_below(series, order):
    from fqlin import INF

    return series.order != INF and series.order < order


def test_criterion_3_unit_inversion():
    order = 8
    count = 0
    for cfg in CONFIGS:
        rng = random.Random(3000 + cfg.q)
        for _ in range(34):
            u = rand_unit(rng, cfg)
            inv = invert_unit(u, order=order)
            left = u.compose(inv) - CompSeries.identity(cfg)
            right = inv.compose(u) - CompSeries.identity(cfg)
            assert coeffs_all_zero(left) and coeffs_all_zero(right)
            assert not is_order_below(left, order) and not is_order_below(right, order)
            count += 1
    golden = invert_unit(
        CompSeries(F2, {0: PerfSeries.one(F2), 1: PerfSeries.x_pow(F2, 1)}), order=order
    )
    for n in range(order + 1):
        assert golden.coeff(n) == PerfSeries.x_pow(F2, 2**n - 1)
    report(3, count >= 100, f"{count} unit inversions compose to t both ways; golden x^(2^n - 1)")


def test_criterion_4_carlitz_consistency():
    checked = 0
    for cfg in CONFIGS:
        rng = random.Random(4000 + cfg.q)
        for _ in range(67):
            u = rand_comp(rng, cfg, max_index=3, max_terms=2, min_index=-1, nonzero=True, depth=1)
            du = carlitz_d(u)
            kappa = max(growth_certificate(u).kappa, growth_certificate(du).kappa)
            m = int(kappa) + 1 + rng.randint(0, 2)
            t0 = PerfSeries.x_pow(cfg, m, random_elem(rng, cfg, nonzero=True))
            lhs = du.eval_at(t0).frobenius(1)
            x = PerfSeries.x_pow(cfg, 1)
            rhs = u.eval_at(x * t0) - x * u.eval_at(t0)
            assert (lhs - rhs).is_zero()
            checked += 1
    golden = carlitz_d(CompSeries.monomial(F2, 1))
    expected = CompSeries(
        F2, {0: PerfSeries(F2, [(Fraction(1, 2), F2.one()), (Fraction(1), F2.one())])}
    )
    assert golden == expected
    report(4, checked >= 200, f"(d u)(t0)^q = u(x t0) - x u(t0) on {checked} certified points; golden d(t^[q^1])")


def implicit_case(rng, cfg, nu):
    unit = rand_unit(rng, cfg, max_index=2)
    p1 = unit.compose(CompSeries.monomial(cfg, nu)) if nu else unit
    z = rand_comp(rng, cfg, max_index=nu + 3, max_terms=2, min_index=nu + 1, nonzero=True)
    pk = {}
    for k in (2, 3):
        if rng.random() < 0.6:
            pk[k] = rand_comp(rng, cfg, max_index=2, max_terms=1)
    total = p1.compose(z)
    for k, coeff_series in pk.items():
        total = total + coeff_series.compose(z.self_power(k))
    p0 = -total
    top = max(pk) if pk else 1
    coeffs = [p0, p1] + [pk.get(k, CompSeries.zero(cfg)) for k in range(2, top + 1)]
    prob = ImplicitProblem(P=tuple(coeffs), nu=nu)
    return prob, z


def test_criterion_5_implicit_solver():
    order = 16
    solved = 0
    for cfg in CONFIGS:
        rng = random.Random(5000 + cfg.q)
        for _ in range(34):
            prob, z_true = implicit_case(rng, cfg, nu=0)
            z, cert = solve_implicit(prob, order)
            res = residual(prob, z, order)
            assert coeffs_all_zero(res)
            solved += 1
    golden_prob = ImplicitProblem(
        P=(CompSeries.monomial(F2, 1), CompSeries.identity(F2), CompSeries.identity(F2))
    )
    z, _ = solve_implicit(golden_prob, 8)
    assert coeffs_all_zero(residual(golden_prob, z, 8))
    values = [z.coeff(i).coeff(Fraction(0)) for i in range(1, 9)]
    assert values == [F2.elem(c) for c in (1, 1, 0, 1, 0, 0, 0, 1)]

    shifted = 0
    for cfg in CONFIGS:
        rng = random.Random(5500 + cfg.q)
        for _ in range(8):
            nu = rng.randint(1, 2)
            prob, z_true = implicit_case(rng, cfg, nu=nu)
            z, _ = solve_implicit(prob, order)
            assert z.min_index() is None or z.min_index() >= nu + 1
            assert all(z.coeff(i).is_zero() for i in range(0, nu + 1))
            assert coeffs_all_zero(residual(prob, z, order))
            shifted += 1
    report(
        5,
        solved >= 100,
        f"implicit residual zero mod N=16 on {solved} problems; golden (1,1,0,1,0,0,0,1); {shifted} nu-shifted starts",
    )


def ode_case(rng, cfg, allow_poles=False):
    a = {}
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, 2)
        k = rng.randint(0, 2)
        span_lo = -2 if (allow_poles and k == 0) else 0
        e = rng.randint(span_lo, 3)
        a[(j, k)] = PerfSeries.x_pow(cfg, e, random_elem(rng, cfg, nonzero=True))
    return OdeProblem(field=cfg, a=a)


def test_criterion_6_ode_solver():
    order = 16
    solved = 0
    for cfg in CONFIGS:
        rng = random.Random(6000 + cfg.q)
        for _ in range(34):
            prob = ode_case(rng, cfg)
            z, cert = solve_ode(prob, order, xprec=Fraction(24))
            assert coeffs_all_zero(residual(prob, z, order))
            a00 = prob.a.get((0, 0), PerfSeries.zero(cfg))
            base = bracket(cfg, 1) * z.coeff(1) - a00.frobenius(1)
            assert base.is_zero()
            solved += 1

    golden = solve_ode(OdeProblem(field=F2, a={(0, 0): PerfSeries.x_pow(F2, 1)}), 2, xprec=Fraction(16))[0]
    c1 = golden.coeff(1)
    assert all(c1.coeff(Fraction(n)) == F2.one() for n in range(1, 16))

    # d z = x^-1 t + z o z needs the time change gamma = x^2
    pole_prob = OdeProblem(field=F2, a={(0, 0): PerfSeries.x_pow(F2, -1), (0, 2): PerfSeries.one(F2)})
    round_trips = [(pole_prob, 4, Fraction(16))]
    for cfg in CONFIGS:
        rng = random.Random(6500 + cfg.q)
        round_trips += [(ode_case(rng, cfg, allow_poles=True), 8, Fraction(40)) for _ in range(7)]
    for prob, n, xprec in round_trips:
        norm, gamma = normalize_time_change(prob)
        zp, _ = solve_ode(norm, n, xprec=xprec)
        z = zp if norm is prob else untransform_ode_solution(zp, gamma)
        assert coeffs_all_zero(residual(prob, z, n))
    report(
        6,
        solved >= 100,
        f"ODE residual zero mod N=16 on {solved} problems; c1 = [1]^-1 a00^q; golden digits; {len(round_trips)} time-change round trips",
    )


def test_criterion_7_growth_certificates():
    cases = []
    golden_prob = ImplicitProblem(
        P=(CompSeries.monomial(F2, 1), CompSeries.identity(F2), CompSeries.identity(F2))
    )
    z32, cert32 = solve_implicit(golden_prob, 32)
    cases.append((z32, cert32))
    zode, _ = solve_ode(
        OdeProblem(field=F2, a={(0, 0): PerfSeries.x_pow(F2, 1), (1, 2): PerfSeries.one(F2)}),
        32,
        xprec=Fraction(40),
    )
    cases.append((zode, growth_certificate(zode)))
    pole_prob = OdeProblem(
        field=F2, a={(0, 0): PerfSeries.x_pow(F2, -1), (0, 2): PerfSeries.one(F2)}
    )
    norm, gamma = normalize_time_change(pole_prob)
    zp, _ = solve_ode(norm, 12, xprec=Fraction(60))
    zpole = untransform_ode_solution(zp, gamma)
    cases.append((zpole, growth_certificate(zpole)))
    c, a = solve_riccati(RiccatiProblem(lam=PerfSeries.x_pow(F2, Fraction(1, 4))), 12, xprec=Fraction(16))
    y = riccati_series(c, a, F2)
    cases.append((y, growth_certificate(y)))

    for series, cert in cases:
        assert isinstance(cert.kappa, Fraction) and cert.kappa >= 0
        inside = int(cert.kappa) + 1
        t0 = PerfSeries.x_pow(series.field, inside)
        series.eval_at(t0, cert=cert)
        vals = [(c_k * t0.frobenius(k)).valuation_lb() for k, c_k in series.terms.items()]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)
        try:
            series.eval_at(PerfSeries.one(series.field), cert=cert)
            raised = False
        except OutsideConvergenceDomain:
            raised = True
        assert raised
    report(
        7,
        len(cases) == 4,
        "solver outputs to N=32 certify finite kappa; inside evals strictly increase, outside raises",
    )


def riccati_case(rng, cfg):
    q = cfg.q
    floor = Fraction(1, q * q)
    lam = PerfSeries.x_pow(cfg, floor, random_elem(rng, cfg, nonzero=True))
    p = {}
    r = {}
    for _ in range(rng.randint(0, 2)):
        p[rng.randint(1, 2)] = PerfSeries.x_pow(
            cfg, floor + rng.randint(1, 2), random_elem(rng, cfg, nonzero=True)
        )
    for _ in range(rng.randint(0, 2)):
        r[rng.randint(0, 2)] = PerfSeries.x_pow(
            cfg, floor + rng.randint(1, 2), random_elem(rng, cfg, nonzero=True)
        )
    return RiccatiProblem(lam=lam, p=p, r=r)


def test_criterion_8_riccati():
    from test_riccati import step_defect

    started = time.monotonic()
    golden_prob = RiccatiProblem(lam=PerfSeries.x_pow(F2, Fraction(1, 4)))
    c, a = solve_riccati(golden_prob, 3, xprec=Fraction(12))
    assert c == PerfSeries(F2, [(Fraction(0), F2.one()), (Fraction(1, 4), F2.one())])
    assert all(item.is_zero() for item in a)
    y = riccati_series(c, a, F2)
    assert coeffs_all_zero(residual(golden_prob, y, 3))
    # d y = lam (y o y) + x tau y + x^{1/2}: nonzero a_1, a_3 and a_5
    full_prob = RiccatiProblem(
        lam=golden_prob.lam, p={1: PerfSeries.x_pow(F2, 1)}, r={0: PerfSeries.x_pow(F2, Fraction(1, 2))}
    )
    c, a = solve_riccati(full_prob, 5, xprec=Fraction(10))
    assert coeffs_all_zero(residual(full_prob, riccati_series(c, a, F2), 5))

    order = 12
    xprec = Fraction(10)
    solved = 0
    for cfg in (F2, F3):
        rng = random.Random(8000 + cfg.q)
        for _ in range(25):
            prob = riccati_case(rng, cfg)
            trace = []
            c, a = solve_riccati(prob, order, xprec=xprec, trace=trace)
            root = bracket(cfg, -1).frobenius(-1)
            assert (prob.lam * c - root).is_zero()
            assert all(item.valuation_lb() >= 0 for item in a)
            for entry in trace:
                l = entry["l"]
                defect = step_defect(prob, c, a, l)
                assert defect.valuation_lb() >= xprec
                if entry["steps"]:
                    final = entry["steps"][-1]["residuals"]
                    assert final == sorted(final) and len(set(final)) == len(final)
            solved += 1
    elapsed = time.monotonic() - started
    report(
        8,
        solved >= 50 and elapsed < 60.0,
        f"Riccati exact c, integral a_l, step residuals >= xprec on {solved} problems at N=12 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_9_cross_oracle():
    for cfg in (F2, F3, F4):
        rng = random.Random(9000 + cfg.q)
        coeffs = {n: rand_perf(rng, cfg, max_terms=1, span=2) for n in range(1, 11)}
        z = CompSeries(cfg, {n: c for n, c in coeffs.items()})
        for k in range(1, 5):
            zk = z.self_power(k)
            for l in range(0, 11):
                direct = multinomial_coeff(l, k, coeffs, cfg)
                assert (zk.coeff(l) - direct).is_zero()

    evaluated = 0
    for cfg in CONFIGS:
        rng = random.Random(9500 + cfg.q)
        for _ in range(34):
            a = rand_comp(rng, cfg, max_index=3, max_terms=2, span=2, nonzero=True)
            b = rand_comp(rng, cfg, max_index=3, max_terms=2, span=2, nonzero=True)
            kb = growth_certificate(b).kappa
            ka = growth_certificate(a).kappa
            m = int(max(ka, kb)) + 1
            while True:
                t0 = PerfSeries.x_pow(cfg, m, random_elem(rng, cfg, nonzero=True))
                b_t0 = b.eval_at(t0)
                if b_t0.is_zero() or b_t0.valuation_lb() > ka:
                    break
                m += 1
            lhs = a.compose(b).eval_at(t0)
            rhs = a.eval_at(b_t0)
            assert (lhs - rhs).is_zero()
            evaluated += 1
    report(
        9,
        evaluated >= 100,
        f"multinomial_coeff matches self powers for l<=10, k<=4; eval respects composition on {evaluated} triples",
    )


def test_criterion_10_cli_round_trip(tmp_path):
    rng = random.Random(10)
    round_trips = 0
    for _ in range(1000):
        cfg = CONFIGS[rng.randrange(len(CONFIGS))]
        if rng.random() < 0.5:
            s = rand_perf(rng, cfg, max_terms=3, span=4, depth=1)
            if rng.random() < 0.5:
                s = s.truncate(Fraction(rng.randint(5, 9)))
            assert parse_perf_series(cfg, emit_series(s)) == s
            assert decode_perf(cfg, json.loads(json.dumps(encode_perf(s)))) == s
        else:
            u = rand_comp(rng, cfg, max_index=4, max_terms=3, min_index=-2, depth=1)
            if rng.random() < 0.5:
                u = u.truncate(rng.randint(2, 6))
            assert parse_comp_series(cfg, emit_series(u)) == u
            assert decode_comp(cfg, json.loads(json.dumps(encode_comp(u)))) == u
        round_trips += 1

    ode_doc = {"field": {"p": 2}, "a": [{"j": 0, "k": 0, "coef": "x"}, {"j": 1, "k": 2, "coef": "x^2"}]}
    in_path = tmp_path / "ode.json"
    in_path.write_text(json.dumps(ode_doc), encoding="utf-8")
    blobs = []
    for name in ("first.json", "second.json"):
        out_path = tmp_path / name
        assert main(["solve-ode", "-i", str(in_path), "--order", "4", "--xprec", "12",
                     "--check", "-o", str(out_path)]) == 0
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]

    solved = json.loads(blobs[0])
    candidate = json.loads(json.dumps(solved["result"]["z"]))
    candidate["terms"][0]["coef"]["terms"][0]["e"]["num"] += 1
    check_doc = {"field": {"p": 2}, "type": "ode", "problem": {"a": ode_doc["a"]}, "candidate": candidate}
    check_path = tmp_path / "check.json"
    check_path.write_text(json.dumps(check_doc), encoding="utf-8")
    perturbed_code = main(["residual-check", "-i", str(check_path), "--order", "4",
                           "-o", str(tmp_path / "perturbed.json")])
    assert perturbed_code == 4
    report(
        10,
        round_trips >= 1000,
        f"parse/emit and encode/decode identity on {round_trips} documents; reruns byte-identical; perturbed c_1 exits 4",
    )
