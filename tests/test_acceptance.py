"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred."""

import random
import time
from fractions import Fraction

import pytest

from germforge.coeffs import GaussianRational, ONE, ZERO, I as IMAG
from germforge.errors import PrecisionError
from germforge.hermitian import HermitianForm, decompose, reconstruct
from germforge.ideals import IdealPresentation, codimension, verify_combination
from germforge.pipeline import run_pipeline
from germforge.series import FormalCurve, TruncSeries, reparametrize
from germforge.typeengine import (
    GramMismatch,
    UnitaryBlock,
    dangelo_ratio,
    equivalence_check,
    match_unitary,
    monomial_curve_search,
    witness_check,
)
from germforge.weierstrass import (
    NormalForm,
    WeierstrassPoly,
    associated_membership,
    newton_puiseux,
    prime_curve_lift,
)

from conftest import (
    g,
    hermitian,
    mono,
    oracle_level_dims_monomial,
    oracle_standard_monomials,
    random_real_form,
    series,
    uni,
)


def _report(num: int, name: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed"


def witness_form(precision=60):
    pairs = {
        ((0, 0, 1), (0, 0, 0)): ONE,
        ((0, 0, 0), (0, 0, 1)): ONE,
        ((2, 0, 0), (2, 0, 0)): ONE,
        ((2, 0, 0), (0, 3, 0)): -ONE,
        ((0, 3, 0), (2, 0, 0)): -ONE,
        ((0, 3, 0), (0, 3, 0)): ONE,
    }
    return hermitian(3, precision, pairs)


# ---------------------------------------------------------------------------


def test_criterion_01_decomposition_roundtrip():
    start = time.monotonic()
    rng = random.Random(12345)
    checked = 0
    ok = True
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        r = random_real_form(rng, n, 8, 8)
        for k in (4, 8):
            d = decompose(r, k)
            if not reconstruct(d, k).agrees_with(r, k):
                ok = False
        checked += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        "decomposition-roundtrip",
        ok and checked == 200 and elapsed < 60.0,
        f"200 forms, k in (4, 8), {elapsed:.1f}s",
    )


def test_criterion_02_witness_pipeline():
    start = time.monotonic()
    r = witness_form(60)
    result = run_pipeline(r, N=50, A=3, d=2, bound=6)
    elapsed = time.monotonic() - start
    ok = result.exit_code == 0 and result.witness is not None and result.witness.certified
    curve_ok = False
    if ok:
        zc = result.curve.components
        wit = witness_check(r, result.curve, 50)
        ok = ok and wit.certified and wit.order == 50
        # the curve is (t^3, t^2, 0) up to reparametrization and unit scaling:
        # third component zero, the others single terms with orders 3s and 2s
        # whose coefficients satisfy the defining cancellation c1^2 = c2^3
        if zc[2].is_zero() and len(zc[0].coeffs) == 1 and len(zc[1].coeffs) == 1:
            o1, o2 = zc[0].order(), zc[1].order()
            c1 = zc[0].coeff((o1,))
            c2 = zc[1].coeff((o2,))
            s = o2 // 2
            curve_ok = (
                o1 == 3 * s and o2 == 2 * s and c1 * c1 == c2 * c2 * c2
            )
    _report(
        2,
        "witness-pipeline",
        ok and curve_ok and elapsed < 10.0,
        f"order 50 certified, curve matches, {elapsed:.1f}s",
    )


def test_criterion_03_finite_ratio_family():
    start = time.monotonic()
    ok = True
    details = []
    for m in (1, 2, 3, 4):
        pairs = {
            ((0, 1), (0, 0)): ONE,
            ((0, 0), (0, 1)): ONE,
            ((m, 0), (m, 0)): ONE,
        }
        r = hermitian(2, 8 * m + 4, pairs)
        results = monomial_curve_search(r, 3, 2)
        best_curve, best_ratio = results[0]
        verified = dangelo_ratio(r, best_curve)
        good = (
            not best_ratio.is_flagged
            and best_ratio.value == 2 * m
            and verified.value == best_ratio.value
        )
        ok = ok and good
        details.append(f"m={m}:{best_ratio.value}")
    elapsed = time.monotonic() - start
    _report(
        3,
        "finite-ratio-family",
        ok and elapsed < 30.0,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_04_reparametrization_invariance():
    rng = random.Random(777)
    found = 0
    ok = True
    attempts = 0
    while found < 50 and attempts < 400:
        attempts += 1
        n = rng.choice([2, 3])
        r = random_real_form(rng, n, 6, 10)
        if r.is_zero():
            continue
        exps = [rng.randint(0, 3) for _ in range(n)]
        if not any(exps):
            continue
        coeffs = [
            GaussianRational(rng.randint(1, 2), rng.randint(0, 1)) for _ in range(n)
        ]
        curve = FormalCurve.from_monomials(exps, 40, coeffs)
        try:
            base = dangelo_ratio(r, curve)
        except PrecisionError:
            continue
        if base.is_flagged:
            continue
        found += 1
        for m in (2, 3, 5):
            scaled = dangelo_ratio(r, reparametrize(curve, m))
            if scaled.is_flagged or scaled.value != base.value:
                ok = False
    _report(
        4,
        "reparametrization-invariance",
        ok and found == 50,
        f"{found} finite-ratio pairs, m in (2, 3, 5)",
    )


def _puiseux_suite():
    def u(terms, prec=46):
        return uni(prec, terms)

    def zero(prec=46):
        return TruncSeries.zero(1, prec)

    W = WeierstrassPoly
    return [
        (W(1, 2, [u({3: -ONE}), zero()]), 2),                      # w^2 - t^3
        (W(1, 2, [u({2: -ONE, 3: -ONE}), zero()]), 2),             # w^2 - t^2(1+t)
        (W(1, 3, [u({2: -ONE}), zero(), zero()]), 3),              # w^3 - t^2
        (W(1, 2, [u({2: g(2)}), u({1: g(-3)})]), 2),               # (w-t)(w-2t)
        (W(1, 2, [u({2: ONE}), zero()]), 2),                       # w^2 + t^2
        (W(1, 2, [u({2: g(-2)}), zero()]), 2),                     # w^2 - 2t^2 (floating)
        (W(1, 2, [zero(), u({1: -ONE})]), 2),                      # w(w - t)
        (W(1, 2, [u({5: -ONE}), zero()]), 2),                      # w^2 - t^5
        (W(1, 3, [u({4: -ONE}), zero(), zero()]), 3),              # w^3 - t^4
        (W(1, 3, [u({5: -ONE}), zero(), zero()]), 3),              # w^3 - t^5
        (W(1, 4, [u({2: -ONE}), zero(), zero(), zero()]), 4),      # w^4 - t^2
        (W(1, 4, [u({3: -ONE}), zero(), zero(), zero()]), 4),      # w^4 - t^3
        (W(1, 3, [u({3: g(2)}), u({2: -ONE}), u({1: g(-2)})]), 3), # (w-t)(w+t)(w-2t)
        (W(1, 2, [u({5: ONE}), u({2: -ONE, 3: -ONE})]), 2),        # (w-t^2)(w-t^3)
        (W(1, 2, [u({2: -ONE, 3: g(-2), 4: -ONE}), zero()]), 2),   # w^2 - t^2(1+t)^2
        (W(1, 2, [u({3: ONE}), zero()]), 2),                       # w^2 + t^3
        (W(1, 3, [u({3: ONE}), u({4: g(-3)}), zero()]), 3),        # w^3 - 3t^4 w + t^3
        (W(1, 2, [u({2: ONE, 3: ONE}), u({1: g(-2), 2: -ONE})]), 2),  # tangential pair
        (W(1, 4, [u({4: ONE, 5: -ONE}), zero(), u({2: g(-2)}), zero()]), 4),  # (w^2-t^2)^2 - t^5
        (W(1, 2, [u({2: GaussianRational(0, -1)}), zero()]), 2),   # w^2 - i t^2 (floating)
    ]


def test_criterion_05_puiseux_residuals():
    start = time.monotonic()
    N = 40
    ok = True
    total_cases = 0
    for P, degree in _puiseux_suite():
        branches = newton_puiseux(P, N)
        total_cases += 1
        if sum(b.ramification for b in branches) != degree:
            ok = False
        for b in branches:
            if b.is_exact:
                if b.residual_bound != 0.0:
                    ok = False
            else:
                if b.residual_bound > 1e-9:
                    ok = False
    elapsed = time.monotonic() - start
    _report(
        5,
        "puiseux-residuals",
        ok and total_cases == 20 and elapsed < 30.0,
        f"20 cases, order {N}, {elapsed:.1f}s",
    )


def _codim_suite():
    """(nvars, generator exponent lists for monomial ideals or term dicts,
    expected) where expected is ('finite', D) or ('unresolved', None);
    binomial expectations are derived by variable elimination to a monomial
    ideal fed to the same enumerator."""
    mono_cases = [
        (2, [(2, 0), (1, 1), (0, 2)]),
        (2, [(3, 0), (2, 1), (1, 2), (0, 3)]),
        (2, [(1, 0), (0, 3)]),
        (2, [(2, 0), (0, 2)]),
        (2, [(3, 0), (0, 1)]),
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        (2, [(2, 0), (1, 1), (0, 3)]),
        (1, [(4,)]),
        (2, [(0, 2)]),
        (2, [(1, 1)]),
        (2, [(2, 0), (0, 4)]),
        (3, [(1, 0, 0), (0, 2, 0), (0, 0, 3)]),
    ]
    cases = []
    for n, exps in mono_cases:
        gens = [{tuple(e): ONE} for e in exps]
        verdict, value = oracle_standard_monomials(exps, n)
        cases.append((n, gens, (verdict, value), exps))
    # (z1) with its required dims profile handled separately in the test
    binom = [
        # generators, reduced monomial ideal after eliminating variables
        (2, [{(1, 0): ONE, (0, 1): -ONE}, {(0, 2): ONE}], [(2,)], 1),
        (2, [{(1, 0): ONE, (0, 1): ONE}, {(0, 3): ONE}], [(3,)], 1),
        (2, [{(1, 0): ONE, (0, 2): -ONE}, {(0, 3): ONE}], [(3,)], 1),
        (2, [{(1, 0): ONE, (0, 1): -ONE}, {(1, 1): ONE}], [(2,)], 1),
        (3, [{(1, 0, 0): ONE, (0, 1, 0): -ONE}, {(0, 1, 0): ONE, (0, 0, 1): -ONE}, {(0, 0, 2): ONE}], [(2,)], 1),
        (2, [{(2, 0): ONE, (0, 2): -ONE}, {(0, 2): ONE}], [(2, 0), (0, 2)], 2),
        (2, [{(1, 0): ONE, (0, 1): -ONE}, {(0, 3): ONE, (1, 1): -ONE}], [(2,)], 1),
        (2, [{(1, 0): ONE, (0, 2): ONE}, {(1, 1): ONE}], [(3,)], 1),
        (2, [{(2, 0): ONE, (0, 3): -ONE}], None, None),
        (2, [{(2, 0): ONE, (0, 2): -ONE}], None, None),
    ]
    for n, gens, reduced, rn in binom:
        if reduced is None:
            cases.append((n, gens, ("unresolved", None), None))
        else:
            verdict, value = oracle_standard_monomials(reduced, rn)
            cases.append((n, gens, (verdict, value), None))
    return cases


def test_criterion_06_codimension_oracle_agreement():
    ok = True
    count = 0
    # the distinguished case: (z1) in two variables at bound 12
    I = IdealPresentation(2, [mono(2, 14, (1, 0))])
    rep = codimension(I, 12)
    if rep.verdict != "unresolved" or rep.dims != list(range(1, 13)):
        ok = False
    count += 1
    for n, gens, expected, exps in _codim_suite():
        I = IdealPresentation(n, [series(n, 14, t) for t in gens])
        rep = codimension(I, 8)
        verdict, value = expected
        if rep.verdict != verdict:
            ok = False
        elif verdict == "finite" and rep.value != value:
            ok = False
        if exps is not None:
            if rep.dims != oracle_level_dims_monomial(exps, n, 8):
                ok = False
        count += 1
    _report(6, "codimension-oracle-agreement", ok and count == 25, f"{count} ideals")


def test_criterion_07_power_certificate_soundness():
    ok = True
    verified = 0
    for n, gens, expected, _ in _codim_suite():
        if expected[0] != "finite":
            continue
        I = IdealPresentation(n, [series(n, 14, t) for t in gens])
        rep = codimension(I, 8)
        if rep.verdict != "finite":
            ok = False
            continue
        for vc in rep.variable_certificates:
            zje = mono(
                n, 14, tuple(vc.exponent if i == vc.variable else 0 for i in range(n))
            )
            if not verify_combination(zje, I, vc.combination, 7):
                ok = False
            verified += 1
    _report(
        7,
        "power-certificate-soundness",
        ok and verified > 0,
        f"{verified} per-variable combinations re-expanded",
    )


def _random_exact_vectors(rng, count, dim):
    return [
        [
            GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
            for _ in range(dim)
        ]
        for _ in range(count)
    ]


def _exact_unitary(rng, dim):
    """Phase permutations and rational rotations: exact unitary matrices."""
    if dim >= 2 and rng.random() < 0.5:
        c, s = Fraction(3, 5), Fraction(4, 5)
        rows = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
        rows[0][0], rows[0][1] = GaussianRational(c), GaussianRational(-s)
        rows[1][0], rows[1][1] = GaussianRational(s), GaussianRational(c)
        return rows
    perm = list(range(dim))
    rng.shuffle(perm)
    phases = [rng.choice([ONE, -ONE, IMAG, -IMAG]) for _ in range(dim)]
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][perm[i]] = phases[i]
    return rows


def test_criterion_08_unitary_matching():
    start = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for _ in range(30):
        dim = rng.randint(1, 4)
        count = rng.randint(1, dim + 1)
        G = _random_exact_vectors(rng, count, dim)
        U0 = _exact_unitary(rng, dim)
        F = [
            [sum((U0[i][j] * v[j] for j in range(dim)), ZERO) for i in range(dim)]
            for v in G
        ]
        res = match_unitary(F, G)
        if not isinstance(res, UnitaryBlock):
            ok = False
            continue
        if res.unitarity_defect() > 1e-10:
            ok = False
        if res.is_exact and res.unitarity_defect() != 0.0:
            ok = False
        for f, gv in zip(F, G):
            got = res.apply(gv)
            err = max(abs(complex(a) - complex(b)) for a, b in zip(got, f))
            if err > 1e-10:
                ok = False
    mismatches = 0
    for _ in range(10):
        dim = rng.randint(2, 4)
        count = rng.randint(1, dim)
        G = _random_exact_vectors(rng, count, dim)
        F = [list(v) for v in G]
        i = rng.randrange(count)
        j = rng.randrange(dim)
        F[i][j] = F[i][j] + ONE  # breaks the Gram matrix generically
        res = match_unitary(F, G)
        if isinstance(res, GramMismatch):
            # the reported discrepancy must be independently recomputable
            a, b = res.row, res.col
            fi = sum((x * y.conjugate() for x, y in zip(F[a], F[b])), ZERO)
            gi = sum((x * y.conjugate() for x, y in zip(G[a], G[b])), ZERO)
            if fi == res.f_inner and gi == res.g_inner and fi != gi:
                mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        8,
        "unitary-matching",
        ok and mismatches == 10 and elapsed < 10.0,
        f"30 matches, {mismatches} rejections, {elapsed:.1f}s",
    )


def test_criterion_09_norm_chain():
    r = witness_form(60)
    d = decompose(r, 60)
    U = UnitaryBlock.identity(len(d.fs))
    good = FormalCurve.from_monomials([3, 2, 0], 150)
    ok = equivalence_check(d, U, good, 40)
    ok = ok and witness_check(r, good, 40).certified
    perturbed = FormalCurve.from_monomials([3, 2, 7], 150)
    ok = ok and not equivalence_check(d, U, perturbed, 40)
    _report(9, "norm-chain", ok, "witness true, perturbed false, order 40")


def test_criterion_10_prime_lift():
    prec = 50
    p = WeierstrassPoly(1, 2, [mono(1, prec, (2,), -1), TruncSeries.zero(1, prec)])
    D = mono(1, prec, (2,), 4)
    Q3 = mono(3, prec, (2, 1, 0), 4)
    nf = NormalForm(3, 1, p, D, [(3, Q3)])
    base = FormalCurve([mono(1, 44, (1,)), mono(1, 44, (1,))])
    lift = prime_curve_lift(nf, base, 40)
    expected = FormalCurve([mono(1, 42, (1,))] * 3)
    ok = all(
        lc.agrees_with(ec, 40)
        for lc, ec in zip(lift.curve.components, expected.components)
    )
    ok = ok and all(order >= 40 for order in lift.generator_orders.values())
    res = associated_membership(
        series(3, prec, {(0, 0, 1): ONE, (0, 1, 0): -ONE}), nf, 2, 40
    )
    ok = ok and res is not None and res[0] <= 1
    _report(
        10,
        "prime-lift",
        ok,
        f"curve (t, t, t), generators through 40, nu = {res[0] if res else '?'}",
    )
