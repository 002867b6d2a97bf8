"""Division, preparation, discriminants, branches, lifting."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germforge.coeffs import DenseSeries, GaussianRational, ONE, ZERO
from germforge.errors import (
    DiscriminantError,
    ExactnessError,
    NormalFormError,
    NotRegularError,
    PrecisionError,
)
from germforge.series import FormalCurve, TruncSeries, pullback
from germforge.weierstrass import (
    FloatSeries,
    NormalForm,
    WeierstrassPoly,
    _numeric_roots,
    _regular_root,
    associated_membership,
    discriminant,
    generic_restrict,
    newton_puiseux,
    poly_roots_exact_first,
    prime_curve_lift,
    restrict_to_line,
    weierstrass_divide,
    weierstrass_prepare,
)

from conftest import g, mono, oracle_mul, oracle_pow, random_gauss, series, uni


def wpoly(degree, *lower):
    """Weierstrass polynomial over one base variable from term dicts."""
    coeffs = [uni(45, terms) for terms in lower]
    return WeierstrassPoly(1, degree, coeffs)


def zero1(prec=45):
    return TruncSeries.zero(1, prec)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def test_divide_w_squared_by_cusp():
    P = wpoly(2, {3: -ONE}, {})
    q, r = weierstrass_divide(mono(2, 20, (0, 2)), P, 18)
    assert q == TruncSeries.constant(2, 18, 1)
    assert r == mono(2, 18, (3, 0))


def test_divide_one_step():
    P = wpoly(2, {1: -ONE}, {})
    q, r = weierstrass_divide(mono(2, 20, (0, 3)), P, 18)
    assert q == mono(2, 18, (0, 1))
    assert r == mono(2, 18, (1, 1))


def test_divide_random_reconstruction():
    rng = random.Random(5)
    for _ in range(10):
        b0 = uni(30, {rng.randint(1, 3): g(rng.randint(-2, 2), rng.randint(-1, 1))})
        b1 = uni(30, {rng.randint(1, 3): g(rng.randint(-2, 2))})
        P = WeierstrassPoly(1, 2, [b0, b1])
        f = TruncSeries(
            2,
            30,
            {
                (rng.randint(0, 2), rng.randint(0, 3)): g(rng.randint(-3, 3), 1)
                for _ in range(4)
            },
        )
        N = 14
        q, r = weierstrass_divide(f, P, N)
        assert max((J[-1] for J in r.coeffs), default=0) < 2
        recon = q * P.as_series().jet(N) + r
        assert recon.agrees_with(f, N)


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------


def test_prepare_already_weierstrass():
    f = series(2, 20, {(0, 2): ONE, (3, 0): -ONE})
    unit, P = weierstrass_prepare(f, 16)
    assert unit == TruncSeries.constant(2, 16, 1)
    assert P.degree == 2
    assert P.coeffs[0] == mono(1, 15, (3,), -1)


def test_prepare_unit_factor():
    # (1 + z1)(w - z1)
    f = series(2, 20, {(0, 1): ONE, (1, 1): ONE, (1, 0): -ONE, (2, 0): -ONE})
    unit, P = weierstrass_prepare(f, 15)
    assert unit == series(2, 15, {(0, 0): ONE, (1, 0): ONE})
    assert P.degree == 1
    assert P.coeffs[0] == mono(1, 15, (1,), -1)


def test_prepare_not_regular():
    with pytest.raises(NotRegularError):
        weierstrass_prepare(mono(2, 10, (1, 0)), 8)


@pytest.mark.parametrize("N", [0, 1])
def test_prepare_order_below_w_order_is_a_precision_error(N):
    f = series(2, 20, {(0, 2): ONE, (3, 0): -ONE})
    with pytest.raises(PrecisionError, match="below the w-order 2"):
        weierstrass_prepare(f, N)


def test_prepare_roundtrip_random():
    rng = random.Random(9)
    for _ in range(8):
        f = TruncSeries(
            2,
            24,
            {
                (0, 2): ONE,
                (rng.randint(1, 2), rng.randint(0, 1)): g(rng.randint(-2, 2)),
                (rng.randint(1, 3), 2): g(rng.randint(-2, 2)),
                (0, 3): g(rng.randint(-1, 1)),
            },
        )
        N = 12
        unit, P = weierstrass_prepare(f, N)
        assert unit.constant_term()
        # the prepared coefficients keep the conservative uniform precision
        recon = unit * P.as_series()
        assert recon.agrees_with(f, recon.precision)
        assert recon.precision >= N - P.degree + 1
        for b in P.coeffs:
            assert not b.constant_term()


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------


def test_discriminant_cusp():
    assert discriminant(wpoly(2, {3: -ONE}, {})) == uni(45, {3: g(4)})


def test_discriminant_node():
    assert discriminant(wpoly(2, {2: -ONE}, {})) == uni(45, {2: g(4)})


def test_discriminant_linear_is_unit():
    P = wpoly(1, {1: ONE})
    assert discriminant(P) == TruncSeries.constant(1, 45, 1)


def test_discriminant_depressed_cubic_formula():
    # w^3 + p(t) w + q(t): disc = -4 p^3 - 27 q^2
    p = uni(40, {1: g(2)})
    q = uni(40, {2: g(-1)})
    P = WeierstrassPoly(1, 3, [q, p, zero1(40)])
    expected = p * p * p * g(-4) + q * q * g(-27)
    assert discriminant(P) == expected


def test_discriminant_matches_numeric_root_separation():
    # evaluate at a sample t and compare with prod (a_i - a_j)^2 over i<j
    P = WeierstrassPoly(1, 3, [uni(40, {2: g(-1)}), uni(40, {1: g(2)}), zero1(40)])
    D = discriminant(P)
    t0 = 0.37
    coeffs = [1.0, 0.0, 2.0 * t0, -(t0**2)]
    roots = np.roots(coeffs)
    prod = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            prod *= (roots[i] - roots[j]) ** 2
    Dval = sum(complex(c) * t0 ** J[0] for J, c in D.coeffs.items())
    assert abs(Dval - prod) < 1e-8 * max(1.0, abs(prod))


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


@st.composite
def rooted_poly(draw):
    """An exact polynomial (ascending coefficients) built from chosen roots:
    distinct Gaussian rationals with small denominators, each of
    multiplicity <= 2, times irrational factors x^2 - m or x^3 - m, degree
    <= 6; returns (coefficients, {exact root: multiplicity}, irrational
    root count)."""
    part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    chosen = draw(st.lists(st.builds(GaussianRational, part, part), max_size=4, unique=True))
    roots = {}
    for r in chosen:
        if sum(roots.values()) < 6:
            roots[r] = min(draw(st.integers(1, 2)), 6 - sum(roots.values()))
    irrational = 0
    factors = [[-r, ONE] for r, m in roots.items() for _ in range(m)]
    while sum(roots.values()) + irrational <= 3 and draw(st.booleans()):
        degree = draw(st.sampled_from([2, 3]))
        m = draw(st.sampled_from([2, 3, 5, 7] if degree == 2 else [2, 3, 4]))
        factors.append([g(-m)] + [ZERO] * (degree - 1) + [ONE])
        irrational += degree
    poly = [draw(st.builds(GaussianRational, part, part).filter(bool))]
    for f in factors:
        poly = _poly_mul(poly, f)
    return poly, roots, irrational


def _double_root_error(poly, r):
    """A priori accuracy of a double root r of poly in binary64: p(z) is
    known to u * sum |a_k| |z|^k, and near r it is (p''(r)/2) (z - r)^2."""
    bound = sum(abs(complex(c)) * abs(complex(r)) ** k for k, c in enumerate(poly))
    half_second = sum((comb(k, 2) * c * r ** (k - 2) for k, c in enumerate(poly) if k > 1), ZERO)
    return (2.0**-53 * bound / abs(complex(half_second))) ** 0.5


@given(rooted_poly())
@settings(max_examples=80, deadline=None)
def test_numeric_roots_match_numpy_and_exact_roots_are_recovered(case):
    """np.roots is the oracle.  A simple root agrees within 1e-6; a double
    root is only determined to the square root of the rounding level, so
    its tolerance grows with its a priori error.  poly_roots_exact_first
    always returns true roots with their exact multiplicities, and all of
    the chosen ones when every double root is accurate enough to snap."""
    poly, roots, irrational = case
    # the irrational factors x^2 - m, x^3 - m keep their roots at distance >= 0.05
    # from the chosen ones, so their own accuracy stays near the simple-root level
    slack = {r: _double_root_error(poly, r) for r, m in roots.items() if m == 2}
    got = _numeric_roots([complex(c) for c in poly])
    want = list(np.roots([complex(c) for c in reversed(poly)]))
    assert len(got) == len(want) == len(poly) - 1
    for z in want:  # match each oracle root to its nearest unused one
        nearest = min(got, key=lambda x: abs(x - z))
        tol = 1e-6 + sum(20 * e for r, e in slack.items() if abs(z - complex(r)) < 1e-3)
        assert abs(nearest - z) <= tol
        got.remove(nearest)
    exact, floats = poly_roots_exact_first(poly)
    assert all(roots.get(r) == m for r, m in exact)
    assert sum(m for _, m in exact) + sum(m for _, m in floats) == len(poly) - 1
    if all(e < 1e-8 for e in slack.values()):
        assert dict(exact) == roots and len(exact) == len(roots)
        assert sum(m for _, m in floats) == irrational


def test_numeric_roots_trim_the_top_and_list_zero_roots_last():
    assert _numeric_roots([0j, 0j, 2 + 0j, 0j]) == [0j, 0j]
    assert _numeric_roots([0j, -6 + 0j, 2 + 0j, 0j]) == [3 + 0j, 0j]
    assert _numeric_roots([5 + 0j, 0j]) == []
    assert _numeric_roots([]) == []


# ---------------------------------------------------------------------------
# generic restriction
# ---------------------------------------------------------------------------


def test_restrict_identity_for_one_base_var():
    P = wpoly(2, {3: -ONE}, {})
    L = generic_restrict(P)
    assert L.direction == (1,)
    assert L.s_order == 3


def test_restrict_two_vars_diagonal():
    b0 = TruncSeries(2, 40, {(1, 1): -ONE})
    P = WeierstrassPoly(2, 2, [b0, TruncSeries.zero(2, 40)])
    L = generic_restrict(P)
    assert L.direction == (1, 1)
    assert L.s_order == 2
    assert L.restricted.coeffs[0] == uni(40, {2: -ONE})


def test_restricted_discriminant_is_the_discriminant_on_the_line():
    """Restriction to a line is a ring map, so it commutes with the
    resultant; the CLI hands discriminant_on_line to newton_puiseux instead
    of taking the restricted polynomial's discriminant again."""
    rng = random.Random(11)
    for degree in (2, 3, 3, 4):
        coeffs = [
            TruncSeries(2, 10, {
                (i, j): random_gauss(rng)
                for i in range(4) for j in range(4) if 1 <= i + j <= 3 and rng.random() < 0.5
            })
            for _ in range(degree)
        ]
        L = generic_restrict(WeierstrassPoly(2, degree, coeffs))
        D = discriminant(L.restricted)
        assert D.precision == L.discriminant_on_line.precision
        assert D.coeffs == L.discriminant_on_line.coeffs


def test_restrict_unit_discriminant():
    P = WeierstrassPoly(1, 1, [uni(40, {1: -ONE})])
    L = generic_restrict(P)
    assert L.s_order == 0


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.integers(0, 6),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        st.builds(g, st.integers(-3, 3), st.integers(-3, 3)), max_size=6),
        st.tuples(*[st.integers(-3, 3)] * n).filter(any),
    ))
)
@settings(max_examples=80, deadline=None)
def test_restrict_to_line_is_the_direct_substitution(case):
    """restrict_to_line(s, v) == sum c_J prod v_i^(J_i) s^|J|, summed on
    plain dicts."""
    nvars, precision, terms, v = case
    s = TruncSeries(nvars, precision, terms)
    direct = {}
    for J, c in s.coeffs.items():
        for vi, e in zip(v, J):
            if e:
                c = c * g(vi) ** e
        direct[(sum(J),)] = direct.get((sum(J),), ZERO) + c
    assert restrict_to_line(s, v) == TruncSeries(1, precision, direct)


def test_restrict_rejects_vanishing_discriminant():
    # (w - t)^2 has discriminant 0
    P = WeierstrassPoly(1, 2, [uni(40, {2: ONE}), uni(40, {1: g(-2)})])
    with pytest.raises(DiscriminantError):
        generic_restrict(P)


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------


def binomial_sqrt_coeffs(n):
    """Coefficients of (1+t)^(1/2) via the recursion c_k = c_{k-1}(1/2-k+1)/k."""
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (Fraction(1, 2) - k + 1) / k)
    return out


def test_branch_cusp():
    bs = newton_puiseux(wpoly(2, {3: -ONE}, {}), 40)
    assert len(bs) == 1
    b = bs[0]
    assert b.ramification == 2 and b.is_exact
    assert b.w == uni(40, {3: ONE})
    assert b.residual_bound == 0.0


def test_branch_square_root_series():
    P = wpoly(2, {2: -ONE, 3: -ONE}, {})
    bs = newton_puiseux(P, 40)
    assert len(bs) == 2
    expected = binomial_sqrt_coeffs(30)
    plus = next(b for b in bs if b.w.coeff((1,)) == ONE)
    for k, c in enumerate(expected[:20]):
        assert plus.w.coeff((k + 1,)) == GaussianRational(c)
    minus = next(b for b in bs if b.w.coeff((1,)) == -ONE)
    for k, c in enumerate(expected[:20]):
        assert minus.w.coeff((k + 1,)) == GaussianRational(-c)


def test_branch_split_linear():
    P = wpoly(2, {2: g(2)}, {1: g(-3)})
    bs = newton_puiseux(P, 40)
    ws = sorted(str(b.w.coeff((1,))) for b in bs)
    assert ws == ["1", "2"]
    assert all(b.ramification == 1 for b in bs)


def test_branch_third_root():
    bs = newton_puiseux(wpoly(3, {2: -ONE}, {}, {}), 40)
    assert len(bs) == 1
    assert bs[0].ramification == 3
    assert bs[0].w == uni(40, {2: ONE})


def test_branch_gaussian_roots_stay_exact():
    bs = newton_puiseux(wpoly(2, {2: ONE}, {}), 40)
    assert {str(b.w.coeff((1,))) for b in bs} == {"i", "-i"}
    assert all(b.is_exact for b in bs)


def test_branch_floating_fallback_and_exact_only():
    P = wpoly(2, {2: g(-2)}, {})
    bs = newton_puiseux(P, 40)
    assert len(bs) == 2
    assert all(not b.is_exact for b in bs)
    assert all(b.residual_bound <= 1e-9 for b in bs)
    leads = sorted(b.w.coeff(1).real for b in bs)
    assert abs(leads[0] + 2**0.5) < 1e-9 and abs(leads[1] - 2**0.5) < 1e-9
    assert newton_puiseux(P, 40, exact_only=True) == []


def test_floating_branch_missing_its_tolerance_is_an_error():
    # w^4 - 4t^2 w^2 + 4t^4 - t^5: the characteristic roots +-sqrt(2) are
    # double, so a ramification-1 floating expansion cannot solve it
    P = wpoly(4, {4: g(4), 5: g(-1)}, {}, {2: g(-4)}, {})
    with pytest.raises(ExactnessError, match=r"residual .* above its tolerance 1e-09"):
        newton_puiseux(P, 20)
    assert newton_puiseux(P, 20, exact_only=True) == []


def test_principal_branch_curves_never_expand_floating_branches(monkeypatch):
    from germforge import pipeline, weierstrass

    def refuse(s):
        raise AssertionError("the pipeline entered the floating recursion")

    monkeypatch.setattr(weierstrass.FloatSeries, "from_exact", staticmethod(refuse))
    assert pipeline._principal_branch_curves(series(2, 30, {(0, 2): ONE, (2, 0): g(-2)}), 20) == []
    curves = pipeline._principal_branch_curves(series(2, 30, {(0, 2): ONE, (3, 0): -ONE}), 20)
    assert len(curves) == 1 and curves[0].components[0].coeffs == {(2,): ONE}


def test_branch_zero_factor():
    # w(w - t): one zero branch, one linear branch
    P = wpoly(2, {}, {1: -ONE})
    bs = newton_puiseux(P, 40)
    assert len(bs) == 2
    ws = sorted(str(b.w.coeff((1,))) for b in bs)
    assert ws == ["0", "1"]


def test_branch_residuals_certified_via_substitution():
    cases = [
        wpoly(2, {3: -ONE}, {}),
        wpoly(2, {2: -ONE, 3: -ONE}, {}),
        wpoly(3, {2: -ONE}, {}, {}),
        wpoly(2, {2: g(2)}, {1: g(-3)}),
        wpoly(3, {3: -ONE}, {}, {1: -ONE}),
    ]
    for P in cases:
        for b in newton_puiseux(P, 35):
            assert b.ramification >= 1
            if not b.is_exact:
                continue
            # independent residual: substitute into the series form
            total = TruncSeries.zero(1, 35)
            wp = TruncSeries.constant(1, 35, 1)
            for i in range(P.degree + 1):
                ci = (
                    P.coeffs[i].with_precision(35).substitute_power(b.ramification).with_precision(35)
                    if i < P.degree
                    else TruncSeries.constant(1, 35, 1)
                )
                total = total + ci * wp
                wp = wp * b.w.with_precision(35)
            assert total.is_zero()


def test_branch_multiplicities_sum_to_degree():
    cases = [
        (wpoly(2, {3: -ONE}, {}), 2),
        (wpoly(2, {2: -ONE, 3: -ONE}, {}), 2),
        (wpoly(3, {2: -ONE}, {}, {}), 3),
        (wpoly(2, {2: g(2)}, {1: g(-3)}), 2),
        (wpoly(4, {2: -ONE}, {}, {}, {}), 4),
        (wpoly(2, {}, {1: -ONE}), 2),
    ]
    for P, deg in cases:
        bs = newton_puiseux(P, 30)
        assert sum(b.ramification for b in bs) == deg


def test_branch_rejects_vanishing_discriminant():
    P = wpoly(2, {2: ONE}, {1: g(-2)})  # (w - t)^2
    with pytest.raises(DiscriminantError):
        newton_puiseux(P, 30)


def dense(coeffs):
    return [DenseSeries.from_exact(c) for c in coeffs]


@st.composite
def regular_poly(draw):
    """Coefficients c_0..c_n (n = 2..4) of an exact polynomial in w with a
    simple vanishing root, c_0(0) = 0 and c_1(0) != 0, each coefficient at
    its own precision; returns (coefficients, N)."""
    small = st.builds(
        GaussianRational,
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )
    coeffs = []
    for i in range(draw(st.integers(2, 4)) + 1):
        terms = {(draw(st.integers(0 if i else 1, 3)),): draw(small)
                 for _ in range(draw(st.integers(0, 3)))}
        if i == 1:
            terms[(0,)] = draw(small.filter(bool))
        coeffs.append(TruncSeries(1, draw(st.integers(3, 14)), terms))
    return coeffs, draw(st.integers(1, 14))


@given(regular_poly())
@settings(max_examples=60, deadline=None)
def test_regular_root_annihilates_through_its_precision(case):
    coeffs, N = case
    M = min([N, coeffs[0].precision] + [c.precision for c in coeffs[1:] if c])
    w = _regular_root(dense(coeffs), N)
    assert w.precision == N
    assert all(0 < e <= M for (e,) in w.coeffs)
    # independent residual: plain dict convolutions
    total = {}
    for i, c in enumerate(coeffs):
        for (e,), v in oracle_mul(c.coeffs, oracle_pow(w.coeffs, i, 1)).items():
            total[e] = total.get(e, ZERO) + v
    assert all(not v for e, v in total.items() if e <= M)


@given(regular_poly(), st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
))
@settings(max_examples=40, deadline=None)
def test_regular_root_matches_the_order_by_order_solution(case, u):
    # with c_1(0) = u, the t^e coefficient of P(w) is u w_e plus terms in
    # w_1..w_(e-1): solve it order by order in plain dict convolutions
    coeffs, N = case
    c1 = coeffs[1]
    coeffs[1] = TruncSeries(1, c1.precision, {**c1.coeffs, (0,): u})
    M = min([N, coeffs[0].precision] + [c.precision for c in coeffs[1:] if c])
    w = {}
    for e in range(1, M + 1):
        total = ZERO
        for i, c in enumerate(coeffs):
            total = total + oracle_mul(c.coeffs, oracle_pow(w, i, 1)).get((e,), ZERO)
        if total:
            w[(e,)] = -total / u
    root = _regular_root(dense(coeffs), N)
    assert root.precision == N and root.coeffs == w


def test_regular_root_keeps_every_order_through_its_precision():
    # w = t + w^2: w_n is the Catalan number C_(n-1), nonzero at every order;
    # both the exact and the floating iteration keep all 40
    coeffs = [uni(45, {1: -ONE}), uni(45, {0: ONE}), uni(45, {0: -ONE})]
    catalan = {(n,): comb(2 * n - 2, n - 1) // n for n in range(1, 41)}
    exact = _regular_root(dense(coeffs), 40)
    assert exact.coeffs == catalan
    floating = _regular_root([FloatSeries.from_exact(c) for c in dense(coeffs)], 40)
    assert {(e,) for e, c in enumerate(floating.vals) if c} == set(catalan)
    assert all(abs(floating.coeff(e) - v) <= 1e-12 * v for (e,), v in catalan.items())


def test_newton_puiseux_series_product_count(monkeypatch):
    # z2^2 - z1^2 - 2 z1^3: two regular tails; precision doubling needs
    # O(log N) series products per tail, an order-by-order solve O(N); the
    # dense products go through the integer kernel, not coefficient by
    # coefficient (a pairwise convolution makes over 5,000 scalar products)
    calls = []
    scalar_calls = []
    mul = TruncSeries.__mul__
    scalar_mul = GaussianRational.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    def scalar_counted(self, other):
        scalar_calls.append(1)
        return scalar_mul(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__mul__", scalar_counted)
    bs = newton_puiseux(wpoly(2, {2: -ONE, 3: g(-2)}, {}), 39)
    assert len(bs) == 2 and all(b.is_exact and b.residual_bound == 0.0 for b in bs)
    assert len(calls) <= 100
    assert len(scalar_calls) <= 1500


def test_puiseux_recursion_builds_no_truncseries(monkeypatch):
    # the recursion runs on DenseSeries (or FloatSeries) from entry to exit:
    # only newton_puiseux, around it, builds TruncSeries
    from germforge import weierstrass

    depth, inside, outside = [0], [], []
    rec, init, trusted = weierstrass._puiseux_rec, TruncSeries.__init__, TruncSeries._trusted.__func__

    def tracked(*args):
        depth[0] += 1
        try:
            return rec(*args)
        finally:
            depth[0] -= 1

    def counted_init(self, *args):
        (inside if depth[0] else outside).append(1)
        init(self, *args)

    def counted_trusted(cls, *args):
        (inside if depth[0] else outside).append(1)
        return trusted(cls, *args)

    monkeypatch.setattr(weierstrass, "_puiseux_rec", tracked)
    monkeypatch.setattr(TruncSeries, "__init__", counted_init)
    monkeypatch.setattr(TruncSeries, "_trusted", classmethod(counted_trusted))
    cases = [
        wpoly(2, {2: -ONE, 3: g(-2)}, {}),  # two regular tails
        wpoly(2, {3: -ONE}, {}),  # a ramified cusp
        wpoly(4, {4: g(1, 0), 5: g(-1)}, {}, {2: g(-2)}, {}),  # a ramified pair
        wpoly(2, {}, {1: -ONE}),  # a zero branch
        wpoly(2, {2: g(-2)}, {}),  # floating branches
    ]
    for P in cases:
        assert newton_puiseux(P, 30)
    assert inside == [] and outside


@st.composite
def float_series(draw):
    """A FloatSeries and its coefficients as a {degree: complex} dict, with
    exact zeros and values that cancel when added to their negatives."""
    prec = draw(st.integers(0, 25))
    parts = st.floats(-1e3, 1e3, allow_nan=False).map(lambda x: 0.0 if abs(x) < 1e-3 else x)
    terms = draw(st.dictionaries(st.integers(0, prec), st.builds(complex, parts, parts), max_size=12))
    vals = [terms.get(k, 0j) or 0j for k in range(max(terms, default=-1) + 1)]
    return FloatSeries(vals, prec), {k: c for k, c in terms.items() if c}


def _close(got, precision, want: dict, size: dict):
    """got has this precision and, at every degree, want's value within 1e-12
    of the size of the terms that make it."""
    assert got.precision == precision
    assert len(got.vals) <= precision + 1
    for k in range(precision + 1):
        assert abs(got.coeff(k) - want.get(k, 0j)) <= 1e-12 * size.get(k, 0.0), k


@given(float_series(), float_series(), st.complex_numbers(max_magnitude=10, allow_nan=False),
       st.integers(-6, 6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_float_series_matches_the_complex_dict_oracles(xa, yb, c, e, m):
    (x, a), (y, b) = xa, yb
    prec = min(x.precision, y.precision)
    low = range(prec + 1)
    _close(x + y, prec, {k: a.get(k, 0j) + b.get(k, 0j) for k in low},
           {k: abs(a.get(k, 0j)) + abs(b.get(k, 0j)) for k in low})
    _close(x - y, prec, {k: a.get(k, 0j) - b.get(k, 0j) for k in low},
           {k: abs(a.get(k, 0j)) + abs(b.get(k, 0j)) for k in low})
    prod_, size = {}, {}
    for i, u in a.items():
        for j, v in b.items():
            if i + j <= prec:
                prod_[i + j] = prod_.get(i + j, 0j) + u * v
                size[i + j] = size.get(i + j, 0.0) + abs(u) * abs(v)
    _close(x * y, prec, prod_, size)
    _close(x.scale(c), x.precision, {k: c * u for k, u in a.items()},
           {k: abs(c * u) for k, u in a.items()})
    _close(x.substitute_power(m), x.precision * m, {k * m: u for k, u in a.items()},
           {k * m: abs(u) for k, u in a.items()})
    if any(k + e < 0 for k in a):
        with pytest.raises(ValueError, match="negative exponent"):
            x.shift(e)
    elif x.precision + e >= 0:
        _close(x.shift(e), x.precision + e, {k + e: u for k, u in a.items()},
               {k + e: abs(u) for k, u in a.items()})


def test_branch_huge_coefficient_is_an_exactness_error():
    with pytest.raises(ExactnessError, match="10000000000"):
        newton_puiseux(wpoly(2, {2: g(-(10**400))}, {}), 20)


def test_branch_separation_before_discriminant_order():
    # restricted discriminant order s bounds where exact branches separate
    P = wpoly(2, {2: -ONE, 3: -ONE}, {})
    L = generic_restrict(P)
    bs = newton_puiseux(P, 30)
    exact = [b for b in bs if b.is_exact and b.ramification == 1]
    if len(exact) >= 2:
        w1, w2 = exact[0].w, exact[1].w
        diff = w1 - w2
        assert diff.order() is not None and diff.order() <= max(1, L.s_order)


# ---------------------------------------------------------------------------
# normal forms and lifting
# ---------------------------------------------------------------------------


def make_nf_split():
    """p = z2^2 - z1^2, D = 4 z1^2, Q_3 = 4 z1^2 z2 (so q_3 = D z3 - D z2)."""
    p = WeierstrassPoly(1, 2, [mono(1, 45, (2,), -1), zero1()])
    D = mono(1, 45, (2,), 4)
    Q3 = mono(3, 45, (2, 1, 0), 4)
    return NormalForm(3, 1, p, D, [(3, Q3)])


def test_normal_form_validates_discriminant():
    p = WeierstrassPoly(1, 2, [mono(1, 45, (2,), -1), zero1()])
    with pytest.raises(NormalFormError):
        NormalForm(3, 1, p, mono(1, 45, (2,), 3), [(3, TruncSeries.zero(3, 45))])


def test_normal_form_relation_variable_coverage():
    p = WeierstrassPoly(1, 2, [mono(1, 45, (2,), -1), zero1()])
    D = mono(1, 45, (2,), 4)
    with pytest.raises(NormalFormError):
        NormalForm(3, 1, p, D, [])


def test_lift_zero_numerator():
    # p = z2^2 - z1^3, Q_3 = 0: the cusp curve lifts with a zero component
    p = WeierstrassPoly(1, 2, [mono(1, 45, (3,), -1), zero1()])
    nf = NormalForm(3, 1, p, mono(1, 45, (3,), 4), [(3, TruncSeries.zero(3, 45))])
    base = FormalCurve([mono(1, 42, (2,)), mono(1, 42, (3,))])
    lift = prime_curve_lift(nf, base, 40)
    assert lift.curve.components[2].is_zero()
    assert lift.generator_orders["p"] >= 40
    assert lift.generator_orders["q_3"] >= 40


def test_lift_division_example():
    nf = make_nf_split()
    base = FormalCurve([mono(1, 42, (1,)), mono(1, 42, (1,))])
    lift = prime_curve_lift(nf, base, 40)
    assert lift.divisor_order == 2
    assert lift.curve.components[2] == lift.curve.components[1]
    for label, order in lift.generator_orders.items():
        assert order >= 40, label


def test_lift_order_condition_violation():
    # Q_3 of too-low order contradicts the normal-form hypotheses
    p = WeierstrassPoly(1, 2, [mono(1, 45, (2,), -1), zero1()])
    D = mono(1, 45, (2,), 4)
    bad = NormalForm.__new__(NormalForm)
    # bypass validation to simulate corrupted data honestly marked
    bad.nvars, bad.k, bad.p, bad.discriminant = 3, 1, p, D
    bad.relations = ((3, mono(3, 45, (1, 0, 0), 1)),)
    base = FormalCurve([mono(1, 42, (1,)), mono(1, 42, (1,))])
    with pytest.raises(NormalFormError):
        prime_curve_lift(bad, base, 30)


def test_lift_requires_annihilating_base():
    nf = make_nf_split()
    base = FormalCurve([mono(1, 42, (1,)), mono(1, 42, (2,))])
    with pytest.raises(NormalFormError):
        prime_curve_lift(nf, base, 30)


def test_associated_membership_relation_itself():
    nf = make_nf_split()
    q3 = nf.q_series(3)
    nu, combo = associated_membership(q3, nf, 3, 30)
    assert nu == 0


def test_associated_membership_division_by_discriminant():
    nf = make_nf_split()
    f = series(3, 45, {(0, 0, 1): ONE, (0, 1, 0): -ONE})  # z3 - z2
    nu, combo = associated_membership(f, nf, 3, 30)
    assert nu == 1


def test_associated_membership_cap_respected():
    nf = make_nf_split()
    f = mono(3, 45, (0, 1, 0))  # z2 alone never enters
    assert associated_membership(f, nf, 2, 20) is None
