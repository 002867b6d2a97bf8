"""Series core: ordering, arithmetic, jets, curves, pullbacks."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from germforge.coeffs import DenseSeries, GaussianRational, ONE, ZERO
from germforge.errors import (
    ConstantCurveError,
    DimensionMismatch,
    PrecisionError,
)
from germforge.series import (
    FormalCurve,
    TruncSeries,
    compare,
    inverse,
    divide,
    exponent_tuples,
    jet,
    pullback,
    reparametrize,
    vanishing_order,
)

from conftest import (
    g,
    mono,
    oracle_compose_univariate,
    oracle_curve_pullback,
    oracle_mul,
    series,
    small_curves,
    uni,
)


# ---------------------------------------------------------------------------
# multidegree order
# ---------------------------------------------------------------------------


def test_compare_degree_dominates():
    assert compare((2, 0), (0, 1)) == 1


def test_compare_lex_tiebreak_smaller_entry_first():
    assert compare((0, 1), (1, 0)) == -1
    assert compare((1, 1, 0), (1, 0, 1)) == 1


def test_compare_equal_and_errors():
    assert compare((1, 2), (1, 2)) == 0
    with pytest.raises(DimensionMismatch):
        compare((1,), (1, 0))


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
             min_size=2, max_size=6)
)
def test_compare_is_total_order(degs):
    key = lambda J: (sum(J), J)
    bysort = sorted(degs, key=key)
    for a, b in zip(bysort, bysort[1:]):
        assert compare(a, b) <= 0


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    a = series(2, 3, {(0, 0): ONE, (1, 0): ONE})
    b = series(2, 3, {(0, 0): ONE, (1, 0): -ONE})
    prod = a * b
    assert prod == series(2, 3, {(0, 0): ONE, (2, 0): -ONE})


def test_mul_monomials():
    assert mono(2, 5, (1, 0)) * mono(2, 5, (0, 1)) == mono(2, 5, (1, 1))


def test_mul_geometric_square_against_convolution_oracle():
    s = uni(4, {k: ONE for k in range(5)})
    sq = s * s
    expected = oracle_mul(dict(s.coeffs), dict(s.coeffs))
    expected = {J: c for J, c in expected.items() if J[0] <= 4}
    assert dict(sq.coeffs) == expected
    for k in range(5):
        assert sq.coeff((k,)) == g(k + 1)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mono(2, 4, (1, 0)) * mono(3, 4, (1, 0, 0))


def test_precision_is_min_of_operands():
    a = mono(1, 7, (1,))
    b = mono(1, 3, (1,))
    assert (a * b).precision == 3
    assert (a + b).precision == 3


@st.composite
def small_series(draw, nvars=2, precision=5):
    nterms = draw(st.integers(0, 5))
    coeffs = {}
    for _ in range(nterms):
        J = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(J) > precision:
            continue
        coeffs[J] = GaussianRational(
            Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
            Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
        )
    return TruncSeries(nvars, precision, coeffs)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + b).coeffs == (b + a).coeffs


@given(small_series(), small_series(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_jet_of_product_matches_product_of_jets(a, b, k):
    assert jet(a * b, k).coeffs == jet(jet(a, k) * jet(b, k), k).coeffs


# shared small primes, or large primes coprime to them and to each other
_DENOMINATORS = st.one_of(
    st.lists(st.sampled_from([2, 3, 5, 7]), max_size=8).map(prod),
    st.sampled_from([10**9 + 7, 2**61 - 1, 2**89 - 1, 2**127 - 1]),
)
# small, or a digit times 10^k up to 10^400 (a few bytes of entropy each)
_NUMERATORS = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda m, k, r: m * 10**k + r,
              st.integers(-9, 9), st.integers(0, 399), st.integers(-9, 9)),
)


@st.composite
def kernel_coeff(draw):
    """Mostly zero, pure real or pure imaginary; numerators up to 10^400."""
    kind = draw(st.sampled_from(["zero", "zero", "zero", "real", "real", "imag", "both"]))
    if kind == "zero":
        return ZERO
    den = draw(_DENOMINATORS)
    re = 0 if kind == "imag" else draw(_NUMERATORS)
    im = 0 if kind == "real" else draw(_NUMERATORS)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


@st.composite
def kernel_series(draw):
    """Univariate series on both sides of the product's size rule: monomials
    and sparse series up to precision 200, and dense runs of 10-60 terms
    (some constant, which makes a product's slots as large as they can be),
    with terms beyond the precision."""
    prec = draw(st.integers(0, 200))
    shape = draw(st.sampled_from(["monomial", "sparse", "dense", "constant"]))
    if shape == "monomial":
        exps = [draw(st.integers(0, prec + 3))]
    elif shape == "sparse":
        exps = draw(st.lists(st.integers(0, prec + 10), max_size=8, unique=True))
    else:
        start = draw(st.integers(0, prec // 2 + 5))
        exps = range(start, start + draw(st.integers(10, 60)))
    if shape == "constant":
        c = draw(kernel_coeff())
        return uni(prec, {e: c for e in exps})
    return uni(prec, {e: draw(kernel_coeff()) for e in exps})


@st.composite
def kernel_pairs(draw):
    a, b = draw(kernel_series()), draw(kernel_series())
    if draw(st.integers(0, 4)) == 0:
        # c (t^s + ... + t^(s+L-1)) times d t^j (1 - t): the middle cancels
        c = draw(kernel_coeff()) or ONE
        s, L, j = draw(st.integers(0, 20)), draw(st.integers(10, 60)), draw(st.integers(0, 5))
        a = uni(a.precision, {e: c for e in range(s, s + L)})
        d = draw(kernel_coeff()) or ONE
        b = uni(b.precision, {j: d, j + 1: -d})
    return a, b


@given(kernel_pairs())
@settings(max_examples=100, deadline=None)
def test_univariate_product_matches_the_convolution_oracle(pair):
    a, b = pair
    prod_ab = a * b
    prec = min(a.precision, b.precision)
    assert prod_ab.precision == prec
    expected = {E: c for E, c in oracle_mul(a.coeffs, b.coeffs).items() if E[0] <= prec}
    assert prod_ab.coeffs == expected


def _dict_sum(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for E, v in b.items():
        out[E] = out.get(E, ZERO) + sign * v
    return {E: v for E, v in out.items() if v}


def _low(d: dict, k: int) -> dict:
    return {E: v for E, v in d.items() if E[0] <= k}


@given(kernel_pairs(), kernel_coeff(), st.integers(0, 210))
@settings(max_examples=100, deadline=None)
def test_dense_kernel_matches_the_dict_oracles(pair, c, k):
    # numerator lists over one denominator: zero, empty, complex and
    # unequal-length operands, denominators sharing small primes
    a, b = pair
    x, y = DenseSeries.from_exact(a), DenseSeries.from_exact(b)
    assert x.coeffs == a.coeffs and x.precision == a.precision
    prec = min(a.precision, b.precision)
    got = {
        "mul": (x * y, _low(oracle_mul(a.coeffs, b.coeffs), prec)),
        "add": (x + y, _low(_dict_sum(a.coeffs, b.coeffs, 1), prec)),
        "sub": (x - y, _low(_dict_sum(a.coeffs, b.coeffs, -1), prec)),
        "scale": (x.scale(c), {E: c * v for E, v in a.coeffs.items() if c}),
    }
    for op, (out, expected) in got.items():
        assert out.precision == (a.precision if op == "scale" else prec), op
        assert out.coeffs == expected, op
        assert gcd(out.den, *out.re, *out.im) == 1, op  # one gcd normalizes
    cut = x.with_precision(k)
    assert cut.precision == min(k, a.precision) and cut.coeffs == _low(a.coeffs, k)
    assert [x.coeff(e) for e in range(a.precision + 1)] == [
        a.coeffs.get((e,), ZERO) for e in range(a.precision + 1)]


@given(kernel_series(), st.integers(-12, 12), st.integers(1, 4))
@example(uni(3, {}), -2, 2)  # an empty series
@example(uni(3, {}), -5, 1)  # shifted below precision 0
@example(uni(4, {1: ONE}), -2, 1)  # a negative shift dropping a nonzero slot
@settings(max_examples=100, deadline=None)
def test_dense_shift_and_substitution_match_the_dict_oracles(a, e, m):
    # the dense recursion reads zero tests and orders as TruncSeries does,
    # and moves slots as the dict oracles move exponents
    x = DenseSeries.from_exact(a)
    assert x.is_zero() == a.is_zero() and x.order() == a.order()
    sub = x.substitute_power(m)
    assert (sub.precision, sub.coeffs) == (a.precision * m, a.substitute_power(m).coeffs)
    assert sub.coeffs == {(k * m,): c for (k,), c in a.coeffs.items()}
    if any(k + e < 0 for (k,) in a.coeffs):
        with pytest.raises(ValueError, match="negative exponent"):
            x.shift(e)
    elif a.precision + e < 0:
        with pytest.raises(PrecisionError):
            x.shift(e)
    else:
        out = x.shift(e)
        assert out.precision == a.precision + e
        assert out.coeffs == {(k + e,): c for (k,), c in a.coeffs.items()}
        assert out.order() == (None if a.is_zero() else a.order() + e)
        assert len(out.re) == len(out.im) <= out.precision + 1


@given(small_series(precision=5), small_series(precision=3), kernel_pairs(), kernel_coeff(),
       st.integers(0, 3), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_trusted_results_revalidate_unchanged(a, b, pair, c, k, m):
    # results built without validation are what the validating constructor keeps
    u, v = pair
    outs = [a + b, b + a, a - b, b - a, -a, a * b, b * a, a.scale(c), a.jet(k),
            u + v, v - u, u * v, -u, u.scale(c), u.jet(min(k, u.precision)),
            u.substitute_power(m)]
    for out in outs:
        assert TruncSeries(out.nvars, out.precision, out.coeffs).coeffs == out.coeffs


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


def test_jet_basic():
    s = uni(5, {0: ONE, 1: ONE, 2: ONE})
    assert jet(s, 1) == uni(1, {0: ONE, 1: ONE})
    assert jet(s, 0) == uni(0, {0: ONE})


def test_jet_idempotent():
    s = uni(6, {0: ONE, 2: g(3), 5: g(-1)})
    assert jet(jet(s, 4), 2) == jet(s, 2)


def test_jet_beyond_precision_refused():
    s = uni(3, {1: ONE})
    with pytest.raises(PrecisionError):
        jet(s, 4)


def test_unknown_tail_not_assumed_zero():
    s = uni(3, {1: ONE})
    with pytest.raises(PrecisionError):
        s.coeff((4,))


# ---------------------------------------------------------------------------
# inverse and division
# ---------------------------------------------------------------------------


def test_inverse_geometric():
    s = series(1, 6, {(0,): ONE, (1,): -ONE})
    inv = inverse(s)
    assert all(inv.coeff((k,)) == ONE for k in range(7))
    assert (s * inv) == TruncSeries.constant(1, 6, 1)


def test_inverse_multivariate_roundtrip():
    s = series(2, 5, {(0, 0): g(2), (1, 0): ONE, (0, 1): g(-1, 1)})
    assert (s * inverse(s)) == TruncSeries.constant(2, 5, 1)


def test_divide_shifts_order():
    num = uni(10, {3: g(4)})
    den = uni(10, {2: g(4)})
    assert divide(num, den) == uni(8, {1: ONE})


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_vanishing_order_minimum():
    assert vanishing_order(FormalCurve.from_monomials([2, 3], 10)) == 2
    c = FormalCurve([uni(10, {5: ONE, 7: -ONE}), TruncSeries.zero(1, 10)])
    assert vanishing_order(c) == 5


def test_constant_curve_flagged():
    c = FormalCurve.from_monomials([0, 0], 10)
    assert vanishing_order(c) is None
    assert c.is_constant()


def test_curve_must_vanish_at_origin():
    with pytest.raises(ValueError):
        FormalCurve([uni(5, {0: ONE})])


def test_reparametrize_scales_order_and_precision():
    c = FormalCurve.from_monomials([2, 3], 10)
    r = reparametrize(c, 2)
    assert vanishing_order(r) == 4
    assert r.precision == 20
    assert reparametrize(c, 1) == c
    with pytest.raises(ValueError):
        reparametrize(c, 0)


def test_reparametrize_monomial_example():
    c = FormalCurve.from_monomials([1, 0], 10)
    assert reparametrize(c, 3).components[0] == mono(1, 30, (3,))


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------


def test_pullback_exact_cancellation():
    s = series(2, 10, {(2, 0): ONE, (0, 3): -ONE})
    c = FormalCurve.from_monomials([3, 2], 60)
    assert pullback(s, c).is_zero()


def test_pullback_product_monomial():
    s = mono(2, 5, (1, 1))
    c = FormalCurve.from_monomials([1, 1], 20)
    assert pullback(s, c) == uni(5, {2: ONE})


def test_pullback_against_composition_oracle():
    s = series(2, 8, {(1, 0): ONE, (2, 0): ONE})
    z1 = {(1,): ONE, (2,): ONE}
    c = FormalCurve([uni(8, {1: ONE, 2: ONE}), TruncSeries.zero(1, 8)])
    got = pullback(s, c)
    expected = oracle_compose_univariate({(1,): ONE, (2,): ONE}, z1)
    assert dict(got.coeffs) == {k: v for k, v in expected.items() if k[0] <= got.precision}


def test_pullback_constant_curve_refused():
    with pytest.raises(ConstantCurveError):
        pullback(mono(2, 4, (1, 0)), FormalCurve.from_monomials([0, 0], 10))


def test_pullback_precision_rule():
    s = mono(2, 4, (1, 0))
    c = FormalCurve.from_monomials([2, 3], 30)
    assert pullback(s, c).precision == min(4 * 2, 30)


@given(small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_pullback_is_ring_homomorphism(a, b):
    c = FormalCurve([uni(30, {2: ONE, 3: g(1, 1)}), uni(30, {1: g(2)})])
    left = pullback(a * b, c)
    right = pullback(a, c) * pullback(b, c)
    k = min(left.precision, right.precision)
    assert left.agrees_with(right, k)


@st.composite
def monomial_curves(draw, dim=2):
    """Curves in C^dim whose components are zero or one term c t^a, c in
    Q(i), not all zero; one component may carry a term of degree 21, past
    every pullback precision of a precision-5 series along them."""
    P = 21
    comps = [uni(P, draw(st.dictionaries(
        st.integers(1, 4),
        st.builds(g, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3)),
        max_size=1,
    ))) for _ in range(dim)]
    curve = FormalCurve(comps)
    if curve.is_constant():
        curve = curve.with_component(0, uni(P, {1: g(1, -1)}))
    if draw(st.booleans()):
        i = draw(st.integers(0, dim - 1))
        curve = curve.with_component(i, curve.components[i] + uni(P, {P: g(1, 1)}))
    return curve


@given(small_series(), st.one_of(small_curves(), monomial_curves()))
@settings(max_examples=120, deadline=None)
def test_pullback_matches_the_curve_pullback_oracle(s, c):
    got = pullback(s, c)
    assert got.precision == min(s.precision * c.vanishing_order(), c.precision)
    holomorphic = {(J, (0, 0)): v for J, v in s.coeffs.items()}
    expected = oracle_curve_pullback(holomorphic, [dict(x.coeffs) for x in c.components])
    assert dict(got.coeffs) == {(a,): v for (a, _), v in expected.items() if a <= got.precision}


@given(st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_pullback_order_scales_under_reparametrization(m):
    s = series(2, 6, {(2, 0): ONE, (0, 1): g(0, 1), (1, 0): g(0, -1)})
    c = FormalCurve.from_monomials([1, 2], 24)
    base = pullback(s, c).order()
    scaled = pullback(s, reparametrize(c, m)).order()
    assert base is not None and scaled == m * base


def test_exponent_tuples_gcd_one():
    tuples = list(exponent_tuples(2, 3))
    assert (1, 0) in tuples and (3, 2) in tuples
    assert (2, 0) not in tuples and (0, 0) not in tuples and (2, 2) not in tuples
