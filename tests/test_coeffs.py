"""The Gaussian-rational kernel against the textbook formulas on pairs.

The kernel stores (a + bi)/d as three ints and skips arithmetic on zero
imaginary parts; the oracle below works on pairs of ``Fraction``s.
Drawing values heavily from zero, pure real and pure imaginary numbers
makes every short-cut meet the formula it replaces, denominators built
from a few shared primes make the two parts (and the two operands) share
a factor with only one of the others, and parts up to 10^12 exercise the
gcd on large integers."""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from germforge.coeffs import GaussianRational

from conftest import oracle_literal, oracle_negative_lead, oracle_str

BIG = 10**12

smooth_dens = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4).map(prod)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(-5, 5, max_denominator=6),
    st.builds(Fraction, st.integers(-30, 30), smooth_dens),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
gauss = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, rationals),
    st.builds(lambda b: GaussianRational(0, b), rationals),
    st.builds(GaussianRational, rationals, rationals),
)
scalars = st.one_of(
    st.integers(-4, 4),
    st.integers(-BIG, BIG),
    st.fractions(-3, 3, max_denominator=4),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def pair(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def add(p, q):
    return p[0] + q[0], p[1] + q[1]


def sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n


def power(p, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = mul(out, p)
    return div((Fraction(1), Fraction(0)), out) if e < 0 else out


def normal(x):
    """The stored triple: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1)."""
    a, b, d = x._a, x._b, x._d
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    return a, b, d


def same(got, expected):
    assert type(got) is GaussianRational
    assert type(got.re) is type(got.im) is Fraction
    assert (got.re, got.im) == expected
    assert normal(got) == normal(GaussianRational(*expected))


@given(gauss, st.one_of(gauss, scalars))
@settings(max_examples=400, deadline=None)
def test_ring_operations_match_the_pair_formulas(x, y):
    p, q = pair(x), pair(y)
    same(x + y, add(p, q))
    same(y + x, add(q, p))
    same(x - y, sub(p, q))
    same(y - x, sub(q, p))
    same(x * y, mul(p, q))
    same(y * x, mul(q, p))
    same(-x, (-p[0], -p[1]))
    same(x.conjugate(), (p[0], -p[1]))
    if y:
        same(x / y, div(p, q))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if x:
        same(y / x, div(q, p))


@given(gauss, st.integers(-4, 6))
@settings(max_examples=200, deadline=None)
def test_powers_match_repeated_pair_products(x, e):
    if e < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x**e
        return
    same(x**e, power(pair(x), e))


@given(rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_construction_is_in_normal_form(re, im):
    x = GaussianRational(re, im)
    a, b, d = normal(x)
    assert (x.re, x.im) == (Fraction(a, d), Fraction(b, d)) == (re, im)
    if not re and not im:
        assert (a, b, d) == (0, 0, 1)


@given(gauss, st.one_of(st.fractions(0, 5, max_denominator=BIG), rationals))
@settings(max_examples=300, deadline=None)
def test_division_by_negative_reals_and_pure_imaginaries(x, q):
    p = pair(x)
    for y in (GaussianRational(-q), GaussianRational(0, q), GaussianRational(0, -q)):
        if not q:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        same(x / y, div(p, pair(y)))
        if x:
            same(y / x, div(pair(y), p))


@given(rationals)
@settings(max_examples=300, deadline=None)
def test_real_values_compare_and_hash_like_their_fractions(q):
    x = GaussianRational(q)
    assert x == q and q == x
    assert hash(x) == hash(q)
    assert {q: 1}[x] == 1 and {x: 1}[q] == 1
    if q.denominator == 1:
        n = int(q)
        assert x == n and n == x
        assert hash(x) == hash(n)
        assert {n: 1}[x] == 1
    assert x != GaussianRational(q, 1) and GaussianRational(q, 1) != q


def test_hash_and_eq_examples():
    assert {Fraction(3, 4): 1}[GaussianRational(Fraction(3, 4))] == 1
    assert {3: "three"}[GaussianRational(Fraction(6, 2))] == "three"
    assert GaussianRational(Fraction(1, 6), Fraction(1, 4)) == GaussianRational(
        Fraction(2, 12), Fraction(3, 12)
    )
    assert normal(GaussianRational(Fraction(1, 6), Fraction(1, 4))) == (2, 3, 12)
    assert GaussianRational(0, 1) != 1 and GaussianRational(1) != 1.5


@given(gauss)
@example(GaussianRational(1, Fraction(1, 2)))  # (2+i)/2: the parts reduce separately
@example(GaussianRational(Fraction(1, 3), 1))
@example(GaussianRational(Fraction(-5, 6), -1))
@example(GaussianRational(0, -1))
@example(GaussianRational(-BIG, Fraction(BIG - 1, BIG)))
@settings(max_examples=300, deadline=None)
def test_printing_matches_the_fraction_formulas(x):
    # str, the factor literal and the sign test read the integer triple
    for c in (x, -x, x.conjugate()):
        assert str(c) == oracle_str(c)
        assert c.literal() == oracle_literal(c)
        assert c.is_negative_lead() == oracle_negative_lead(c)


def test_printing_examples():
    assert str(GaussianRational(1, Fraction(1, 2))) == "1+1/2i"
    assert GaussianRational(Fraction(-3, 4), -1).literal() == "(-3/4-i)"
    assert [str(GaussianRational(0, b)) for b in (1, -1, Fraction(2, 6))] == ["i", "-i", "1/3i"]
    assert str(GaussianRational(Fraction(-6, 4))) == "-3/2" and str(GaussianRational(0)) == "0"
