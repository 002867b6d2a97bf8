"""The Gaussian-rational kernel against the textbook formulas on pairs.

The operators skip arithmetic on zero imaginary parts; drawing values
heavily from zero, pure real and pure imaginary numbers makes every such
short-cut meet the formula it replaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germforge.coeffs import GaussianRational

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(-5, 5, max_denominator=6),
)
gauss = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, rationals),
    st.builds(lambda b: GaussianRational(0, b), rationals),
    st.builds(GaussianRational, rationals, rationals),
)
scalars = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


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


def same(got, expected):
    assert type(got) is GaussianRational
    assert type(got.re) is type(got.im) is Fraction
    assert (got.re, got.im) == expected


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
