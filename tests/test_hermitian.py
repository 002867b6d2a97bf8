"""Square decomposition of real-valued coefficient forms."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from germforge.coeffs import GaussianRational, ONE, ZERO
from germforge.errors import RealityError
from germforge.hermitian import HermitianForm, decompose, reconstruct
from germforge.series import CurvePowers, FormalCurve, TruncSeries

from conftest import (
    g,
    hermitian,
    oracle_curve_pullback,
    random_real_form,
    series,
    small_curves,
    uni,
)


def two_re(nvars, precision, J, c=ONE):
    zero = (0,) * nvars
    return {(tuple(J), zero): c, (zero, tuple(J)): c.conjugate()}


def test_reality_enforced_on_construction():
    with pytest.raises(RealityError):
        HermitianForm(2, 6, {((1, 0), (0, 1)): ONE})
    with pytest.raises(RealityError):
        HermitianForm(2, 6, {((1, 0), (1, 0)): g(0, 1)})


def test_coeff_lookup_uses_conjugate_symmetry():
    r = hermitian(2, 6, {((1, 0), (0, 1)): g(2, 1), ((0, 1), (1, 0)): g(2, -1)})
    assert r.coeff((1, 0), (0, 1)) == g(2, 1)
    assert r.coeff((0, 1), (1, 0)) == g(2, -1)
    assert r.coeff((1, 1), (0, 0)) == ZERO


def test_decompose_modulus_square_worked_values():
    # 2 Re z2 + |z1|^2
    pairs = dict(two_re(2, 8, (0, 1)))
    pairs[((1, 0), (1, 0))] = ONE
    r = hermitian(2, 8, pairs)
    d = decompose(r, 8)
    assert d.h == series(2, 8, {(0, 1): ONE})
    assert len(d.fs) == 1
    J, f = d.fs[0]
    _, gg = d.gs[0]
    assert J == (1, 0)
    assert f == series(2, 8, {(1, 0): g(Fraction(5, 4))})
    assert gg == series(2, 8, {(1, 0): g(Fraction(3, 4))})
    # |f|^2 - |g|^2 recovers |z1|^2
    diff = f.coeff((1, 0)).norm2() - gg.coeff((1, 0)).norm2()
    assert diff == 1


def test_decompose_pure_pluriharmonic_has_no_families():
    r = hermitian(2, 6, two_re(2, 6, (0, 1)))
    d = decompose(r, 6)
    assert d.h == series(2, 6, {(0, 1): ONE})
    assert d.fs == [] and d.gs == []


def test_decompose_constant_halved_into_h():
    r = hermitian(1, 4, {((0,), (0,)): g(6)})
    d = decompose(r, 4)
    assert d.h.constant_term() == g(3)
    assert reconstruct(d, 4).agrees_with(r, 4)


def test_family_emission_bounded_by_truncation():
    # families only appear once their diagonal degree fits the jet
    pairs = {((2, 0), (2, 0)): ONE, ((0, 1), (0, 1)): ONE}
    r = hermitian(2, 8, pairs)
    d2 = decompose(r, 2)
    assert [J for J, _ in d2.fs] == [(0, 1)]
    d8 = decompose(r, 8)
    assert [J for J, _ in d8.fs] == [(0, 1), (2, 0)]


def test_decompose_reconstruct_cross_terms_order12():
    # |z1^2 - z2^3|^2 expanded into pairs
    pairs = {
        ((2, 0), (2, 0)): ONE,
        ((2, 0), (0, 3)): -ONE,
        ((0, 3), (2, 0)): -ONE,
        ((0, 3), (0, 3)): ONE,
    }
    r = hermitian(2, 12, pairs)
    d = decompose(r, 12)
    assert reconstruct(d, 12).agrees_with(r, 12)
    fam = {J: (f, gg) for (J, f), (_, gg) in zip(d.fs, d.gs)}
    f1, g1 = fam[(2, 0)]
    assert f1.coeff((2, 0)) == g(Fraction(5, 4))
    assert f1.coeff((0, 3)) == g(Fraction(-1, 2))
    assert g1.coeff((0, 3)) == g(Fraction(1, 2))


def test_reconstruct_empty_decomposition_is_zero():
    r = hermitian(2, 5, {})
    d = decompose(r, 5)
    assert reconstruct(d, 5).is_zero()


def test_reconstruct_h_only():
    from germforge.hermitian import Decomposition

    d = Decomposition(
        nvars=2, precision=4, h=series(2, 4, {(1, 0): ONE}), fs=[], gs=[]
    )
    out = reconstruct(d, 4)
    assert out.coeff((1, 0), (0, 0)) == ONE
    assert out.coeff((0, 0), (1, 0)) == ONE
    assert len(out.full_map()) == 2


def test_roundtrip_randomized_small():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        r = random_real_form(rng, n, 6, 8)
        for k in (3, 6):
            d = decompose(r, k)
            assert reconstruct(d, k).agrees_with(r, k)


def test_finiteness_family_count():
    rng = random.Random(11)
    for _ in range(20):
        r = random_real_form(rng, 2, 8, 8)
        k = 5
        d = decompose(r, k)
        assert all(sum(J) <= k for J, _ in d.fs)


def test_reconstruct_reality_preserved():
    rng = random.Random(13)
    for _ in range(15):
        r = random_real_form(rng, 2, 6, 6)
        out = reconstruct(decompose(r, 6), 6)
        for (J, K), c in out.full_map().items():
            assert out.coeff(K, J) == c.conjugate()


@given(st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_restrict_to_curve_matches_naive_expansion(seed, data):
    # random real forms in 2 or 3 variables along random curves; the result
    # is built trusted, so it must also be what the validating constructor keeps
    nvars = data.draw(st.integers(2, 3))
    r = random_real_form(random.Random(seed), nvars, 4, 6)
    c = data.draw(small_curves(dim=nvars))
    got = r.restrict_to_curve(c)
    assert got.precision == min(6 * c.vanishing_order(), c.precision)
    expected = oracle_curve_pullback(r.full_map(), [dict(x.coeffs) for x in c.components])
    assert got.full_map() == {
        ((a,), (b,)): v for (a, b), v in expected.items() if a + b <= got.precision
    }
    assert HermitianForm(1, got.precision, got.full_map()) == got


small_gauss = st.builds(
    g, st.fractions(-3, 3, max_denominator=3), st.fractions(-3, 3, max_denominator=3)
)


@given(
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 3), small_gauss), min_size=2, max_size=3),
    st.integers(0, 18),
)
@settings(max_examples=80, deadline=None)
def test_monomial_curves_restrict_like_the_series_loop(seed, comps, k):
    """Along a monomial curve (zero components allowed, and a term of degree
    P beyond every precision used) each image curve^J is one term read
    without series products: the image of a table built from products of
    the component powers, in the same dict order.  The restriction reading
    those images is the dict oracle's, and the term of degree P changes
    nothing."""
    r = random_real_form(random.Random(seed), len(comps), 4, 6)
    P = 6 * 3 + 1  # above precision * nu for every nu <= 3
    c = FormalCurve([uni(P, {a: x} if a and x else {}) for a, x in comps])
    if c.is_constant():
        return
    j = next(j for j, x in enumerate(c.components) if x)
    padded = c.with_component(j, c.components[j] + uni(P, {P: g(1, 1)}))
    powers = CurvePowers(padded, k)
    with mock.patch.object(TruncSeries, "__mul__", side_effect=AssertionError("a series product")):
        images = {E: powers.image(E) for J, K, _ in r.full_items() for E in (J, K)}
    products = CurvePowers(padded, k, single_terms=False)
    for E, got in images.items():
        prod = products.image(E)
        assert got == prod
        assert list(got.coeffs.items()) == list(prod.coeffs.items())
    got = r.restrict_to_curve(c)
    assert got.precision < P
    assert list(r.restrict_to_curve(padded).coeffs.items()) == list(got.coeffs.items())
    expected = oracle_curve_pullback(r.full_map(), [dict(x.coeffs) for x in c.components])
    assert got.full_map() == {
        ((a,), (b,)): v for (a, b), v in expected.items() if a + b <= got.precision
    }
