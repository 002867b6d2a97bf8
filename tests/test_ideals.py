"""Jet-level ideal linear algebra: membership, codimension, radicals."""

import pytest
from hypothesis import given, settings, strategies as st

from germforge.coeffs import GaussianRational, ONE
from germforge.errors import ImproperIdealError, PrecisionError
from germforge.ideals import (
    IdealPresentation,
    JetSpan,
    codimension,
    count_monomials,
    intersection_diagnostic,
    max_power_subset,
    membership_jet,
    monomials_of_degree,
    radical_membership,
    verify_combination,
)
from germforge.series import TruncSeries

from conftest import (
    OracleEagerSpan,
    mono,
    oracle_level_dims_monomial,
    oracle_standard_monomials,
    series,
)


def ideal(nvars, precision, *gens):
    return IdealPresentation(nvars, [series(nvars, precision, t) for t in gens])


def monomial_ideal(nvars, precision, exps):
    return IdealPresentation(nvars, [mono(nvars, precision, J) for J in exps])


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_square_in_linear():
    I = monomial_ideal(2, 10, [(1, 0)])
    res = membership_jet(mono(2, 10, (2, 0)), I, 5)
    assert res.contained
    assert verify_combination(mono(2, 10, (2, 0)), I, res.combination, 5)


def test_membership_residue_reported():
    I = monomial_ideal(2, 10, [(1, 0)])
    res = membership_jet(mono(2, 10, (0, 1)), I, 5)
    assert not res.contained
    assert res.residue.coeffs == {(0, 1): ONE}


def test_membership_sum_of_cubes():
    I = ideal(2, 10, {(1, 0): ONE, (0, 1): ONE})
    f = series(2, 10, {(3, 0): ONE, (0, 3): ONE})
    res = membership_jet(f, I, 6)
    assert res.contained
    assert verify_combination(f, I, res.combination, 6)


def test_membership_precision_guard():
    I = monomial_ideal(2, 4, [(1, 0)])
    with pytest.raises(PrecisionError):
        membership_jet(mono(2, 10, (1, 0)), I, 6)


def test_improper_ideal_rejected():
    with pytest.raises(ImproperIdealError):
        ideal(2, 5, {(0, 0): ONE, (1, 0): ONE})


# ---------------------------------------------------------------------------
# codimension
# ---------------------------------------------------------------------------


def test_codimension_square_of_maximal_ideal():
    I = monomial_ideal(2, 14, [(2, 0), (1, 1), (0, 2)])
    rep = codimension(I, 8)
    assert rep.verdict == "finite"
    assert rep.value == 3
    assert rep.certificate_level == 2
    assert rep.dims == oracle_level_dims_monomial([(2, 0), (1, 1), (0, 2)], 2, 8)
    verdict, count = oracle_standard_monomials([(2, 0), (1, 1), (0, 2)], 2)
    assert (verdict, count) == ("finite", 3)


def test_codimension_single_variable_unresolved():
    I = monomial_ideal(2, 14, [(1, 0)])
    rep = codimension(I, 12)
    assert rep.verdict == "unresolved"
    assert rep.dims == list(range(1, 13))
    assert rep.lower_bound == 12


def test_codimension_mixed_powers():
    I = monomial_ideal(2, 14, [(1, 0), (0, 3)])
    rep = codimension(I, 8)
    assert rep.verdict == "finite" and rep.value == 3
    assert oracle_standard_monomials([(1, 0), (0, 3)], 2) == ("finite", 3)


def test_codimension_dims_nondecreasing_and_bounded():
    I = ideal(3, 12, {(1, 0, 0): ONE, (0, 2, 0): ONE}, {(0, 0, 2): ONE})
    rep = codimension(I, 8)
    for a, b in zip(rep.dims, rep.dims[1:]):
        assert a <= b
    for k, d in enumerate(rep.dims, start=1):
        assert d <= count_monomials(3, k - 1)


def test_codimension_monotone_under_inclusion():
    small = monomial_ideal(2, 12, [(2, 0)])
    big = monomial_ideal(2, 12, [(2, 0), (0, 2)])
    rs = codimension(small, 8)
    rb = codimension(big, 8)
    assert all(b <= s for b, s in zip(rb.dims, rs.dims))


def test_codimension_variable_certificates_verify():
    I = monomial_ideal(3, 12, [(2, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0)])
    rep = codimension(I, 8)
    assert rep.verdict == "finite"
    for vc in rep.variable_certificates:
        zje = mono(3, 12, tuple(vc.exponent if i == vc.variable else 0 for i in range(3)))
        assert verify_combination(zje, I, vc.combination, 7)


def test_codimension_binomial_substitution_case():
    # (z1 - z2, z2^2): eliminating z1 leaves one variable modulo z2^2
    I = ideal(2, 12, {(1, 0): ONE, (0, 1): -ONE}, {(0, 2): ONE})
    rep = codimension(I, 8)
    assert rep.verdict == "finite" and rep.value == 2
    assert oracle_standard_monomials([(2,)], 1) == ("finite", 2)


def test_codimension_principal_binomial_unresolved():
    I = ideal(2, 14, {(2, 0): ONE, (0, 3): -ONE})
    rep = codimension(I, 10)
    assert rep.verdict == "unresolved"
    assert rep.dims[0] == 1
    assert rep.dims[3] == 7  # 2k-1 for k >= 2


# ---------------------------------------------------------------------------
# one jet span per ideal
# ---------------------------------------------------------------------------


SPAN_IDEALS = [
    # finite: (z1 - z2 + z1^2, z2^2 + z1 z2)
    (2, [{(1, 0): ONE, (0, 1): -ONE, (2, 0): ONE}, {(0, 2): ONE, (1, 1): ONE}]),
    # unresolved principal cusp
    (2, [{(2, 0): ONE, (0, 3): -ONE}]),
    # finite in three variables, mixed degrees
    (3, [{(1, 0, 0): ONE, (0, 2, 0): ONE}, {(0, 1, 1): ONE}, {(0, 0, 3): ONE, (0, 3, 0): ONE}]),
]


@pytest.mark.parametrize("nvars,gens", SPAN_IDEALS)
def test_span_levels_read_from_one_span(nvars, gens):
    def fresh():
        return ideal(nvars, 14, *gens)

    bound = 8
    probes = [
        mono(nvars, 14, (3,) + (0,) * (nvars - 1)),
        mono(nvars, 14, (0,) * (nvars - 1) + (1,)),
        series(nvars, 14, {(1,) + (0,) * (nvars - 1): ONE, (0,) * (nvars - 1) + (2,): ONE}),
    ]

    def report_key(rep):
        certs = [(vc.variable, vc.exponent) for vc in rep.variable_certificates]
        return rep.dims, rep.verdict, rep.value, rep.certificate_level, certs

    I = fresh()
    first = codimension(I, bound)
    assert report_key(first) == report_key(codimension(fresh(), bound))
    for k in (4, 11):  # shallower, then deeper than the codimension span
        for f in probes:
            got = membership_jet(f, I, k)
            assert got.contained == membership_jet(f, fresh(), k).contained
            if got.contained:
                assert verify_combination(f, I, got.combination, k)
    again = codimension(I, bound)
    assert I.span(bound - 1).level == 11
    assert report_key(again) == report_key(first)
    for vc in again.variable_certificates:
        zje = mono(nvars, 14, tuple(vc.exponent if i == vc.variable else 0 for i in range(nvars)))
        assert verify_combination(zje, I, vc.combination, bound - 1)


def test_codimension_is_one_elimination(monkeypatch):
    levels = []
    insert = JetSpan.insert

    def counting_insert(self, vec, combo):
        levels.append(self.level)
        return insert(self, vec, combo)

    monkeypatch.setattr(JetSpan, "insert", counting_insert)
    nvars, gens = SPAN_IDEALS[2]
    bound = 8
    ideal(nvars, 14, *gens).span(bound - 1)
    one_build = len(levels)
    levels.clear()
    rep = codimension(ideal(nvars, 14, *gens), bound)
    assert rep.verdict == "finite"
    assert len(levels) == one_build
    assert set(levels) == {bound - 1}


coeffs = st.builds(
    GaussianRational,
    st.fractions(-3, 3, max_denominator=3),
    st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=3)),
).filter(bool)


@st.composite
def ideals_with_probes(draw):
    """A random ideal with complex coefficients, and probes: combinations of
    its generators (members at every level) plus random monomial terms."""
    nvars = draw(st.integers(2, 3))
    precision = draw(st.integers(3, 7))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda J: 1 <= sum(J) <= 4)
    gens = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    if draw(st.booleans()):  # a power of each variable: often finite codimension
        for i in range(nvars):
            power = tuple(draw(st.integers(1, 2)) if j == i else 0 for j in range(nvars))
            gens.append({**draw(st.dictionaries(exps, coeffs, max_size=2)), power: draw(coeffs)})
    I = ideal(nvars, precision, *gens)
    probes = []
    for _ in range(draw(st.integers(1, 3))):
        f = TruncSeries.zero(nvars, precision)
        for _ in range(draw(st.integers(1, 3))):
            idx = draw(st.integers(0, len(gens) - 1))
            J = draw(st.tuples(*[st.integers(0, 2)] * nvars))
            f = f + I.generators[idx] * mono(nvars, precision, J, draw(coeffs))
        extra = draw(st.dictionaries(exps, coeffs, max_size=2))
        probes.append(f + series(nvars, precision, extra))
    levels = draw(st.lists(st.integers(1, precision), min_size=1, max_size=3))
    return I, probes, levels


@given(ideals_with_probes())
@settings(max_examples=60, deadline=None)
def test_lazy_combinations_match_the_eager_reference(case):
    """Each membership combination, read from one span at several levels,
    is the dict the eagerly tracking reference gives; a non-member gets no
    combination."""
    I, probes, levels = case
    for k in levels:
        span = I.span(k)
        eager = OracleEagerSpan(I.generators, I.nvars, span.level)
        for f in probes:
            got = membership_jet(f, I, k)
            residue, combination = eager.express(dict(f.jet(k).coeffs), k)
            assert got.contained == (not residue)
            if got.contained:
                assert got.combination == combination
                assert verify_combination(f, I, got.combination, k)
            else:
                assert got.combination is None
                assert got.residue.coeffs == residue
                assert span.express(dict(f.jet(k).coeffs), k) == (residue, None)


def test_express_drops_cancelled_combination_terms():
    """Rows inserted with overlapping combinations: the expansion of z^2
    meets "a" once through each row, and the two cancel."""
    span = JetSpan(1, 2)
    assert span.insert({(1,): ONE}, {"a": ONE})
    assert span.insert({(1,): ONE, (2,): ONE}, {"a": ONE, "b": ONE})
    assert span.express({(2,): ONE}, 2) == ({}, {"b": ONE})
    assert span.express({(0,): ONE}, 2) == ({(0,): ONE}, None)


@given(ideals_with_probes())
@settings(max_examples=30, deadline=None)
def test_codimension_certificates_match_the_eager_reference(case):
    I, _, _ = case
    bound = I.precision
    rep = codimension(I, bound)
    eager = OracleEagerSpan(I.generators, I.nvars, bound - 1)
    for vc in rep.variable_certificates:
        m = tuple(vc.exponent if i == vc.variable else 0 for i in range(I.nvars))
        residue, combination = eager.express({m: ONE}, bound - 1)
        assert not residue and vc.combination == combination
        assert verify_combination(mono(I.nvars, I.precision, m), I, vc.combination, bound - 1)


# ---------------------------------------------------------------------------
# powers of the maximal ideal
# ---------------------------------------------------------------------------


def test_max_power_subset_basic():
    I = monomial_ideal(2, 12, [(2, 0), (1, 1), (0, 2)])
    assert max_power_subset(I, 2, 6)
    I2 = monomial_ideal(2, 12, [(1, 0)])
    assert not max_power_subset(I2, 2, 6)
    assert not max_power_subset(I2, 4, 8)


def test_max_power_subset_after_substitution():
    I = ideal(2, 12, {(1, 0): ONE, (0, 1): -ONE}, {(0, 2): ONE})
    assert max_power_subset(I, 2, 6)


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------


def test_radical_power_three():
    I = monomial_ideal(2, 12, [(3, 0)])
    p, combo = radical_membership(mono(2, 12, (1, 0)), I, 5, 9)
    assert p == 3


def test_radical_with_unit_factor():
    u = series(2, 12, {(0, 0): ONE, (1, 0): ONE})
    gsq = series(2, 12, {(1, 0): ONE, (0, 1): ONE}) ** 2
    I = IdealPresentation(2, [gsq * u])
    f = series(2, 12, {(1, 0): ONE, (0, 1): ONE})
    p, _ = radical_membership(f, I, 5, 9)
    assert p == 2


def test_radical_not_member():
    I = monomial_ideal(2, 12, [(1, 0)])
    assert radical_membership(mono(2, 12, (0, 1)), I, 4, 8) is None


def test_radical_unresolved_transfer():
    # principal prime-like generator: both it and its radical generator stay
    # unresolved at every level
    P = ideal(2, 14, {(2, 0): ONE, (0, 3): -ONE})
    rad_gen = ideal(2, 14, {(2, 0): ONE, (0, 3): -ONE})
    assert codimension(P, 10).verdict == "unresolved"
    assert codimension(rad_gen, 10).verdict == "unresolved"


# ---------------------------------------------------------------------------
# intersections
# ---------------------------------------------------------------------------


def test_intersection_both_finite_verified():
    M2 = monomial_ideal(2, 12, [(2, 0), (1, 1), (0, 2)])
    M3 = monomial_ideal(2, 12, [(3, 0), (2, 1), (1, 2), (0, 3)])
    rep = intersection_diagnostic(M2, M3, 8)
    assert rep.both_finite
    assert rep.intersection_level == 3
    assert rep.intersection_verified


def test_intersection_one_unresolved():
    I1 = monomial_ideal(2, 12, [(1, 0)])
    M2 = monomial_ideal(2, 12, [(2, 0), (1, 1), (0, 2)])
    rep = intersection_diagnostic(I1, M2, 8)
    assert not rep.both_finite
    assert rep.report1.verdict == "unresolved"
    assert rep.report2.verdict == "finite"


def test_intersection_product_unresolved_axes():
    I1 = monomial_ideal(2, 12, [(1, 0)])
    I2 = monomial_ideal(2, 12, [(0, 1)])
    rep = intersection_diagnostic(I1, I2, 8)
    assert rep.report1.verdict == "unresolved"
    assert rep.report2.verdict == "unresolved"
    assert rep.product_report.verdict == "unresolved"
