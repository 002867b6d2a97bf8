"""Jet-level ideal linear algebra: membership, codimension, radicals."""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

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
    monomials_up_to,
    radical_membership,
    verify_combination,
)
from germforge.series import TruncSeries

from conftest import (
    OracleEagerSpan,
    mono,
    oracle_level_dims_monomial,
    oracle_product,
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


def test_monomial_tables_are_graded_lexicographic_and_built_once():
    table = monomials_up_to(3, 6)
    assert table == tuple(sorted((m for m in itertools.product(range(7), repeat=3)
                                  if sum(m) <= 6), key=lambda m: (sum(m), m)))
    assert monomials_up_to(3, 6) is table
    assert monomials_of_degree(3, 4) == tuple(m for m in table if sum(m) == 4)


def assert_matches_the_unskipped_span(I, probes, span, inserted):
    """A span built from the products ``inserted`` against the reference
    that inserts every product: the same pivots and membership verdicts at
    every level <= span.level, a checkable combination for each member,
    and every left-out product zero against the full span.  Returns the
    full span."""
    level = span.level
    full = OracleEagerSpan(I.generators, I.nvars, level, skip=False)
    for k in range(level + 1):
        assert ({P for P in span.rows if sum(P) <= k}
                == {P for P in full.rows if sum(P) <= k})
        for f in probes:
            vec = dict(f.jet(k).coeffs)
            residue, combination = span.express(vec, k)
            assert (not residue) == (not full.express(vec, k)[0])
            if not residue:
                assert verify_combination(f, I, combination, k)
    for idx, gen in enumerate(I.generators):
        for m in full_products(gen, I.nvars, level):
            if (idx, m) not in inserted:
                assert not full.express(oracle_product(gen, m, level), level)[0]
    return full


def full_products(gen, nvars, level):
    low = gen.order()
    if low is None:
        return []
    return [m for m in itertools.product(range(level + 1), repeat=nvars)
            if sum(m) <= level - low]


def built_span(I, level):
    """I.span(level), and the (generator, monomial) products it inserted."""
    inserted = set()
    insert = JetSpan.insert

    def recording(self, vec, combo):
        inserted.update(combo)
        return insert(self, vec, combo)

    with patch.object(JetSpan, "insert", recording):
        span = I.span(level)
    return span, inserted


def wrong_rule_span(I, level):
    """The product set of a rule that also skips a monomial when it is a
    pivot of the current generator's own earlier products."""
    span = JetSpan(I.nvars, level)
    inserted = set()
    for idx, gen in enumerate(I.generators):
        for m in sorted(full_products(gen, I.nvars, level), key=lambda m: (sum(m), m)):
            if m not in span.rows:
                span.insert(oracle_product(gen, m, level), {(idx, m): ONE})
                inserted.add((idx, m))
    return span, inserted


@given(ideals_with_probes())
@settings(max_examples=40, deadline=None)
def test_skipped_products_leave_the_span_unchanged(case):
    """The syzygy criterion against the unskipped build, at every level up
    to the deepest one drawn: equal pivots and codimensions, equal
    membership verdicts, and every product the span left out reduces to
    zero against the span of all of them."""
    I, probes, levels = case
    span, inserted = built_span(I, max(levels))
    full = assert_matches_the_unskipped_span(I, probes, span, inserted)
    if span.level >= 1:
        pivot_degrees = [sum(P) for P in full.rows]
        assert codimension(I, span.level).dims == [
            count_monomials(I.nvars, k) - sum(d <= k for d in pivot_degrees)
            for k in range(span.level)
        ]


def test_the_property_catches_a_wrong_skip_rule():
    """Skipping also on the current generator's own pivots loses products:
    for z1 + z2, the product z2 (z1 + z2) is skipped because z2 is the
    pivot of the generator itself.  The property fails on that ideal, and
    hypothesis finds a random ideal it fails on."""
    I = ideal(2, 4, {(1, 0): ONE, (0, 1): ONE})
    with pytest.raises(AssertionError):
        assert_matches_the_unskipped_span(I, [], *wrong_rule_span(I, 3))

    def fails(case):
        I, probes, levels = case
        try:
            assert_matches_the_unskipped_span(I, probes, *wrong_rule_span(I, max(levels)))
        except AssertionError:
            return True
        return False

    find(ideals_with_probes(), fails,
         settings=settings(max_examples=200, database=None, phases=[Phase.generate]))


@given(ideals_with_probes(), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_certificate_level_is_the_first_layer_max_power_subset_finds(case, bound):
    """codimension reads its certificate level from the span's pivots; the
    monomial-by-monomial scan it used to run is the oracle: the smallest
    l < B - 1 with M0^l inside I + M0^B, and finite exactly when one exists."""
    I, _, _ = case
    bound = min(bound, I.precision)
    rep = codimension(I, bound)
    level = bound - 1
    scanned = next((ell for ell in range(1, level) if max_power_subset(I, ell, level)), None)
    assert rep.certificate_level == scanned
    assert (rep.verdict == "finite") == (scanned is not None)
    if scanned is not None:
        assert [vc.variable for vc in rep.variable_certificates] == list(range(I.nvars))


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
