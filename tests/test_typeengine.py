"""Contact ratios, witness certification, search, unitary matching."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from germforge.coeffs import GaussianRational, ONE, ZERO, I as IMAG
from germforge.errors import (
    BlockSizeError,
    ConstantCurveError,
    GermforgeError,
    PrecisionError,
)
from germforge.hermitian import HermitianForm, decompose
from germforge.series import CurvePowers, FormalCurve, TruncSeries, reparametrize
from germforge.typeengine import (
    GramMismatch,
    UnitaryBlock,
    _degree_slice,
    _try_kill_lowest,
    build_ideal,
    component_pairs,
    dangelo_ratio,
    equivalence_check,
    match_unitary,
    monomial_curve_search,
    probe_slice_terms,
    witness_check,
)

from conftest import (
    g,
    hermitian,
    oracle_curve_pullback,
    random_real_form,
    small_curves,
    uni,
)


def re2(nvars, J):
    zero = (0,) * nvars
    return {(tuple(J), zero): ONE, (zero, tuple(J)): ONE}


def form_power(m, precision=30):
    """2 Re z2 + |z1|^(2m) in two variables."""
    pairs = re2(2, (0, 1))
    pairs[((m, 0), (m, 0))] = ONE
    return hermitian(2, precision, pairs)


def witness_form(precision=60):
    """2 Re z3 + |z1^2 - z2^3|^2 in three variables."""
    pairs = re2(3, (0, 0, 1))
    pairs.update(
        {
            ((2, 0, 0), (2, 0, 0)): ONE,
            ((2, 0, 0), (0, 3, 0)): -ONE,
            ((0, 3, 0), (2, 0, 0)): -ONE,
            ((0, 3, 0), (0, 3, 0)): ONE,
        }
    )
    return hermitian(3, precision, pairs)


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------


def test_ratio_fourth_power():
    r = form_power(2)
    c = FormalCurve.from_monomials([1, 0], 60)
    ratio = dangelo_ratio(r, c)
    assert not ratio.is_flagged
    assert ratio.numerator == 4 and ratio.denominator == 1
    assert ratio.value == 4
    # against the naive expansion
    expected = oracle_curve_pullback(r.full_map(), [{(1,): ONE}, {}])
    assert min(a + b for (a, b) in expected) == 4


def test_ratio_square():
    r = form_power(1)
    ratio = dangelo_ratio(r, FormalCurve.from_monomials([1, 0], 60))
    assert ratio.value == 2


def test_ratio_witness_curve_flagged():
    r = witness_form()
    c = FormalCurve.from_monomials([3, 2, 0], 150)
    ratio = dangelo_ratio(r, c)
    assert ratio.is_flagged
    assert ratio.numerator_bound >= 100
    assert ratio.denominator == 2


def test_ratio_rejects_constant_curve():
    with pytest.raises(ConstantCurveError):
        dangelo_ratio(form_power(1), FormalCurve.from_monomials([0, 0], 10))


def test_ratio_reparametrization_invariance_worked():
    r = form_power(2)
    c = FormalCurve.from_monomials([1, 0], 40)
    base = dangelo_ratio(r, c)
    for m in (2, 3, 5):
        scaled = dangelo_ratio(r, reparametrize(c, m))
        assert scaled.value == base.value
        assert scaled.numerator == m * base.numerator
        assert scaled.denominator == m * base.denominator


# ---------------------------------------------------------------------------
# witness checks
# ---------------------------------------------------------------------------


def test_witness_certified_to_50():
    r = witness_form()
    c = FormalCurve.from_monomials([3, 2, 0], 150)
    res = witness_check(r, c, 50)
    assert res.certified and res.order == 50


def test_witness_perturbed_fails_at_99():
    r = witness_form()
    c = FormalCurve.from_monomials([3, 2, 99], 150)
    res = witness_check(r, c, 110)
    assert not res.certified
    assert res.first_nonzero == 99
    assert res.offending_pair in ((99, 0), (0, 99))


def test_witness_direct_readout():
    # r o curve = |t|^2 exactly: first nonzero total degree 2
    r = hermitian(2, 10, {((1, 0), (1, 0)): ONE})
    res = witness_check(r, FormalCurve.from_monomials([1, 0], 30), 10)
    assert not res.certified and res.first_nonzero == 2


def test_witness_precision_guard():
    r = witness_form(precision=10)
    c = FormalCurve.from_monomials([3, 2, 0], 12)
    with pytest.raises(PrecisionError):
        witness_check(r, c, 50)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_power_family_best_is_axis():
    r = form_power(3, precision=20)
    results = monomial_curve_search(r, 3, 2)
    best_curve, best_ratio = results[0]
    assert best_ratio.value == 6
    check = dangelo_ratio(r, best_curve)
    assert check.value == best_ratio.value


def test_search_discovers_witness_curve():
    r = witness_form(precision=24)
    results = monomial_curve_search(r, 3, 2)
    best_curve, best_ratio = results[0]
    assert best_ratio.is_flagged
    orders = [c.order() for c in best_curve.components]
    assert sorted(o for o in orders if o is not None) == [2, 3]


def test_search_symmetric_difference():
    r = hermitian(2, 12, {((1, 0), (1, 0)): ONE, ((0, 1), (0, 1)): -ONE})
    results = monomial_curve_search(r, 2, 1)
    best_curve, best_ratio = results[0]
    assert best_ratio.is_flagged
    assert best_curve.components[0] == best_curve.components[1]


def test_search_never_overstates_ratio():
    rng = random.Random(3)
    for _ in range(5):
        r = random_real_form(rng, 2, 4, 10)
        if r.is_zero():
            continue
        for curve, ratio in monomial_curve_search(r, 2, 1)[:4]:
            again = dangelo_ratio(r, curve)
            if ratio.is_flagged:
                assert again.is_flagged
            else:
                assert again.value == ratio.value


@pytest.mark.parametrize("max_exponent", [0, -1])
def test_search_rejects_max_exponent_below_one(max_exponent):
    with pytest.raises(GermforgeError, match="max_exponent must be >= 1"):
        monomial_curve_search(form_power(1, precision=10), max_exponent, 1)


def test_search_restricts_only_through_the_degree_it_reads(monkeypatch):
    """The probes read one degree slice each, so they restrict only through
    that degree, from power tables shared across the probes of one step."""
    counts = {"mul": 0, "restrict": 0}
    mul, restrict = TruncSeries.__mul__, HermitianForm.restrict_to_curve

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_restrict(self, *args, **kwargs):
        counts["restrict"] += 1
        return restrict(self, *args, **kwargs)

    monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
    monkeypatch.setattr(HermitianForm, "restrict_to_curve", counted_restrict)
    results = monomial_curve_search(witness_form(precision=20), 3, 2)
    assert results[0][1].is_flagged
    assert counts["mul"] <= 20_000
    assert counts["restrict"] <= 2_500


def test_search_reads_probe_slices_from_the_base_table(monkeypatch):
    """Each probe reads its degree slice, as a polynomial in (delta, conj
    delta), from the base curve's power table in one pass: the perturbed
    curves are never restricted."""
    counts = {"mul": 0, "restrict": 0}
    mul, restrict = TruncSeries.__mul__, HermitianForm.restrict_to_curve

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_restrict(self, *args, **kwargs):
        counts["restrict"] += 1
        return restrict(self, *args, **kwargs)

    monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
    monkeypatch.setattr(HermitianForm, "restrict_to_curve", counted_restrict)
    results = monomial_curve_search(witness_form(precision=20), 3, 2)
    assert results[0][1].is_flagged
    assert counts["restrict"] <= 300
    assert counts["mul"] <= 1_000


def test_search_lists_the_form_pairs_once_per_component(monkeypatch):
    """The probes read r's pairs from one list per component, built once per
    search; only the full restrictions walk ``full_items`` themselves."""
    counts = {"walks": 0, "restrict": 0}
    walk, restrict = HermitianForm.full_items, HermitianForm.restrict_to_curve

    def counted_walk(self):
        counts["walks"] += 1
        return walk(self)

    def counted_restrict(self, *args, **kwargs):
        counts["restrict"] += 1
        return restrict(self, *args, **kwargs)

    monkeypatch.setattr(HermitianForm, "full_items", counted_walk)
    monkeypatch.setattr(HermitianForm, "restrict_to_curve", counted_restrict)
    r = witness_form(precision=20)
    results = monomial_curve_search(r, 3, 2)
    assert results[0][1].is_flagged
    assert counts["walks"] - counts["restrict"] <= r.nvars


small_gauss = st.builds(
    GaussianRational,
    st.fractions(-3, 3, max_denominator=4),
    st.fractions(-3, 3, max_denominator=4),
)


@given(
    st.integers(0, 10**6),
    small_curves(),
    st.integers(0, 1),
    st.integers(1, 5),
    small_gauss,
    st.booleans(),
    st.integers(1, 24),
)
@settings(max_examples=80, deadline=None)
def test_probe_slice_terms_give_the_perturbed_slice(seed, c, i, e, delta, cancel, m):
    """v0 + sum P_kl delta^k conj(delta)^l is the degree-m slice along the
    curve with delta t^e added to component i, for any delta, also one
    that cancels the component's leading term and so changes nu."""
    r = random_real_form(random.Random(seed), 2, 4, 6)
    comp = c.components[i]
    if cancel and not comp.is_zero():
        e = comp.order()
        delta = -comp.coeff(e)
    probe = c.with_component(i, comp + uni(c.precision, {e: delta}))
    m = min(m, r.restrict_to_curve(c).precision)
    got = _degree_slice(r.restrict_to_curve(c, upto=m), m)
    for (k, l), terms in probe_slice_terms(component_pairs(r)[i], CurvePowers(c, m), i, e, m).items():
        w = delta**k * delta.conjugate() ** l
        for key, v in terms.items():
            got[key] = got.get(key, ZERO) + w * v
    got = {key: v for key, v in got.items() if v}
    expected = oracle_curve_pullback(r.full_map(), [dict(x.coeffs) for x in probe.components])
    assert got == {
        (a, b): v for (a, b), v in expected.items() if a + b == m and (a <= b or b == 0)
    }
    if not probe.is_constant():
        along = r.restrict_to_curve(probe, upto=m)
        if along.precision == m:  # else lowering nu cut the restriction short of m
            assert got == _degree_slice(along, m)


def test_probe_through_the_zero_curve_is_read_like_any_other():
    """Adding 1 * t to the curve (0, -t) gives the zero curve at the probe
    point delta = 1; its slice is read from the terms (it is zero) instead of
    aborting the search as a restriction along a constant curve would."""
    r = hermitian(2, 4, {**re2(2, (0, 1)), ((0, 1), (0, 1)): ONE})
    c = FormalCurve([uni(6, {}), uni(6, {1: -ONE})])
    m = r.restrict_to_curve(c).order()
    v0 = _degree_slice(r.restrict_to_curve(c), m)
    assert (m, v0) == (1, {(1, 0): -ONE, (0, 1): -ONE})
    assert _try_kill_lowest(r, c, 1, 1, m, v0, CurvePowers(c, m), component_pairs(r)[1]) == ONE


# ---------------------------------------------------------------------------
# unitary matching
# ---------------------------------------------------------------------------


def test_match_identity():
    res = match_unitary([[ONE]], [[ONE]])
    assert isinstance(res, UnitaryBlock)
    assert res.is_exact and res.entries[0][0] == ONE


def test_match_phase():
    res = match_unitary([[IMAG]], [[ONE]])
    assert res.is_exact
    assert res.entries[0][0] == IMAG
    assert res.unitarity_defect() == 0.0


def test_match_swap_spans_requires_float():
    F = [[g(Fraction(3, 4)), g(Fraction(5, 4))]]
    G = [[g(Fraction(5, 4)), g(Fraction(3, 4))]]
    res = match_unitary(F, G)
    assert isinstance(res, UnitaryBlock)
    applied = res.apply(G[0])
    err = max(abs(complex(a) - complex(b)) for a, b in zip(applied, F[0]))
    assert err <= 1e-10
    assert res.unitarity_defect() <= 1e-10


def test_match_exact_coordinate_swap():
    # G on axis 1, F on axis 2, same span only when padded square covers both
    F = [[ZERO, g(2)], [g(3), ZERO]]
    G = [[g(2), ZERO], [ZERO, g(3)]]
    res = match_unitary(F, G)
    assert isinstance(res, UnitaryBlock)
    assert res.is_exact
    for f, gv in zip(F, G):
        assert res.apply(gv) == f


def test_match_reports_first_gram_mismatch():
    res = match_unitary([[ONE, ZERO]], [[ONE, ONE]])
    assert isinstance(res, GramMismatch)
    assert (res.row, res.col) == (0, 0)
    assert res.f_inner == ONE and res.g_inner == g(2)


def test_match_dimension_mismatch():
    from germforge.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        match_unitary([[ONE]], [[ONE, ZERO]])


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


def _phase_permutation(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    phases = [rng.choice([ONE, -ONE, IMAG, -IMAG]) for _ in range(dim)]
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][perm[i]] = phases[i]
    return rows

def _apply_matrix(rows, vec):
    return [
        sum((rows[i][j] * vec[j] for j in range(len(vec))), ZERO)
        for i in range(len(rows))
    ]


def test_match_constructed_pairs_roundtrip():
    rng = random.Random(99)
    for _ in range(12):
        dim = rng.randint(1, 4)
        count = rng.randint(1, dim)
        G = _random_exact_vectors(rng, count, dim)
        U0 = _phase_permutation(rng, dim)
        F = [_apply_matrix(U0, v) for v in G]
        res = match_unitary(F, G)
        assert isinstance(res, UnitaryBlock)
        assert res.unitarity_defect() <= 1e-10
        for f, gv in zip(F, G):
            got = res.apply(gv)
            err = max(abs(complex(a) - complex(b)) for a, b in zip(got, f))
            assert err <= 1e-10


# ---------------------------------------------------------------------------
# ideal construction and the norm chain
# ---------------------------------------------------------------------------


def test_build_ideal_worked_example():
    r = witness_form()
    d = decompose(r, 60)
    I = build_ideal(d, UnitaryBlock.identity(len(d.fs)))
    texts = {tuple(sorted(gen.coeffs)) for gen in I.generators}
    assert ((0, 0, 1),) in texts  # z3
    # z1^2 - z2^3 lies in the ideal: (1/2 z1^2 - z2^3) + 2*(1/2 z2^3)
    from germforge.ideals import membership_jet

    target = TruncSeries(3, 60, {(2, 0, 0): ONE, (0, 3, 0): -ONE})
    assert membership_jet(target, I, 10).contained


def test_build_ideal_self_conjugate_prunes_to_h():
    r = hermitian(2, 8, dict(re2(2, (0, 1))))
    d = decompose(r, 8)
    I = build_ideal(d, UnitaryBlock.identity(0))
    assert len(I.generators) == 1
    assert I.generators[0] == d.h


def test_build_ideal_block_too_small():
    r = witness_form()
    d = decompose(r, 60)
    with pytest.raises(BlockSizeError):
        build_ideal(d, UnitaryBlock.identity(1))


def test_equivalence_chain_on_witness():
    r = witness_form()
    d = decompose(r, 60)
    U = UnitaryBlock.identity(len(d.fs))
    c = FormalCurve.from_monomials([3, 2, 0], 150)
    assert equivalence_check(d, U, c, 40)
    wit = witness_check(r, c, 40)
    assert wit.certified


def test_equivalence_fails_on_perturbation():
    r = witness_form()
    d = decompose(r, 60)
    U = UnitaryBlock.identity(len(d.fs))
    c = FormalCurve.from_monomials([3, 2, 7], 150)
    assert not equivalence_check(d, U, c, 40)


def test_equivalence_zero_decomposition():
    r = hermitian(2, 20, {})
    d = decompose(r, 20)
    assert equivalence_check(
        d, UnitaryBlock.identity(0), FormalCurve.from_monomials([1, 1], 30), 15
    )


def test_jet_vectors_of_witness_decomposition_match():
    # wherever the pullback of r dies to high order, the degree-indexed
    # family vectors have equal Gram matrices and a block unitary exists
    from germforge.typeengine import _family_jet_vectors

    r = witness_form()
    d = decompose(r, 60)
    c = FormalCurve.from_monomials([3, 2, 0], 150)
    F, G = _family_jet_vectors(d, c, 24)
    res = match_unitary(F, G)
    assert isinstance(res, UnitaryBlock)
    assert res.unitarity_defect() <= 1e-10
    for f, gv in zip(F, G):
        got = res.apply(gv)
        err = max(abs(complex(a) - complex(b)) for a, b in zip(got, f))
        assert err <= 1e-10


def test_search_first_power_best_ratio_two():
    r = form_power(1, precision=10)
    results = monomial_curve_search(r, 2, 1)
    assert results[0][1].value == 2


def test_equivalence_implies_witness_random():
    rng = random.Random(21)
    hits = 0
    for _ in range(30):
        r = random_real_form(rng, 2, 4, 12)
        if r.is_zero():
            continue
        c = FormalCurve.from_monomials(
            [rng.randint(0, 2), rng.randint(1, 2)], 40
        )
        d = decompose(r, 12)
        U = UnitaryBlock.identity(len(d.fs))
        try:
            eq = equivalence_check(d, U, c, 10)
        except PrecisionError:
            continue
        if eq:
            hits += 1
            assert witness_check(r, c, 10).certified
    assert hits >= 1  # constant-free forms sometimes vanish on an axis
