"""Shared builders and independent oracles for the test suite.

The oracle implementations here deliberately avoid the library's own
arithmetic paths: plain dict convolutions and substitutions, so that a bug
in the production kernels cannot hide from the comparisons."""

from fractions import Fraction
import itertools
import random

import pytest
from hypothesis import strategies as st

from germforge.coeffs import GaussianRational, ZERO, ONE
from germforge.hermitian import HermitianForm
from germforge.series import FormalCurve, TruncSeries


# ---------------------------------------------------------------------------
# small constructors
# ---------------------------------------------------------------------------


def g(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def series(nvars, precision, terms) -> TruncSeries:
    return TruncSeries(nvars, precision, {tuple(J): c for J, c in terms.items()})


def mono(nvars, precision, J, c=1) -> TruncSeries:
    return TruncSeries.monomial(nvars, precision, J, c)


def uni(precision, terms) -> TruncSeries:
    return TruncSeries(1, precision, {(e,): c for e, c in terms.items()})


def curve(precision, *component_terms) -> FormalCurve:
    return FormalCurve([uni(precision, t) for t in component_terms])


def hermitian(nvars, precision, pairs) -> HermitianForm:
    return HermitianForm(nvars, precision, pairs)


@st.composite
def small_curves(draw, dim=2):
    """Curves in C^dim with up to three terms of degree 1..4 per component,
    not all components zero, at a precision of 3..16."""
    precision = draw(st.integers(3, 16))
    comps = []
    for _ in range(dim):
        terms = draw(st.dictionaries(
            st.integers(1, 4),
            st.builds(g, st.integers(-3, 3), st.integers(-3, 3)),
            max_size=3,
        ))
        comps.append(uni(precision, terms))
    curve = FormalCurve(comps)
    if curve.is_constant():
        curve = curve.with_component(0, uni(precision, {1: ONE}))
    return curve


# ---------------------------------------------------------------------------
# independent oracles (dict arithmetic only)
# ---------------------------------------------------------------------------


def oracle_mul(a: dict, b: dict) -> dict:
    """Naive full convolution of exponent->coefficient dicts."""
    out = {}
    for J, ca in a.items():
        for K, cb in b.items():
            E = tuple(x + y for x, y in zip(J, K))
            out[E] = out.get(E, ZERO) + ca * cb
    return {k: v for k, v in out.items() if v}


def oracle_str(c: GaussianRational) -> str:
    """str of a Gaussian rational, built from its parts as Fractions."""
    re, im = c.re, c.im
    if im == 0:
        return str(re)
    ims = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
    if re == 0:
        return ims
    return f"{re}{'+' if im > 0 else ''}{ims}"


def oracle_literal(c: GaussianRational) -> str:
    """The coefficient as a factor: parenthesized when both parts are nonzero."""
    return f"({oracle_str(c)})" if c.re != 0 and c.im != 0 else oracle_str(c)


def oracle_negative_lead(c: GaussianRational) -> bool:
    return c.re < 0 or (c.re == 0 and c.im < 0)


def oracle_pow(a: dict, e: int, nvars: int) -> dict:
    out = {(0,) * nvars: ONE}
    for _ in range(e):
        out = oracle_mul(out, a)
    return out


def oracle_compose_univariate(s: dict, z: dict) -> dict:
    """(s o z)(t) for univariate exponent dicts, full expansion."""
    out = {}
    for (e,), c in s.items():
        term = oracle_pow(z, e, 1)
        for E, v in term.items():
            out[E] = out.get(E, ZERO) + c * v
    return {k: v for k, v in out.items() if v}


def oracle_curve_pullback(full_pairs: dict, components: list) -> dict:
    """(a, b) -> coefficient of t^a tbar^b for a full (J, K)->c map pulled
    along curve components given as univariate exponent dicts."""
    n = len(components)

    def comp_power(i, e):
        return oracle_pow(components[i], e, 1)

    out = {}
    for (J, K), c in full_pairs.items():
        zJ = {(0,): ONE}
        for i, e in enumerate(J):
            if e:
                zJ = oracle_mul(zJ, comp_power(i, e))
        zK = {(0,): ONE}
        for i, e in enumerate(K):
            if e:
                zK = oracle_mul(zK, comp_power(i, e))
        for (a,), ca in zJ.items():
            for (b,), cb in zK.items():
                key = (a, b)
                out[key] = out.get(key, ZERO) + c * ca * cb.conjugate()
    return {k: v for k, v in out.items() if v}


def oracle_standard_monomials(gen_exponents, nvars, cap=40):
    """Brute-force standard-monomial enumeration for a monomial ideal:
    verdict ('finite', D) when every variable is eventually blocked, else
    ('unresolved', count of standard monomials with degree < cap)."""

    def divisible(m, gexp):
        return all(a >= b for a, b in zip(m, gexp))

    def standard(m):
        return not any(divisible(m, ge) for ge in gen_exponents)

    blocked = []
    for j in range(nvars):
        bound = None
        for e in range(cap):
            m = tuple(e if i == j else 0 for i in range(nvars))
            if not standard(m):
                bound = e
                break
        blocked.append(bound)
    finite = all(b is not None for b in blocked)

    count = 0

    def walk(prefix):
        nonlocal count
        if len(prefix) == nvars:
            if standard(tuple(prefix)):
                count += 1
            return
        j = len(prefix)
        top = blocked[j] if (finite and blocked[j] is not None) else cap
        for e in range(top):
            walk(prefix + [e])

    walk([])
    if finite:
        return "finite", count
    return "unresolved", None


def oracle_level_dims_monomial(gen_exponents, nvars, bound):
    """dim of quotient by (ideal + all monomials of degree >= k), k=1..bound,
    via direct standard-monomial counting."""

    def divisible(m, gexp):
        return all(a >= b for a, b in zip(m, gexp))

    def all_monomials(max_deg):
        if nvars == 1:
            return [(d,) for d in range(max_deg + 1)]
        out = []

        def rec(prefix, left):
            if len(prefix) == nvars - 1:
                for e in range(left + 1):
                    out.append(tuple(prefix + [e]))
                return
            for e in range(left + 1):
                rec(prefix + [e], left - e)

        rec([], max_deg)
        return out

    dims = []
    for k in range(1, bound + 1):
        cnt = 0
        for m in all_monomials(k - 1):
            if sum(m) < k and not any(divisible(m, ge) for ge in gen_exponents):
                cnt += 1
        dims.append(cnt)
    return dims


def oracle_product(gen, m, level):
    """Coefficient dict of z^m * gen through degree level."""
    return {tuple(a + b for a, b in zip(J, m)): c for J, c in gen.coeffs.items()
            if sum(J) + sum(m) <= level}


class OracleEagerSpan:
    """Jet-span elimination that expands every row's combination of
    (generator, monomial) products as it goes, in plain dicts: the
    reference for the library's lazily expanded combinations.  Rows are
    inserted in the library's order (generators in turn, monomials graded
    and lexicographic) from the library's product set: a product z^m * g_j
    is left out when m is a pivot of this span's own rows as generator j's
    turn starts.  So a member gets the same combination.  With
    ``skip=False`` every product goes in: the unskipped reference."""

    def __init__(self, generators, nvars: int, level: int, skip: bool = True):
        self.rows = {}
        monos = sorted((m for m in itertools.product(range(level + 1), repeat=nvars)
                        if sum(m) <= level), key=lambda m: (sum(m), m))
        for idx, gen in enumerate(generators):
            if not gen.coeffs:
                continue
            low = min(sum(J) for J in gen.coeffs)
            earlier = set(self.rows) if skip else set()
            for m in (m for m in monos if sum(m) <= level - low):
                if m in earlier:
                    continue
                prod = oracle_product(gen, m, level)
                vec, combo, lead = self._reduce(prod, {(idx, m): ONE}, level)
                if lead is not None:
                    inv = ONE / vec[lead]
                    self.rows[lead] = ({J: inv * c for J, c in vec.items()},
                                       {key: inv * c for key, c in combo.items()})

    def _reduce(self, vec, combo, k):
        vec, combo = dict(vec), dict(combo)
        while vec:
            lead = min(vec, key=lambda J: (sum(J), J))
            if lead not in self.rows:
                return vec, combo, lead
            rvec, rcombo = self.rows[lead]
            factor = vec[lead]
            for J, c in rvec.items():
                if sum(J) <= k:
                    vec[J] = vec.get(J, ZERO) - factor * c
                    if not vec[J]:
                        del vec[J]
            for key, c in rcombo.items():
                combo[key] = combo.get(key, ZERO) - factor * c
                if not combo[key]:
                    del combo[key]
        return vec, combo, None

    def express(self, vec, k):
        """(residue, combination) of vec against the level-k span."""
        residue, combo, _ = self._reduce(vec, {}, k)
        return residue, {key: -c for key, c in combo.items()}


def oracle_two_real_unknowns(rows):
    """Real x, y with x*a + y*b = c on every row (a, b, c) of Fractions, by
    row elimination; None if inconsistent.  Of the many solutions of a
    rank-1 system it returns the one with y = 0 when some a is nonzero,
    else the one with x = 0."""
    pivots = []
    for a, b, c in rows:
        for pa, pb, pc in pivots:
            if pa:
                f = a / pa
                a, b, c = Fraction(0), b - f * pb, c - f * pc
            elif pb and b:
                f = b / pb
                b, c = Fraction(0), c - f * pc
        if a == 0 and b == 0:
            if c != 0:
                return None
            continue
        pivots.append((a, b, c))
    x = y = Fraction(0)
    for pa, pb, pc in reversed(pivots):
        if pa:
            x = (pc - pb * y) / pa
        elif pb:
            y = pc / pb
    for a, b, c in rows:
        if x * a + y * b != c:
            return None
    return x, y


def reference_curve_search(r: HermitianForm, max_exponent: int, max_coeff_degree: int):
    """``monomial_curve_search`` as a plain loop that keeps nothing between
    steps: every exponent tuple's walk restricts each of its curves, and
    builds and solves each (component, degree) probe, afresh."""
    from germforge.series import CurvePowers, exponent_tuples
    from germforge.typeengine import (
        _degree_slice, _solve_affine, component_pairs, dangelo_ratio, probe_slice_terms, probe_table,
    )

    pairs = component_pairs(r)
    prec = r.precision * max_exponent
    results = []
    for exps in exponent_tuples(r.nvars, max_exponent):
        curve = FormalCurve.from_monomials(exps, prec)
        budget, used = sum(max_coeff_degree for a in exps if a), 0
        while used <= budget:
            p = r.restrict_to_curve(curve)
            m = p.order()
            if m is None:
                break
            v0, nu, base = _degree_slice(p, m), curve.vanishing_order(), CurvePowers(curve, m)
            for i, e in ((i, e) for i, a in enumerate(exps) if a
                         for e in range(a, a + max_coeff_degree + 1)):
                if e < nu and r.precision * e < m:
                    continue
                terms = probe_slice_terms(probe_table(pairs[i], base, i), base, e, m)
                delta = _solve_affine(terms, v0) if terms else None
                if delta is None:
                    continue
                cand = curve.with_component(i, curve.components[i] + uni(prec, {e: delta}))
                if cand.is_constant():
                    continue
                full = r.restrict_to_curve(cand)
                if full.jet(min(full.precision, m)).order() is not None:
                    continue
                curve, used = cand, used + 1
                break
            else:
                break
        results.append((curve, dangelo_ratio(r, curve)))
    results.sort(key=lambda cr: cr[1].sort_key(), reverse=True)
    return results


# ---------------------------------------------------------------------------
# randomized real-valued forms
# ---------------------------------------------------------------------------


def random_gauss(rng: random.Random, den=4, span=3) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def random_multidegree(rng: random.Random, nvars, max_total):
    while True:
        J = tuple(rng.randint(0, max_total) for _ in range(nvars))
        if sum(J) <= max_total:
            return J


def random_real_form(rng: random.Random, nvars, degree, precision) -> HermitianForm:
    """Random real-valued polynomial form: pluriharmonic terms, diagonal
    squares, and conjugate-completed mixed pairs."""
    pairs = {}

    def bump(J, K, c):
        key = (J, K)
        pairs[key] = pairs.get(key, ZERO) + c

    zero = (0,) * nvars
    for _ in range(rng.randint(0, 4)):
        J = random_multidegree(rng, nvars, degree)
        if J == zero:
            continue
        c = random_gauss(rng)
        bump(J, zero, c)
        bump(zero, J, c.conjugate())
    for _ in range(rng.randint(1, 6)):
        J = random_multidegree(rng, nvars, degree // 2)
        if J == zero:
            continue
        re_only = GaussianRational(random_gauss(rng).re)
        bump(J, J, re_only)
    for _ in range(rng.randint(0, 6)):
        J = random_multidegree(rng, nvars, degree - 1)
        K = random_multidegree(rng, nvars, degree - sum(J)) if sum(J) < degree else zero
        if J == zero or K == zero or J == K or sum(J) + sum(K) > degree:
            continue
        c = random_gauss(rng)
        bump(J, K, c)
        bump(K, J, c.conjugate())
    return HermitianForm(nvars, precision, pairs)


@pytest.fixture
def rng():
    return random.Random(20260808)
