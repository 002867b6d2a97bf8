"""Jet-level linear algebra on ideals of truncated power series.

True membership in an ideal I of the formal local ring is undecidable from
finite data; every operation here decides the computable surrogate
``f in I + M0^(k+1)`` by exact row reduction over the monomial basis of
degree <= k, where M0 is the maximal ideal.  This surrogate is precisely
what the finiteness, radical and intersection arguments consume, and a
membership certificate at level k >= l genuinely proves M0^l inside I by
the standard Nakayama argument for complete local rings.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .coeffs import GaussianRational, ZERO, ONE
from .errors import (
    DimensionMismatch,
    GermforgeError,
    ImproperIdealError,
    PrecisionError,
)
from .series import Multidegree, TruncSeries, degree_key


def monomials_up_to(nvars: int, k: int):
    """All exponent tuples of total degree <= k."""
    if nvars == 1:
        return [(d,) for d in range(k + 1)]
    out = []
    for d in range(k + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree exactly d."""
    if nvars == 1:
        return [(d,)]
    out = []
    for head in range(d + 1):
        for tail in monomials_of_degree(nvars - 1, d - head):
            out.append((head,) + tail)
    return out


def count_monomials(nvars: int, max_degree: int) -> int:
    """Number of monomials of degree <= max_degree (binomial count)."""
    from math import comb

    return comb(max_degree + nvars, nvars)


class IdealPresentation:
    """Finite generator list, all vanishing at the origin, with a shared
    certified precision.  ``normal_form`` optionally carries user-supplied
    Weierstrass data (see the weierstrass module)."""

    __slots__ = ("nvars", "generators", "precision", "normal_form", "_span")

    def __init__(
        self,
        nvars: int,
        generators: Sequence[TruncSeries],
        normal_form=None,
    ):
        gens = []
        prec = None
        for g in generators:
            if g.nvars != nvars:
                raise DimensionMismatch("generator variable count mismatch")
            if g.constant_term():
                raise ImproperIdealError(
                    "generator has a nonzero constant term; the ideal is not proper"
                )
            prec = g.precision if prec is None else min(prec, g.precision)
            gens.append(g)
        if prec is None:
            raise ImproperIdealError("an ideal presentation needs generators")
        self.nvars = nvars
        self.generators = tuple(g.with_precision(prec) for g in gens)
        self.precision = prec
        self.normal_form = normal_form
        self._span: Optional["JetSpan"] = None

    def span(self, k: int) -> "JetSpan":
        """Row-reduced span of { jet_L(m * g) } with combination tracking, at
        the deepest level L >= k asked for so far.  One span serves every
        level <= L (see :meth:`JetSpan.express`); it is rebuilt only when a
        deeper level is asked for."""
        if k > self.precision:
            raise PrecisionError(
                f"membership level {k} exceeds ideal precision {self.precision}"
            )
        if self._span is None or self._span.level < k:
            got = JetSpan(self.nvars, k)
            for idx, g in enumerate(self.generators):
                o = g.order()
                if o is None:
                    continue
                for m in monomials_up_to(self.nvars, k - o):
                    got.insert(_mono_times(g, m, k), {(idx, m): ONE})
            self._span = got
        return self._span

    def __str__(self) -> str:
        from .formats import format_ideal

        return format_ideal(self)

    __repr__ = __str__


def _mono_times(g: TruncSeries, m: Multidegree, k: int) -> Dict[Multidegree, GaussianRational]:
    """Coefficient vector of jet_k(z^m * g)."""
    out = {}
    for J, c in g.coeffs.items():
        E = tuple(a + b for a, b in zip(J, m))
        if sum(E) <= k:
            out[E] = c
    return out


class JetSpan:
    """Echelonized row space over the degree <= level monomial basis.

    Rows are normalized to leading coefficient 1 with the pivot at the
    smallest multidegree in the fixed total order.

    The order is graded, so truncating the rows to degree <= k drops exactly
    the rows pivoting above degree k and leaves an echelon basis of the
    level-k span: every shallower level, and its rank (the number of pivots
    of degree <= k), is read from this one elimination.

    Combinations are kept as a sparse L factor, not expanded per row: each
    row stores its inverse leading coefficient, the combination it was
    inserted with (its origin) and the reduction steps (pivot, factor) that
    made it.  The row is then inv * (origin - sum factor * row(pivot)), and
    :meth:`express` expands that recursion only for a vector in the span."""

    def __init__(self, nvars: int, level: int):
        self.nvars = nvars
        self.level = level
        # pivot -> (normalized vector, inv, origin, steps), in insertion order
        self.rows: Dict[Multidegree, Tuple[dict, GaussianRational, dict, list]] = {}

    def reduce(self, vec: dict, k: int):
        """Reduce a vector over the degree <= k monomials against the rows
        truncated to degree <= k (k <= level).  Returns (residue, steps, lead
        of the residue or None); steps lists each (pivot, factor) taken."""
        if k > self.level:
            raise PrecisionError(f"level {k} exceeds span level {self.level}")
        truncate = k < self.level
        vec = dict(vec)
        steps = []
        while vec:
            lead = min(vec, key=degree_key)
            got = self.rows.get(lead)
            if got is None:
                return vec, steps, lead
            rvec = got[0]
            factor = vec[lead]
            steps.append((lead, factor))
            if truncate:
                rvec = {J: c for J, c in rvec.items() if sum(J) <= k}
            for J, c in rvec.items():
                v = vec.get(J, ZERO) - factor * c
                if v:
                    vec[J] = v
                else:
                    vec.pop(J, None)
        return vec, steps, None

    def insert(self, vec: dict, combo: dict) -> bool:
        """Add a row that equals the combination ``combo`` of (generator,
        monomial) products; returns True when it enlarged the span."""
        vec, steps, lead = self.reduce(vec, self.level)
        if lead is None:
            return False
        inv = ONE / vec[lead]
        vec = {J: inv * c for J, c in vec.items()}
        self.rows[lead] = (vec, inv, combo, steps)
        return True

    def express(self, vec: dict, k: int):
        """Reduce a vector over the degree <= k monomials against the level-k
        span (k <= level).

        Returns (residue, combination).  An empty residue means the vector
        lies in the span and equals sum combination[(gen, mono)] * z^mono *
        g_gen modulo degrees > k; with a nonzero residue the combination is
        None."""
        residue, steps, _ = self.reduce(vec, k)
        if residue:
            return residue, None
        # vec = sum factor * row(pivot); unfold rows newest first, since a
        # row's steps only name rows inserted before it.
        weight = dict(steps)
        combination: Dict[Tuple[int, Multidegree], GaussianRational] = {}
        for lead in reversed(self.rows):
            w = weight.pop(lead, None)
            if not w:
                continue
            _, inv, origin, rsteps = self.rows[lead]
            w = w * inv
            for key, c in origin.items():
                combination[key] = combination.get(key, ZERO) + w * c
            for pivot, factor in rsteps:
                weight[pivot] = weight.get(pivot, ZERO) - w * factor
            if not weight:
                break
        return residue, {key: c for key, c in combination.items() if c}


@dataclass
class MembershipResult:
    contained: bool
    level: int
    combination: Optional[Dict[Tuple[int, Multidegree], GaussianRational]]
    residue: Optional[TruncSeries]


def membership_jet(f: TruncSeries, I: IdealPresentation, k: int) -> MembershipResult:
    """Decide jet_k(f) in span{ jet_k(m*g) } by exact row reduction; this is
    membership in I + M0^(k+1).  Returns the certifying combination or the
    nonzero residue class."""
    if f.nvars != I.nvars:
        raise DimensionMismatch("series and ideal in different variable counts")
    if k > f.precision:
        raise PrecisionError(f"membership level {k} exceeds series precision")
    residue, combination = I.span(k).express(dict(f.jet(k).coeffs), k)
    if residue:
        return MembershipResult(False, k, None, TruncSeries(I.nvars, k, residue))
    return MembershipResult(True, k, combination, None)


def verify_combination(
    f: TruncSeries,
    I: IdealPresentation,
    combination: Dict[Tuple[int, Multidegree], GaussianRational],
    k: int,
) -> bool:
    """Re-expand a membership combination and compare jets; used to make
    certificates independently checkable."""
    acc = TruncSeries.zero(I.nvars, k)
    for (idx, m), c in combination.items():
        acc = acc + TruncSeries(I.nvars, k, _mono_times(I.generators[idx], m, k)).scale(c)
    return acc.agrees_with(f, k)


@dataclass
class VariableCertificate:
    variable: int
    exponent: int
    combination: Dict[Tuple[int, Multidegree], GaussianRational]


@dataclass
class CodimReport:
    """Per-level quotient dimensions dim O/(I + M0^k) for k = 1..bound and
    the finiteness verdict.  A finite verdict carries the per-variable power
    certificates plus the level l with every degree-l monomial certified in
    the ideal; unresolved verdicts only bound the codimension from below."""

    nvars: int
    bound: int
    dims: List[int]
    verdict: str  # "finite" | "unresolved"
    value: Optional[int] = None
    certificate_level: Optional[int] = None
    variable_certificates: List[VariableCertificate] = field(default_factory=list)
    lower_bound: int = 0

    def dim_at(self, k: int) -> int:
        return self.dims[k - 1]

    def __str__(self) -> str:
        from .formats import format_codim_report

        return format_codim_report(self)

    __repr__ = __str__


def codimension(I: IdealPresentation, bound: int) -> CodimReport:
    """Quotient dimensions up to the bound, with the finiteness certificate.

    The verdict is finite only when (a) the dimension sequence repeats over
    two consecutive levels, (b) every variable has a certified power in the
    ideal at the deepest level, and (c) some full monomial layer M0^l is
    certified inside the ideal, which is sound at jet level."""
    if bound < 1:
        raise GermforgeError(f"codimension bound must be >= 1, got {bound}")
    if bound > I.precision:
        raise PrecisionError(
            f"bound {bound} exceeds ideal precision {I.precision}"
        )
    level = bound - 1
    span = I.span(level)
    # dims[k] = dim O/(I + M0^(k+1)): monomials minus pivots of degree <= k
    pivot_degrees = sorted(sum(P) for P in span.rows)
    dims = [
        count_monomials(I.nvars, k) - bisect_right(pivot_degrees, k)
        for k in range(bound)
    ]

    stab = None
    for k in range(1, bound):
        if dims[k - 1] == dims[k]:
            stab = k
            break

    if stab is not None:
        value = dims[stab - 1]
        var_certs: List[VariableCertificate] = []
        for j in range(I.nvars):
            found = None
            for e in range(1, min(value, level) + 1):
                m = tuple(e if i == j else 0 for i in range(I.nvars))
                residue, combo = span.express({m: ONE}, level)
                if not residue:
                    found = VariableCertificate(j, e, combo)
                    break
            if found is None:
                break
            var_certs.append(found)
        if len(var_certs) == I.nvars:
            cert_level = None
            for ell in range(1, level):
                if max_power_subset(I, ell, level):
                    cert_level = ell
                    break
            if cert_level is not None:
                return CodimReport(
                    nvars=I.nvars,
                    bound=bound,
                    dims=dims,
                    verdict="finite",
                    value=value,
                    certificate_level=cert_level,
                    variable_certificates=var_certs,
                    lower_bound=value,
                )
    return CodimReport(
        nvars=I.nvars,
        bound=bound,
        dims=dims,
        verdict="unresolved",
        lower_bound=dims[-1],
    )


def max_power_subset(I: IdealPresentation, ell: int, k: int) -> bool:
    """Whether every monomial of degree ell lies in I + M0^(k+1)."""
    if not ell < k:
        raise ValueError("need ell < k")
    if k > I.precision:
        raise PrecisionError(f"level {k} exceeds ideal precision")
    span = I.span(k)
    for m in monomials_of_degree(I.nvars, ell):
        if span.reduce({m: ONE}, k)[0]:
            return False
    return True


def radical_membership(
    f: TruncSeries, I: IdealPresentation, maxpow: int, k: int
) -> Optional[Tuple[int, Dict]]:
    """Smallest power p <= maxpow with f^p in I + M0^(k+1), as (p, combination),
    or None."""
    if k > f.precision:
        raise PrecisionError("membership level exceeds series precision")
    power = TruncSeries.constant(f.nvars, f.precision, 1)
    for p in range(1, maxpow + 1):
        power = power * f
        res = membership_jet(power, I, k)
        if res.contained:
            return p, res.combination
    return None


@dataclass
class IntersectionReport:
    report1: CodimReport
    report2: CodimReport
    product_report: CodimReport
    both_finite: bool
    intersection_level: Optional[int]
    intersection_verified: Optional[bool]

    def __str__(self) -> str:
        from .formats import format_intersection_report

        return format_intersection_report(self)

    __repr__ = __str__


def intersection_diagnostic(
    I1: IdealPresentation, I2: IdealPresentation, bound: int
) -> IntersectionReport:
    """Codimension reports for both ideals and their product (an inner bound
    for the intersection).  When both certify finite with levels l1, l2 the
    containment M0^max(l1,l2) within the intersection is verified monomial
    by monomial."""
    if I1.nvars != I2.nvars:
        raise DimensionMismatch("ideals in different variable counts")
    r1 = codimension(I1, bound)
    r2 = codimension(I2, bound)
    product_gens = [g1 * g2 for g1, g2 in itertools.product(I1.generators, I2.generators)]
    rp = codimension(IdealPresentation(I1.nvars, product_gens), min(bound, min(g.precision for g in product_gens)))
    both = r1.verdict == "finite" and r2.verdict == "finite"
    level = None
    verified = None
    if both:
        level = max(r1.certificate_level, r2.certificate_level)
        k = min(I1.precision, I2.precision, bound)
        if level < k:
            verified = max_power_subset(I1, level, k) and max_power_subset(I2, level, k)
        else:
            verified = False
    return IntersectionReport(r1, r2, rp, both, level, verified)
