"""Contact-order ratios, witness certification, monomial curve search, and
jet-level unitary matching.

The ratio of a defining form r along a curve is ord(r o curve) / ord(curve),
computed from the exact pullback of the coefficient form.  An infinite-type
candidate is always reported as "vanishing certified through order N" for
the stated N, never as a completed infinite statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeffs import GaussianRational, ZERO, ONE, I as IMAG, as_gauss
from .errors import (
    BlockSizeError,
    ConstantCurveError,
    DimensionMismatch,
    ExactnessError,
    GermforgeError,
    PrecisionError,
)
from .hermitian import Decomposition, HermitianForm
from .ideals import IdealPresentation
from .series import (
    CurvePowers,
    FormalCurve,
    Multidegree,
    TruncSeries,
    exponent_tuples,
    pullback,
)


# ---------------------------------------------------------------------------
# ratios and witness checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeRatio:
    """Contact-order ratio along one curve.

    ``numerator`` is the exact vanishing order of the pulled-back form when
    it resolves within precision; otherwise None, and ``numerator_bound``
    certifies ord >= numerator_bound.  The overall supremum over curves is
    only ever bounded from below by search results."""

    numerator: Optional[int]
    numerator_bound: int
    denominator: int

    @property
    def is_flagged(self) -> bool:
        return self.numerator is None

    @property
    def value(self) -> Optional[Fraction]:
        if self.numerator is None:
            return None
        return Fraction(self.numerator, self.denominator)

    @property
    def value_bound(self) -> Fraction:
        return Fraction(self.numerator_bound, self.denominator)

    def sort_key(self):
        if self.is_flagged:
            return (1, self.value_bound)
        return (0, self.value)

    def __str__(self) -> str:
        if self.is_flagged:
            return f">= {self.numerator_bound}/{self.denominator}"
        return f"{self.numerator}/{self.denominator} = {self.value}"


def dangelo_ratio(r: HermitianForm, curve: FormalCurve) -> TypeRatio:
    """Exact ratio ord(r o curve)/ord(curve), or a flagged lower bound when
    the pullback vanishes through the certified precision."""
    nu = curve.vanishing_order()
    if nu is None:
        raise ConstantCurveError("type ratio along a constant curve is ill-posed")
    return _ratio_from(r.restrict_to_curve(curve), nu)


def _ratio_from(p: HermitianForm, nu: int) -> TypeRatio:
    """The ratio read from the full restriction p along a curve of order nu."""
    m = p.order()
    if m is None:
        return TypeRatio(numerator=None, numerator_bound=p.precision + 1, denominator=nu)
    return TypeRatio(numerator=m, numerator_bound=m, denominator=nu)


@dataclass
class WitnessResult:
    certified: bool
    order: int
    first_nonzero: Optional[int] = None
    offending_pair: Optional[Tuple[int, int]] = None
    coefficient: Optional[GaussianRational] = None

    def __str__(self) -> str:
        from .formats import format_witness

        return format_witness(self)

    __repr__ = __str__


def witness_check(r: HermitianForm, curve: FormalCurve, N: int) -> WitnessResult:
    """Certify that jet_N(r o curve) = 0 coefficient-exactly, or report the
    first violating term."""
    nu = curve.vanishing_order()
    if nu is None:
        raise ConstantCurveError("witness check along a constant curve")
    p = r.restrict_to_curve(curve)
    if p.precision < N:
        raise PrecisionError(
            f"pullback certified only through {p.precision} < requested {N}; "
            "raise the input precisions"
        )
    worst = None
    for (a, b), c in p.coeffs.items():
        d = a[0] + b[0]
        if d <= N and (worst is None or d < worst[0]):
            worst = (d, (a[0], b[0]), c)
    if worst is None:
        return WitnessResult(certified=True, order=N)
    return WitnessResult(
        certified=False,
        order=N,
        first_nonzero=worst[0],
        offending_pair=worst[1],
        coefficient=worst[2],
    )


# ---------------------------------------------------------------------------
# monomial curve search
# ---------------------------------------------------------------------------


def _degree_slice(p: HermitianForm, m: int) -> Dict[Tuple[int, int], GaussianRational]:
    out = {}
    for (a, b), c in p.coeffs.items():
        if a[0] + b[0] == m:
            out[(a[0], b[0])] = c
    return out


PairList = List[Tuple[Multidegree, Multidegree, GaussianRational]]
# (k, l, lowest t-degree, J - k e_i, K - l e_i, c C(J_i, k) C(K_i, l))
ProbeTable = List[Tuple[int, int, int, Multidegree, Multidegree, GaussianRational]]


def component_pairs(r: HermitianForm) -> List[PairList]:
    """For each component i, r's pairs (J, K, c), conjugate partners
    included, with J[i] or K[i] nonzero: the pairs a perturbation of
    component i reaches."""
    full = list(r.full_items())
    return [[(J, K, c) for J, K, c in full if J[i] or K[i]] for i in range(r.nvars)]


def probe_table(pairs: PairList, base: CurvePowers, i: int) -> ProbeTable:
    """The terms by which adding delta * t^e to component i changes r's
    restriction along base's curve, listed once for every e; ``pairs`` is
    r's list for component i from :func:`component_pairs`.

    Expanding (gamma_i + delta t^e)^{J_i} binomially, a pair (J, K, c)
    gives for each (k, l), k <= J_i, l <= K_i, k + l >= 1, the term
    c C(J_i, k) C(K_i, l) gamma^{J - k e_i} conj(gamma^{K - l e_i})
    delta^k conj(delta)^l t^{ek} tbar^{el}.  An entry holds the lowest
    t-degree of the two images (from the component orders at base's
    precision); a term whose image is zero through that precision is left
    out."""
    ords = [c.order() for c in base.components]

    def lowest(J) -> Optional[int]:
        """Lowest degree of curve^J, None when it is zero through base's precision."""
        low = 0
        for j, x in enumerate(J):
            if x:
                if ords[j] is None:
                    return None
                low += x * ords[j]
        return low

    table: ProbeTable = []
    for J, K, c in pairs:
        ji, ki = J[i], K[i]
        for k in range(ji + 1):
            Jk = J[:i] + (ji - k,) + J[i + 1:]
            low_j = lowest(Jk)
            if low_j is None:
                continue
            for l in range(ki + 1):
                Kl = K[:i] + (ki - l,) + K[i + 1:]
                low_k = lowest(Kl)
                if (k or l) and low_k is not None:
                    table.append((k, l, low_j + low_k, Jk, Kl, c * (comb(ji, k) * comb(ki, l))))
    return table


def probe_slice_terms(
    table: ProbeTable, base: CurvePowers, e: int, m: int
) -> Dict[Tuple[int, int], Dict[Tuple[int, int], GaussianRational]]:
    """The (delta, conj delta) dependence of the degree-m slice of r along
    base's curve when delta * t^e is added to component i; ``table`` is
    :func:`probe_table` for component i.

    Returns (k, l) -> P_kl, k + l >= 1, with the perturbed slice equal to
    v0 + sum P_kl delta^k conj(delta)^l for every delta, where v0 is the
    slice along the curve itself:
    P_kl[(a + ek, b + el)] = sum c_JK C(J_i, k) C(K_i, l)
    [t^a] gamma^{J - k e_i} conj([t^b] gamma^{K - l e_i}), a + b = m - e(k + l).
    Only the entries whose lowest degree reaches m are summed; every image is
    read from ``base``, whose precision must be at least m.  Keys are the
    ones ``_degree_slice`` reads: (a, b) with a <= b or b = 0.  Entries that
    cancel to zero, and groups left empty, are dropped, so an empty result
    means v(delta) = v0."""
    terms: Dict[Tuple[int, int], Dict[Tuple[int, int], GaussianRational]] = {}
    for k, l, low, Jk, Kl, coef in table:
        rest = m - e * (k + l)
        if low > rest:
            continue
        B = base.image(Kl).coeffs
        out = terms.setdefault((k, l), {})
        for (a,), ca in base.image(Jk).coeffs.items():
            cb = B.get((rest - a,))
            if cb is None:
                continue
            key = (a + e * k, rest - a + e * l)
            if key[0] > key[1] > 0:
                continue  # conjugate partner of a stored key
            out[key] = out.get(key, ZERO) + coef * ca * cb.conjugate()
    return {kl: live for kl, out in terms.items() if (live := {k: v for k, v in out.items() if v})}


def _solve_affine(terms: Dict, v0: Dict) -> Optional[GaussianRational]:
    """The nonzero delta with v0 + sum P_kl delta^k conj(delta)^l = 0 on
    every key, from the terms of :func:`probe_slice_terms`; None when the
    sum is not affine in delta (some P_kl with k + l >= 2) or no such delta
    exists.

    With delta = x + iy the affine slice is v0 + x a + y b, a = P_10 + P_01
    and b = i (P_10 - P_01), and real x, y solve the normal equations in
    <u, w> = s + conj(s), s = sum u conj(w), twice the real inner product.
    Their determinant vanishes exactly when a and b are dependent over the
    reals; then x = <c, a>/<a, a> with y = 0 when a != 0, else y from b."""
    if any(k + l > 1 for k, l in terms):
        return None
    p10, p01 = terms.get((1, 0), {}), terms.get((0, 1), {})
    keys = list(p10.keys() | p01.keys() | v0.keys())
    a = [p10.get(k, ZERO) + p01.get(k, ZERO) for k in keys]
    b = [IMAG * (p10.get(k, ZERO) - p01.get(k, ZERO)) for k in keys]
    c = [-v0.get(k, ZERO) for k in keys]

    def dot(u, w):
        s = _inner(u, w)
        return s + s.conjugate()

    aa, bb, ab, ca, cb = dot(a, a), dot(b, b), dot(a, b), dot(c, a), dot(c, b)
    det = aa * bb - ab * ab
    if det:
        x, y = (ca * bb - cb * ab) / det, (aa * cb - ab * ca) / det
    elif aa:
        x, y = ca / aa, ZERO
    elif bb:
        x, y = ZERO, cb / bb
    else:
        return None
    if any(x * u + y * w != z for u, w, z in zip(a, b, c)):
        return None
    delta = x + IMAG * y
    return delta if delta else None


class _CurveRecord:
    """One distinct curve that a search visits, with the work done along
    it: its full restriction ``p`` and order ``m``; the degree-m slice v0,
    nu and the power table at precision m (``probe_base``), built when a
    probe first needs them; one :func:`probe_table` per component; and the
    outcome of each (component, degree) probe, the record of the accepted
    candidate curve or None."""

    __slots__ = ("curve", "p", "m", "probe_base", "tables", "outcomes")

    def __init__(self, r: HermitianForm, curve: FormalCurve):
        self.curve, self.p = curve, r.restrict_to_curve(curve)
        self.m = self.p.order()
        self.probe_base = None
        self.tables: Dict[int, ProbeTable] = {}
        self.outcomes: Dict[Tuple[int, int], Optional[_CurveRecord]] = {}


class _CurveRecords:
    """The records of one search, keyed by the curve's value (each
    component's sorted coefficient items; the curves of one search share
    one precision).  They live for one :func:`monomial_curve_search` call,
    so a curve that another exponent tuple reached costs dict lookups."""

    def __init__(self, r: HermitianForm):
        self.r, self.pairs, self.records = r, component_pairs(r), {}

    def record(self, curve: FormalCurve) -> _CurveRecord:
        key = tuple(tuple(sorted(c.coeffs.items())) for c in curve.components)
        got = self.records.get(key)
        if got is None:
            got = self.records[key] = _CurveRecord(self.r, curve)
        return got

    def kill_lowest(self, rec: _CurveRecord, i: int, e: int) -> Optional[_CurveRecord]:
        """The record of the curve with delta * t^e added to component i,
        for the delta that cancels every degree-m coefficient, or None when
        no delta does; probed once per record.

        The slice along the perturbed curve is
        v(delta) = v0 + sum P_kl delta^k conj(delta)^l
        (:func:`probe_slice_terms`); delta is solved exactly only when that
        sum is affine in delta (:func:`_solve_affine`), and the candidate is
        kept only when the full restriction in its record vanishes through
        degree m.  When the perturbation lowers nu to e and
        r.precision * e < m, no probe curve's restriction reaches degree m,
        and the probe fails."""
        if (i, e) not in rec.outcomes:
            rec.outcomes[(i, e)] = self._probe(rec, i, e)
        return rec.outcomes[(i, e)]

    def _probe(self, rec: _CurveRecord, i: int, e: int) -> Optional[_CurveRecord]:
        r, curve, m = self.r, rec.curve, rec.m
        if rec.probe_base is None:
            rec.probe_base = (_degree_slice(rec.p, m), curve.vanishing_order(), CurvePowers(curve, m))
        v0, nu, base = rec.probe_base
        if e < nu and r.precision * e < m:
            return None
        table = rec.tables.get(i)
        if table is None:
            table = rec.tables[i] = probe_table(self.pairs[i], base, i)
        terms = probe_slice_terms(table, base, e, m)
        if not terms:
            return None  # v(delta) = v0, which is nonzero at degree m
        delta = _solve_affine(terms, v0)
        if delta is None:
            return None
        comp = curve.components[i] + TruncSeries.monomial(1, curve.precision, (e,), delta)
        cand = curve.with_component(i, comp)
        if cand.is_constant():
            return None
        got = self.record(cand)
        return got if got.m is None or got.m > m else None  # else no actual progress


def _refine_curve(
    records: _CurveRecords, curve: FormalCurve, exps: Tuple[int, ...], max_coeff_degree: int
) -> _CurveRecord:
    """Greedy order-by-order cancellation: extend components with correction
    terms (polynomial ansatz of bounded degree) whenever the lowest surviving
    pullback terms can be removed by an exactly solvable linear condition.
    Returns the record of the refined curve."""
    rec = records.record(curve)
    budget = sum(max_coeff_degree for a in exps if a > 0)
    for _ in range(budget + 1):
        if rec.m is None:
            return rec  # full cancellation within precision
        scan = (records.kill_lowest(rec, i, e) for i, a in enumerate(exps) if a
                for e in range(a, a + max_coeff_degree + 1))
        nxt = next((got for got in scan if got is not None), None)
        if nxt is None:
            return rec
        rec = nxt
    return rec


def monomial_curve_search(
    r: HermitianForm,
    max_exponent: int,
    max_coeff_degree: int,
) -> List[Tuple[FormalCurve, TypeRatio]]:
    """Enumerate exponent patterns (gcd 1, entries <= max_exponent), seed each
    with unit coefficients, refine greedily, and rank by the ratio achieved.

    The best ratio found is a certified lower bound for the supremum over
    all curves; it is never claimed to be the supremum itself."""
    if max_exponent < 1:
        raise GermforgeError(f"max_exponent must be >= 1, got {max_exponent}")
    n = r.nvars
    prec = r.precision * max_exponent
    records = _CurveRecords(r)

    def score(exps: Tuple[int, ...]):
        rec = _refine_curve(records, FormalCurve.from_monomials(exps, prec), exps, max_coeff_degree)
        return rec.curve, _ratio_from(rec.p, rec.curve.vanishing_order())

    results = [score(exps) for exps in exponent_tuples(n, max_exponent)]
    results.sort(key=lambda cr: cr[1].sort_key(), reverse=True)
    return results


# ---------------------------------------------------------------------------
# unitary blocks and jet matching
# ---------------------------------------------------------------------------


class UnitaryBlock:
    """k x k unitary matrix acting as the identity outside the block.

    Entries are rows of exact Gaussian rationals when the construction
    allowed it, else rows of complex floats with a recorded tolerance."""

    __slots__ = ("size", "entries", "mode", "tolerance")

    def __init__(self, size: int, entries, mode: str = "exact", tolerance=None):
        self.size = size
        self.mode = mode
        self.tolerance = tolerance
        scalar = self._field()[0]
        self.entries = tuple(tuple(scalar(c) for c in row) for row in entries)

    @classmethod
    def identity(cls, size: int) -> "UnitaryBlock":
        rows = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
        return cls(size, rows, "exact")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def _field(self):
        """(conversion, one, zero) of the entry field."""
        return (as_gauss, ONE, ZERO) if self.is_exact else (complex, 1.0 + 0j, 0j)

    def entry(self, i: int, j: int):
        if i < self.size and j < self.size:
            return self.entries[i][j]
        _, one, zero = self._field()
        return one if i == j else zero

    def adjoint(self) -> "UnitaryBlock":
        rows = [[c.conjugate() for c in col] for col in zip(*self.entries)]
        return UnitaryBlock(self.size, rows, self.mode, self.tolerance)

    def apply(self, vec: Sequence) -> list:
        """Matrix action, identity beyond the block; exact blocks demand
        exact vectors."""
        scalar, _, zero = self._field()
        padded = [scalar(v) for v in vec] + [zero] * (self.size - len(vec))
        out = [sum((u * x for u, x in zip(row, padded) if x), zero) for row in self.entries]
        return out + padded[self.size:]

    def unitarity_defect(self) -> float:
        """max |(U U* - I)_ij|; exactly 0.0 for verified exact blocks."""
        _, one, zero = self._field()
        worst = 0.0
        for i, ri in enumerate(self.entries):
            for j, rj in enumerate(self.entries):
                acc = sum((a * b.conjugate() for a, b in zip(ri, rj)), zero)
                worst = max(worst, abs(complex(acc - (one if i == j else zero))))
        return worst

    def __str__(self) -> str:
        from .formats import format_unitary

        return format_unitary(self)

    __repr__ = __str__


@dataclass
class GramMismatch:
    """First violated Gram entry: <F_row, F_col> != <G_row, G_col>."""

    row: int
    col: int
    f_inner: GaussianRational
    g_inner: GaussianRational


def _inner(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> GaussianRational:
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b.conjugate()
    return acc


def match_unitary(
    F: Sequence[Sequence], G: Sequence[Sequence], tol: float = 1e-10
) -> Union[UnitaryBlock, GramMismatch]:
    """Find a block unitary with U G_m = F_m for all m, or report the first
    Gram discrepancy proving none exists.

    Gram equality is tested exactly.  The block is exact whenever the matched
    vectors are already pairwise orthogonal with matching spans; otherwise it
    is produced by floating orthonormalization with residuals below ``tol``."""
    if len(F) != len(G):
        raise DimensionMismatch("vector lists must have equal length")
    M = len(F)
    if M == 0:
        return UnitaryBlock.identity(0)
    dims = {len(v) for v in F} | {len(v) for v in G}
    if len(dims) != 1:
        raise DimensionMismatch("all vectors must share one dimension")
    s = dims.pop()
    Fx = [[as_gauss(c) for c in v] for v in F]
    Gx = [[as_gauss(c) for c in v] for v in G]
    for a in range(M):
        for b in range(a, M):
            fi = _inner(Fx[a], Fx[b])
            gi = _inner(Gx[a], Gx[b])
            if fi != gi:
                return GramMismatch(a, b, fi, gi)

    nz = [m for m in range(M) if any(Gx[m])]
    orthogonal = all(
        not _inner(Gx[a], Gx[b])
        for p, a in enumerate(nz)
        for b in nz[p + 1:]
    )
    if orthogonal:
        block = _exact_orthogonal_match(Fx, Gx, nz, s)
        if block is not None:
            return block
    return _float_match(Fx, Gx, s, tol)


def _exact_orthogonal_match(Fx, Gx, nz, s) -> Optional[UnitaryBlock]:
    """U = sum F_m <G_m, .>/|G_m|^2 + (I - proj span G), valid exactly when
    span F = span G; verified before returning."""
    P = [[ZERO] * s for _ in range(s)]
    QG = [[ZERO] * s for _ in range(s)]
    QF = [[ZERO] * s for _ in range(s)]
    for m in nz:
        ng = _inner(Gx[m], Gx[m])
        nf = _inner(Fx[m], Fx[m])
        for i in range(s):
            for j in range(s):
                P[i][j] = P[i][j] + Fx[m][i] * Gx[m][j].conjugate() / ng
                QG[i][j] = QG[i][j] + Gx[m][i] * Gx[m][j].conjugate() / ng
                if nf:
                    QF[i][j] = QF[i][j] + Fx[m][i] * Fx[m][j].conjugate() / nf
    if QF != QG:
        return None
    U = [
        [P[i][j] + (ONE if i == j else ZERO) - QG[i][j] for j in range(s)]
        for i in range(s)
    ]
    block = UnitaryBlock(s, U, "exact")
    if block.unitarity_defect() != 0.0:
        return None
    for m in range(len(Fx)):
        if block.apply(Gx[m]) != Fx[m]:
            return None
    return block


def _float_match(Fx, Gx, s, tol) -> UnitaryBlock:
    """Gram-Schmidt on the G_m with the F_m carried along, each side's
    orthonormal set completed from the unit vectors, and U the sum of the
    outer products of partners; both checks are against ``tol``."""

    def vdot(u, v):
        return sum((a.conjugate() * b for a, b in zip(u, v)), 0j)

    def norm(v):
        return sqrt(vdot(v, v).real)

    def minus(v, c, b):
        return [x - c * y for x, y in zip(v, b)]

    qg: List[List[complex]] = []
    qf: List[List[complex]] = []
    for f, g in zip(Fx, Gx):
        vg = [complex(c) for c in g]
        vf = [complex(c) for c in f]
        for bg, bf in zip(qg, qf):
            c = vdot(bg, vg)
            vg, vf = minus(vg, c, bg), minus(vf, c, bf)
        ng = norm(vg)
        if ng > 1e-12:
            qg.append([x / ng for x in vg])
            qf.append([x / ng for x in vf])

    def complete(basis: List[List[complex]]) -> List[List[complex]]:
        out: List[List[complex]] = []
        for j in range(s):
            v = [1.0 + 0j if k == j else 0j for k in range(s)]
            for b in basis + out:
                v = minus(v, vdot(b, v), b)
            nv = norm(v)
            if nv > 1e-9:
                out.append([x / nv for x in v])
            if len(basis) + len(out) == s:
                break
        return out

    pairs = list(zip(qg + complete(qg), qf + complete(qf)))
    U = [[sum((bf[i] * bg[j].conjugate() for bg, bf in pairs), 0j) for j in range(s)]
         for i in range(s)]
    block = UnitaryBlock(s, U, "floating", tol)
    if block.unitarity_defect() > tol:
        raise ExactnessError("floating unitary construction exceeded tolerance")
    worst = max((abs(a - complex(b)) for g, f in zip(Gx, Fx) for a, b in zip(block.apply(g), f)),
                default=0.0)
    if worst > tol:
        raise ExactnessError("floating unitary does not match the vectors within tolerance")
    return block


# ---------------------------------------------------------------------------
# ideal construction and the equivalence chain
# ---------------------------------------------------------------------------


def build_ideal(d: Decomposition, U: UnitaryBlock) -> IdealPresentation:
    """Generators h, (f - U g)_i and (U* f - g)_i of the matching ideal.

    The block must cover every family of the decomposition; it is never
    silently extended across active families."""
    if not U.is_exact:
        raise ExactnessError("ideal construction needs an exact unitary block")
    fams = len(d.fs)
    if U.size < fams:
        raise BlockSizeError(
            f"block of size {U.size} cannot cover {fams} active families"
        )
    size = U.size
    zero = TruncSeries.zero(d.nvars, d.precision)
    fvec = [f for _, f in d.fs] + [zero] * (size - fams)
    gvec = [g for _, g in d.gs] + [zero] * (size - fams)
    gens: List[TruncSeries] = []
    if not d.h.is_zero():
        gens.append(d.h)
    Ustar = U.adjoint()
    for i in range(size):
        acc = fvec[i]
        for j in range(size):
            c = U.entries[i][j]
            if c:
                acc = acc - gvec[j].scale(c)
        if not acc.is_zero():
            gens.append(acc)
    for i in range(size):
        acc = -gvec[i]
        for j in range(size):
            c = Ustar.entries[i][j]
            if c:
                acc = acc + fvec[j].scale(c)
        if not acc.is_zero():
            gens.append(acc)
    if not gens:
        gens = [zero]
    return IdealPresentation(d.nvars, gens)


def _family_jet_vectors(
    d: Decomposition, curve: FormalCurve, N: int
) -> Tuple[List[List[GaussianRational]], List[List[GaussianRational]]]:
    """Degree-indexed coefficient vectors (entries indexed by family) of the
    pulled-back families, for t-degrees 0..N."""
    ufs = []
    ugs = []
    for (_, f), (_, g) in zip(d.fs, d.gs):
        uf = pullback(f, curve)
        ug = pullback(g, curve)
        if min(uf.precision, ug.precision) < N:
            raise PrecisionError("family pullbacks too shallow for the requested order")
        ufs.append(uf)
        ugs.append(ug)
    Fvecs = [[uf.coeffs.get((m,), ZERO) for uf in ufs] for m in range(N + 1)]
    Gvecs = [[ug.coeffs.get((m,), ZERO) for ug in ugs] for m in range(N + 1)]
    return Fvecs, Gvecs


def equivalence_check(
    d: Decomposition, U: UnitaryBlock, curve: FormalCurve, N: int
) -> bool:
    """Jet-level verification of the norm chain: the holomorphic part dies on
    the curve, per-degree norms of the pulled-back families agree through U
    and U*, and the full cross-Gram matrices coincide, forcing
    jet_N(r o curve) = 0."""
    if not U.is_exact:
        raise ExactnessError("equivalence check needs an exact unitary block")
    nu = curve.vanishing_order()
    if nu is None:
        raise ConstantCurveError("equivalence check along a constant curve")
    ph = pullback(d.h, curve)
    if ph.precision < N:
        raise PrecisionError("holomorphic part pullback too shallow")
    if not ph.jet(N).is_zero():
        return False
    if not d.fs:
        return True
    Fvecs, Gvecs = _family_jet_vectors(d, curve, N)
    for m in range(N + 1):
        Fm, Gm = Fvecs[m], Gvecs[m]
        UGm = U.apply(Gm)
        UstarFm = U.adjoint().apply(Fm)
        nF = _inner(Fm, Fm)
        nG = _inner(Gm, Gm)
        if _inner(UGm, UGm) != nG or nF != nG:
            return False
        if _inner(UstarFm, UstarFm) != nF:
            return False
    for a in range(N + 1):
        for b in range(a, N + 1 - a):
            if _inner(Fvecs[a], Fvecs[b]) != _inner(Gvecs[a], Gvecs[b]):
                return False
    return True
