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
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

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


def _solve_two_real_unknowns(rows: List[Tuple[Fraction, Fraction, Fraction]]):
    """Solve rows of x*a + y*b = c over the rationals; None if inconsistent."""
    pivots: List[Tuple[Fraction, Fraction, Fraction]] = []
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


PairList = List[Tuple[Multidegree, Multidegree, GaussianRational]]


def component_pairs(r: HermitianForm) -> List[PairList]:
    """For each component i, r's pairs (J, K, c), conjugate partners
    included, with J[i] or K[i] nonzero: the pairs a perturbation of
    component i reaches."""
    full = list(r.full_items())
    return [[(J, K, c) for J, K, c in full if J[i] or K[i]] for i in range(r.nvars)]


def probe_slice_terms(
    pairs: PairList, base: CurvePowers, i: int, e: int, m: int
) -> Dict[Tuple[int, int], Dict[Tuple[int, int], GaussianRational]]:
    """The (delta, conj delta) dependence of the degree-m slice of r along
    base's curve when delta * t^e is added to component i; ``pairs`` is
    r's list for component i from :func:`component_pairs`.

    Returns (k, l) -> P_kl, k + l >= 1, with the perturbed slice equal to
    v0 + sum P_kl delta^k conj(delta)^l for every delta, where v0 is the
    slice along the curve itself.  Expanding
    (gamma_i + delta t^e)^{J_i} binomially gives
    P_kl[(a + ek, b + el)] = sum c_JK C(J_i, k) C(K_i, l)
    [t^a] gamma^{J - k e_i} conj([t^b] gamma^{K - l e_i}), a + b = m - e(k + l);
    every image is read from ``base``, whose precision must be at least m.
    Keys are the ones ``_degree_slice`` reads: (a, b) with a <= b or b = 0."""
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

    terms: Dict[Tuple[int, int], Dict[Tuple[int, int], GaussianRational]] = {}
    for J, K, c in pairs:
        ji, ki = J[i], K[i]
        for k in range(ji + 1):
            Jk = J[:i] + (ji - k,) + J[i + 1:]
            low_j = lowest(Jk)
            if low_j is None:
                continue
            for l in range(ki + 1):
                if not k and not l:
                    continue
                Kl = K[:i] + (ki - l,) + K[i + 1:]
                low_k = lowest(Kl)
                rest = m - e * (k + l)
                if low_k is None or low_j + low_k > rest:
                    continue
                A = base.image(Jk).coeffs
                B = base.image(Kl).coeffs
                coef = c * (comb(ji, k) * comb(ki, l))
                out = terms.setdefault((k, l), {})
                for (a,), ca in A.items():
                    cb = B.get((rest - a,))
                    if cb is None:
                        continue
                    key = (a + e * k, rest - a + e * l)
                    if key[0] > key[1] > 0:
                        continue  # conjugate partner of a stored key
                    out[key] = out.get(key, ZERO) + coef * ca * cb.conjugate()
    return terms


# i^k conj(i)^l, by (k - l) mod 4
_TURNS = (ONE, IMAG, -ONE, -IMAG)


def _try_kill_lowest(
    r: HermitianForm,
    curve: FormalCurve,
    i: int,
    e: int,
    m: int,
    v0: dict,
    base: CurvePowers,
    pairs: PairList,
) -> Optional[GaussianRational]:
    """Probe whether adding delta * t^e to component i can cancel every
    degree-m coefficient of the pullback; the dependence must test affine in
    (Re delta, Im delta), solved exactly. Returns delta or None.

    ``v0`` is the degree-m slice along the curve itself and ``base`` the
    curve's power table at precision m, ``pairs`` r's pairs that involve
    component i (:func:`component_pairs`).  The slice along the perturbed
    curve is v(delta) = v0 + sum P_kl delta^k conj(delta)^l, with the P_kl
    of :func:`probe_slice_terms` built in one pass from ``base``.  The test
    reads v at delta = 1, i, 2, 1 + i: both curvatures v(2) - 2v(1) + v0
    and v(1+i) - v(1) - v(i) + v0 must vanish, and delta solves
    v0 + x (v(1) - v0) + y (v(i) - v0) = 0; each difference is summed
    straight from the P_kl with Gaussian-integer weights.  When the
    perturbation lowers nu(curve) to e and r.precision * e < m, no probe
    curve's restriction reaches degree m, and the probe fails."""
    if e < curve.vanishing_order() and r.precision * e < m:
        return None
    terms = probe_slice_terms(pairs, base, i, e, m)
    bent: Dict[Tuple[int, int], GaussianRational] = {}  # v(2) - 2v(1) + v0
    mixed: Dict[Tuple[int, int], GaussianRational] = {}  # v(1+i) - v(1) - v(i) + v0
    for (k, l), coeffs in terms.items():
        if k + l < 2:
            continue  # both weights vanish on the linear terms
        w_real = 2 ** (k + l) - 2
        re, im = 1, 0  # (1 + i)^k (1 - i)^l - 1 - i^(k - l)
        for _ in range(k):
            re, im = re - im, re + im
        for _ in range(l):
            re, im = re + im, im - re
        turn = _TURNS[(k - l) % 4]
        w_mixed = GaussianRational(re - 1 - turn.re, im - turn.im)
        for key, c in coeffs.items():
            bent[key] = bent.get(key, ZERO) + c * w_real
            mixed[key] = mixed.get(key, ZERO) + c * w_mixed
    if any(bent.values()) or any(mixed.values()):
        return None
    d1: Dict[Tuple[int, int], GaussianRational] = {}  # v(1) - v0
    di: Dict[Tuple[int, int], GaussianRational] = {}  # v(i) - v0
    for (k, l), coeffs in terms.items():
        turn = _TURNS[(k - l) % 4]
        for key, c in coeffs.items():
            d1[key] = d1.get(key, ZERO) + c
            di[key] = di.get(key, ZERO) + c * turn
    rows: List[Tuple[Fraction, Fraction, Fraction]] = []
    for key in set(v0) | set(d1):
        A = d1.get(key, ZERO)
        B = di.get(key, ZERO)
        C = -v0.get(key, ZERO)
        rows.append((A.re, B.re, C.re))
        rows.append((A.im, B.im, C.im))
    sol = _solve_two_real_unknowns(rows)
    if sol is None:
        return None
    delta = GaussianRational(sol[0], sol[1])
    return delta if delta else None


def _refine_curve(
    r: HermitianForm,
    curve: FormalCurve,
    exps: Tuple[int, ...],
    max_coeff_degree: int,
    pairs: List[PairList],
) -> Tuple[FormalCurve, HermitianForm]:
    """Greedy order-by-order cancellation: extend components with correction
    terms (polynomial ansatz of bounded degree) whenever the lowest surviving
    pullback terms can be removed by an exactly solvable linear condition.
    ``pairs`` is :func:`component_pairs` of r.

    Returns the refined curve and r's full restriction along it."""
    budget = sum(max_coeff_degree for a in exps if a > 0)
    used = 0
    while used <= budget:
        p = r.restrict_to_curve(curve)
        m = p.order()
        if m is None:
            return curve, p  # full cancellation within precision
        v0 = _degree_slice(p, m)
        base = CurvePowers(curve, m)
        applied = False
        for i, a in enumerate(exps):
            if a == 0:
                continue
            for e in range(a, a + max_coeff_degree + 1):
                delta = _try_kill_lowest(r, curve, i, e, m, v0, base, pairs[i])
                if delta is None:
                    continue
                comp = curve.components[i] + TruncSeries.monomial(
                    1, curve.precision, (e,), delta
                )
                cand = curve.with_component(i, comp)
                if cand.is_constant():
                    continue
                if r.restrict_to_curve(cand, upto=m, base=base).order() is not None:
                    continue  # no actual progress; keep scanning
                curve = cand
                applied = True
                used += 1
                break
            if applied:
                break
        if not applied:
            return curve, p
    return curve, r.restrict_to_curve(curve)  # p belongs to an earlier curve


def monomial_curve_search(
    r: HermitianForm,
    max_exponent: int,
    max_coeff_degree: int,
    curve_precision: Optional[int] = None,
) -> List[Tuple[FormalCurve, TypeRatio]]:
    """Enumerate exponent patterns (gcd 1, entries <= max_exponent), seed each
    with unit coefficients, refine greedily, and rank by the ratio achieved.

    The best ratio found is a certified lower bound for the supremum over
    all curves; it is never claimed to be the supremum itself."""
    if max_exponent < 1:
        raise GermforgeError(f"max_exponent must be >= 1, got {max_exponent}")
    n = r.nvars
    prec = curve_precision or r.precision * max_exponent
    pairs = component_pairs(r)

    def score(exps: Tuple[int, ...]):
        curve = FormalCurve.from_monomials(exps, prec)
        curve, p = _refine_curve(r, curve, exps, max_coeff_degree, pairs)
        return curve, _ratio_from(p, curve.vanishing_order())

    results = [score(exps) for exps in exponent_tuples(n, max_exponent)]
    results.sort(key=lambda cr: cr[1].sort_key(), reverse=True)
    return results


# ---------------------------------------------------------------------------
# unitary blocks and jet matching
# ---------------------------------------------------------------------------


class UnitaryBlock:
    """k x k unitary matrix acting as the identity outside the block.

    Entries are exact Gaussian rationals when the construction allowed it,
    else complex floats with a recorded tolerance."""

    __slots__ = ("size", "entries", "mode", "tolerance")

    def __init__(self, size: int, entries, mode: str = "exact", tolerance=None):
        self.size = size
        self.mode = mode
        self.tolerance = tolerance
        if mode == "exact":
            self.entries = tuple(tuple(as_gauss(c) for c in row) for row in entries)
        else:
            self.entries = np.asarray(entries, dtype=complex)

    @classmethod
    def identity(cls, size: int) -> "UnitaryBlock":
        rows = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
        return cls(size, rows, "exact")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def entry(self, i: int, j: int):
        if i < self.size and j < self.size:
            return self.entries[i][j] if self.is_exact else self.entries[i, j]
        if self.is_exact:
            return ONE if i == j else ZERO
        return 1.0 + 0j if i == j else 0j

    def adjoint(self) -> "UnitaryBlock":
        if self.is_exact:
            rows = [
                [self.entries[j][i].conjugate() for j in range(self.size)]
                for i in range(self.size)
            ]
            return UnitaryBlock(self.size, rows, "exact")
        return UnitaryBlock(self.size, self.entries.conj().T, "floating", self.tolerance)

    def apply(self, vec: Sequence) -> list:
        """Matrix action, identity beyond the block; exact blocks demand
        exact vectors."""
        n = max(self.size, len(vec))
        if self.is_exact:
            padded = [as_gauss(v) for v in vec] + [ZERO] * (n - len(vec))
            out = []
            for i in range(n):
                if i < self.size:
                    acc = ZERO
                    for j in range(self.size):
                        if padded[j]:
                            acc = acc + self.entries[i][j] * padded[j]
                    out.append(acc)
                else:
                    out.append(padded[i])
            return out
        padded = [complex(v) for v in vec] + [0j] * (n - len(vec))
        out = list(self.entries @ np.asarray(padded[: self.size])) + padded[self.size:]
        return out

    def unitarity_defect(self) -> float:
        """max |(U U* - I)_ij|; exactly 0.0 for verified exact blocks."""
        if self.is_exact:
            worst = 0.0
            for i in range(self.size):
                for j in range(self.size):
                    acc = ZERO
                    for k in range(self.size):
                        acc = acc + self.entries[i][k] * self.entries[j][k].conjugate()
                    target = ONE if i == j else ZERO
                    diff = acc - target
                    worst = max(worst, abs(complex(diff)))
            return worst
        U = self.entries
        return float(np.max(np.abs(U @ U.conj().T - np.eye(self.size))))

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
    Fc = np.array([[complex(c) for c in v] for v in Fx], dtype=complex).T
    Gc = np.array([[complex(c) for c in v] for v in Gx], dtype=complex).T
    qg: List[np.ndarray] = []
    qf: List[np.ndarray] = []
    for m in range(Fc.shape[1]):
        vg = Gc[:, m].copy()
        vf = Fc[:, m].copy()
        for bg, bf in zip(qg, qf):
            c = np.vdot(bg, vg)
            vg -= c * bg
            vf -= c * bf
        ng = np.linalg.norm(vg)
        if ng > 1e-12:
            qg.append(vg / ng)
            qf.append(vf / ng)

    def complete(basis: List[np.ndarray]) -> List[np.ndarray]:
        out = []
        for j in range(s):
            v = np.zeros(s, dtype=complex)
            v[j] = 1.0
            for b in basis + out:
                v -= np.vdot(b, v) * b
            nv = np.linalg.norm(v)
            if nv > 1e-9:
                out.append(v / nv)
            if len(basis) + len(out) == s:
                break
        return out

    cg = complete(qg)
    cf = complete(qf)
    U = np.zeros((s, s), dtype=complex)
    for bg, bf in zip(qg, qf):
        U += np.outer(bf, bg.conj())
    for bg, bf in zip(cg, cf):
        U += np.outer(bf, bg.conj())
    block = UnitaryBlock(s, U, "floating", tol)
    if block.unitarity_defect() > tol:
        raise ExactnessError("floating unitary construction exceeded tolerance")
    worst = float(np.max(np.abs(U @ Gc - Fc))) if Fc.size else 0.0
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
