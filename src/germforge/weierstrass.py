"""Weierstrass division and preparation, discriminants, Newton-Puiseux
branch construction, and curve lifting through supplied normal forms.

Division and preparation run entirely in exact arithmetic at jet level.
Branch construction follows the classical Newton-polygon iteration; at
each step the reduced characteristic polynomial is solved exactly over
the Gaussian rationals when possible, and a branch falls back to floating
coefficients (with its tolerance recorded) only when a characteristic
root lives outside the exact field.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, gcd, log, pi
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .coeffs import DenseSeries, GaussianRational, ZERO, ONE
from .errors import (
    DimensionMismatch,
    DiscriminantError,
    ExactnessError,
    GermforgeError,
    NormalFormError,
    NotRegularError,
    PrecisionError,
)
from .series import FormalCurve, TruncSeries, divide, inverse, pullback

FLOAT_ZERO_EPS = 1e-12
CLUSTER_TOL = 1e-8  # floating roots closer than this count as one multiple root
SNAP_MAX_DEN = 10**6  # largest denominator a numeric root is snapped to for exact verification
FLOAT_BRANCH_TOL = 1e-9  # recorded tolerance of a floating Puiseux branch
ROOT_SWEEPS = 100  # Aberth-Ehrlich sweeps before the roots are returned as they stand
ROOT_EPS = 2.0**-53  # unit roundoff: a root is frozen at |p(z)| <= ROOT_EPS * sum |a_k| |z|^k
ROOT_START_ANGLE = 0.7  # offset of the starting points on each circle (Bini)


# ---------------------------------------------------------------------------
# Weierstrass polynomials
# ---------------------------------------------------------------------------


class WeierstrassPoly:
    """Monic polynomial w^l + sum_{j<l} b_j(z_1..z_k) w^j with b_j(0) = 0."""

    __slots__ = ("base_vars", "degree", "coeffs", "precision")

    def __init__(self, base_vars: int, degree: int, coeffs: Sequence[TruncSeries]):
        if degree < 1:
            raise ValueError("a Weierstrass polynomial has degree >= 1")
        if len(coeffs) != degree:
            raise ValueError("need exactly `degree` lower coefficients b_0..b_{l-1}")
        prec = None
        for j, b in enumerate(coeffs):
            if b.nvars != base_vars:
                raise DimensionMismatch(f"coefficient b_{j} has wrong variable count")
            if b.constant_term():
                raise NotRegularError(f"coefficient b_{j}(0) != 0")
            prec = b.precision if prec is None else min(prec, b.precision)
        self.base_vars = base_vars
        self.degree = degree
        self.precision = prec if prec is not None else 0
        self.coeffs = tuple(b.with_precision(self.precision) for b in coeffs)

    @classmethod
    def from_series(cls, s: TruncSeries, degree: int) -> "WeierstrassPoly":
        """Interpret a (k+1)-variable series, distinguished variable last, as
        a Weierstrass polynomial.  Coefficients keep the honest precision
        s.precision - degree + 1 (the w^j factor eats j orders of knowledge)."""
        k = s.nvars - 1
        by_w: Dict[int, dict] = {}
        for J, c in s.coeffs.items():
            by_w.setdefault(J[-1], {})[J[:-1]] = c
        top = by_w.get(degree, {})
        if list(top.items()) != [((0,) * k, ONE)]:
            raise NotRegularError("leading w-coefficient is not the constant 1")
        if any(e > degree for e in by_w):
            raise NotRegularError("terms above the stated w-degree")
        prec = s.precision - degree + 1
        if prec < 0:
            raise PrecisionError("series too shallow for this w-degree")
        coeffs = [TruncSeries(k, prec, by_w.get(j, {})) for j in range(degree)]
        return cls(k, degree, coeffs)

    def as_series(self) -> TruncSeries:
        """The polynomial as a (base_vars + 1)-variable series, w last."""
        prec = self.precision
        if prec < self.degree:
            raise PrecisionError("precision cannot hold the monic leading term")
        out: Dict[tuple, GaussianRational] = {
            (0,) * self.base_vars + (self.degree,): ONE
        }
        for j, b in enumerate(self.coeffs):
            for J, c in b.coeffs.items():
                if sum(J) + j <= prec:
                    out[J + (j,)] = c
        return TruncSeries(self.base_vars + 1, prec, out)

    def __str__(self) -> str:
        from .formats import format_weierstrass

        return format_weierstrass(self)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# division / preparation
# ---------------------------------------------------------------------------


def _split_w(f: TruncSeries, ell: int) -> Tuple[TruncSeries, TruncSeries]:
    """f = A * w^ell + R with deg_w R < ell; w is the last variable."""
    hi: Dict[tuple, GaussianRational] = {}
    lo: Dict[tuple, GaussianRational] = {}
    for J, c in f.coeffs.items():
        if J[-1] >= ell:
            hi[J[:-1] + (J[-1] - ell,)] = c
        else:
            lo[J] = c
    return (
        TruncSeries(f.nvars, f.precision, hi),
        TruncSeries(f.nvars, f.precision, lo),
    )


def _w_regular_order(f: TruncSeries) -> Optional[int]:
    """Vanishing order of f(0, .., 0, w) in w, or None if that slice is zero
    through the precision."""
    zslice = [J[-1] for J in f.coeffs if not any(J[:-1])]
    return min(zslice) if zslice else None


def divide_regular(
    g: TruncSeries, f: TruncSeries, ell: int, N: int
) -> Tuple[TruncSeries, TruncSeries]:
    """Division g = q*f + r (deg_w r < ell) by a series regular of order ell
    in the last variable, all identities exact through total degree N."""
    if g.nvars != f.nvars:
        raise DimensionMismatch("dividend and divisor variable counts differ")
    if N > min(g.precision, f.precision):
        raise PrecisionError("requested division order exceeds operand precision")
    fa, beta = _split_w(f.jet(N), ell)
    if not fa.constant_term():
        raise NotRegularError(
            f"divisor is not regular of order {ell} in the last variable"
        )
    ainv = inverse(fa, N)
    q = TruncSeries.zero(g.nvars, N)
    cur = g.jet(N)
    guard = 0
    while True:
        A, R = _split_w(cur, ell)
        if A.is_zero():
            return q, R
        Q = A * ainv
        q = q + Q
        cur = R - Q * beta
        guard += 1
        if guard > N + 2:
            raise GermforgeError("division failed to terminate (internal)")


def weierstrass_divide(
    f: TruncSeries, P: WeierstrassPoly, N: int
) -> Tuple[TruncSeries, TruncSeries]:
    """f = q*P + r with deg_w r < deg P, exact through total degree N."""
    ps = P.as_series()
    return divide_regular(f, ps, P.degree, N)


def weierstrass_prepare(f: TruncSeries, N: int) -> Tuple[TruncSeries, WeierstrassPoly]:
    """Factor f = unit * P with P Weierstrass in the last variable.

    f must be regular in the last variable: f(0,..,0,w) has finite vanishing
    order resolvable within precision."""
    if N > f.precision:
        raise PrecisionError("preparation order exceeds series precision")
    ell = _w_regular_order(f)
    if ell is None:
        raise NotRegularError(
            "series is not regular in the last variable within precision; "
            "apply a generic linear change of coordinates first"
        )
    if N < ell:
        raise PrecisionError(
            f"preparation order {N} is below the w-order {ell}; ask for order >= {ell}"
        )
    wl = TruncSeries.monomial(f.nvars, N, (0,) * (f.nvars - 1) + (ell,))
    q, r = divide_regular(wl, f.jet(N), ell, N)
    if not q.constant_term():
        raise NotRegularError("division produced a non-unit cofactor (internal)")
    P = WeierstrassPoly.from_series(wl - r, ell)
    unit = inverse(q, N)
    return unit, P


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------


def _det_subset(
    rows: List[List[Optional[TruncSeries]]], nvars: int, prec: int
) -> TruncSeries:
    """Determinant over the series ring by column-subset dynamic programming."""
    n = len(rows)
    zero = TruncSeries.zero(nvars, prec)
    states: Dict[int, TruncSeries] = {0: TruncSeries.constant(nvars, prec, 1)}
    for i in range(n):
        nxt: Dict[int, TruncSeries] = {}
        for mask, acc in states.items():
            if acc.is_zero():
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = rows[i][j]
                if entry is None or entry.is_zero():
                    continue
                term = acc * entry
                # parity of inversions added by assigning column j after mask
                if bin(mask >> (j + 1)).count("1") & 1:
                    term = -term
                key = mask | bit
                cur = nxt.get(key)
                nxt[key] = term if cur is None else cur + term
        states = nxt
        if not states:
            return zero
    return states.get((1 << n) - 1, zero)


def discriminant(P: WeierstrassPoly) -> TruncSeries:
    """Resultant-based discriminant of P as a polynomial in w:
    (-1)^(l(l-1)/2) * Res(P, dP/dw), exact to the coefficient precision."""
    ell = P.degree
    k = P.base_vars
    prec = P.precision
    if ell == 1:
        return TruncSeries.constant(k, prec, 1)
    one = TruncSeries.constant(k, prec, 1)
    # descending coefficient lists of P and dP/dw
    pc: List[TruncSeries] = [one] + [P.coeffs[j] for j in range(ell - 1, -1, -1)]
    dc: List[TruncSeries] = [one.scale(ell)] + [
        P.coeffs[j].scale(j) for j in range(ell - 1, 0, -1)
    ]
    # the Sylvester matrix: ell - 1 shifted rows of pc, then ell of dc
    size = 2 * ell - 1
    rows = [[None] * i + cs + [None] * (size - i - len(cs))
            for cs, count in ((pc, ell - 1), (dc, ell)) for i in range(count)]
    res = _det_subset(rows, k, prec)
    sign = -1 if (ell * (ell - 1) // 2) % 2 else 1
    return res.scale(sign)


# ---------------------------------------------------------------------------
# generic line restriction
# ---------------------------------------------------------------------------


def restrict_to_line(s: TruncSeries, direction: Sequence[int]) -> TruncSeries:
    """Substitute z_i = v_i * s: a univariate series in the line parameter.
    The line is stated one order deeper than s, so a precision-0 series keeps
    its constant term; the pullback is still cut at s.precision."""
    line = FormalCurve([TruncSeries.monomial(1, s.precision + 1, (1,), v) for v in direction])
    return pullback(s, line)


def _direction_trials(k: int):
    for ones in range(1, k + 1):
        yield tuple(1 if i < ones else 0 for i in range(k))
    if k > 1:
        yield tuple(range(1, k + 1))
        for m in range(2, 7):
            yield tuple(m**i for i in range(k))


@dataclass
class LineRestriction:
    """Record of the deterministic generic-direction choice: the direction,
    the restricted (one-base-variable) Weierstrass data, and the order of
    the restricted discriminant."""

    direction: tuple
    restricted: WeierstrassPoly
    s_order: int
    discriminant_on_line: TruncSeries


def _nonzero_discriminant(P: WeierstrassPoly, D: Optional[TruncSeries] = None) -> TruncSeries:
    """discriminant(P), or D when the caller has it already, which must not
    vanish through its precision.  That precision is P's, so a reduced
    input whose discriminant starts beyond it fails too; the error names
    both orders."""
    if D is None:
        D = discriminant(P)
    if D.is_zero():
        raise DiscriminantError(
            f"discriminant vanishes through its precision {D.precision} (preparation "
            f"order {P.precision + P.degree - 1}); the input is not reduced, or its "
            "discriminant starts beyond that precision: raise the order"
        )
    return D


def generic_restrict(P: WeierstrassPoly) -> LineRestriction:
    """Find a line direction on which the discriminant stays nonzero, walking
    a fixed trial sequence so the choice is reproducible."""
    D = _nonzero_discriminant(P)
    for v in _direction_trials(P.base_vars):
        Dv = restrict_to_line(D, v)
        if not Dv.is_zero():
            restricted = WeierstrassPoly(
                1, P.degree, [restrict_to_line(b, v) for b in P.coeffs]
            )
            return LineRestriction(
                direction=v,
                restricted=restricted,
                s_order=Dv.order(),
                discriminant_on_line=Dv,
            )
    raise DiscriminantError(
        "no direction in the fixed trial sequence keeps the discriminant nonzero"
    )


# ---------------------------------------------------------------------------
# floating univariate series (quarantined Puiseux fallback)
# ---------------------------------------------------------------------------


class FloatSeries:
    """Univariate truncated series with complex binary64 coefficients, used
    only when a Puiseux branch leaves the exact field: ``vals[k]`` is the
    coefficient of t^k, known through ``precision``.  It has the surface of
    ``coeffs.DenseSeries``, so one recursion and one Newton iteration serve
    both modes.  A coefficient of modulus at most FLOAT_ZERO_EPS counts as
    zero for is_zero, order and a negative shift, which drops it.  An exact
    zero is stored as 0j and takes part in no sum or product, as a missing
    term would not."""

    __slots__ = ("vals", "precision")

    def __init__(self, vals: List[complex], precision: int):
        self.vals, self.precision = vals, precision

    @classmethod
    def from_exact(cls, s: DenseSeries) -> "FloatSeries":
        """s with its coefficients as complex floats."""
        return cls([complex(s.coeff(k)) for k in range(len(s.re))], s.precision)

    @classmethod
    def constant(cls, precision: int, c) -> "FloatSeries":
        return cls([complex(c)], precision)

    def is_zero(self) -> bool:
        return all(abs(c) <= FLOAT_ZERO_EPS for c in self.vals)

    def order(self) -> Optional[int]:
        return next((k for k, c in enumerate(self.vals) if abs(c) > FLOAT_ZERO_EPS), None)

    def coeff(self, e: int) -> complex:
        return self.vals[e] if e < len(self.vals) else 0j

    def with_precision(self, k: int) -> "FloatSeries":
        return self.restated(min(k, self.precision))

    def restated(self, k: int) -> "FloatSeries":
        """The terms of degree <= k at precision k: a higher k reads the unknown tail as 0."""
        return FloatSeries(self.vals[: k + 1], k)

    def __add__(self, other: "FloatSeries") -> "FloatSeries":
        prec = min(self.precision, other.precision)
        x, y = self.vals[: prec + 1], other.vals[: prec + 1]
        x += [0j] * (len(y) - len(x))
        # a zero b leaves a as it is; a zero a (0j) gives 0j + b
        return FloatSeries([(a + b or 0j) if b else a for a, b in zip(x, y)] + x[len(y):], prec)

    def __sub__(self, other: "FloatSeries") -> "FloatSeries":
        return self + other.scale(-1.0)

    def scale(self, c) -> "FloatSeries":
        c = complex(c)
        return FloatSeries([c * v or 0j for v in self.vals], self.precision)

    def __mul__(self, other: "FloatSeries") -> "FloatSeries":
        prec = min(self.precision, other.precision)
        n = min(prec + 1, len(self.vals) + len(other.vals) - 1)
        out = [0j] * n
        y = other.vals
        for i, a in enumerate(self.vals[:n]):
            if a:
                for j, b in enumerate(y[: n - i], i):
                    if b:
                        out[j] += a * b
        return FloatSeries([c or 0j for c in out], prec)

    def shift(self, e: int) -> "FloatSeries":
        if e >= 0:
            return FloatSeries([0j] * e + self.vals, self.precision + e)
        if any(abs(c) > FLOAT_ZERO_EPS for c in self.vals[:-e]):
            raise ValueError("negative exponent after shift")
        return FloatSeries(self.vals[-e:], self.precision + e)

    def substitute_power(self, m: int) -> "FloatSeries":
        out = [0j] * ((len(self.vals) - 1) * m + 1 if self.vals else 0)
        out[::m] = self.vals
        return FloatSeries(out, self.precision * m)

    def __repr__(self):
        return " + ".join(f"({c:.4g})*t^{e}" for e, c in enumerate(self.vals) if c) or "0"


# ---------------------------------------------------------------------------
# exact-first polynomial root extraction
# ---------------------------------------------------------------------------


def _poly_eval(coeffs: List[GaussianRational], x: GaussianRational) -> GaussianRational:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_deflate(
    coeffs: List[GaussianRational], root: GaussianRational
) -> List[GaussianRational]:
    """Synthetic division by (x - root) for an exact root."""
    n = len(coeffs) - 1
    out: List[GaussianRational] = [ZERO] * n
    out[n - 1] = coeffs[n]
    for i in range(n - 2, -1, -1):
        out[i] = coeffs[i + 1] + out[i + 1] * root
    return out


def _numeric_roots(coeffs: List[complex]) -> List[complex]:
    """Roots, with multiplicity, of the polynomial with ascending complex
    coefficients: zero coefficients on top are trimmed, and each zero
    coefficient at the bottom contributes a zero root, listed last.

    Aberth-Ehrlich iteration (Bini, Numer. Algorithms 13, 1996), started on
    circles whose radii come from the upper Newton polygon of log|a_k|.  A
    root is frozen once |p(z)| is within ROOT_EPS of the rounding bound
    sum |a_k| |z|^k, and every root after ROOT_SWEEPS sweeps.  For real
    coefficients, an imaginary part within ROOT_EPS of |z| is dropped."""
    a = list(coeffs)
    while a and a[-1] == 0:
        a.pop()
    if len(a) <= 1:
        return []
    low = next(k for k, c in enumerate(a) if c != 0)
    a = a[low:]
    n = len(a) - 1
    if n == 1:
        return [-a[0] / a[1]] + [0j] * low
    z: List[complex] = []
    hull = _lower_hull([(k, -log(abs(c))) for k, c in enumerate(a) if c != 0])
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        for j in range(k2 - k1):
            angle = 2 * pi * (j / (k2 - k1) + k1 / n) + ROOT_START_ANGLE
            z.append(cmath.rect(exp((l2 - l1) / (k2 - k1)), angle))
    mags = [abs(c) for c in a]
    live = set(range(n))
    for _ in range(ROOT_SWEEPS):
        for i in sorted(live):
            x = z[i]
            p, dp, bound = a[n], 0j, mags[n]
            for k in range(n - 1, -1, -1):
                dp = dp * x + p
                p = p * x + a[k]
                bound = bound * abs(x) + mags[k]
            if abs(p) <= ROOT_EPS * bound:
                live.discard(i)
                continue
            pull = sum(1 / (x - y) for y in z if y != x)
            step = dp - p * pull
            if step:
                z[i] = x - p / step
        if not live:
            break
    if not any(c.imag for c in a):  # a real root keeps no rounding-level imaginary part
        z = [complex(x.real) if abs(x.imag) <= ROOT_EPS * abs(x) else x for x in z]
    return z + [0j] * low


def _cluster(roots: List[complex]) -> List[Tuple[complex, int]]:
    roots = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    out: List[Tuple[complex, int]] = []
    for z in roots:
        for i, (z0, m0) in enumerate(out):
            if abs(z - z0) < CLUSTER_TOL:
                out[i] = (z0, m0 + 1)
                break
        else:
            out.append((z, 1))
    return out


def gauss_from_complex(z: complex) -> GaussianRational:
    """Nearest small-denominator Gaussian rational to a float; used only to
    *propose* exact values that callers must verify before trusting."""
    return GaussianRational(
        Fraction(z.real).limit_denominator(SNAP_MAX_DEN),
        Fraction(z.imag).limit_denominator(SNAP_MAX_DEN),
    )


def poly_roots_exact_first(
    coeffs: List[GaussianRational],
) -> Tuple[List[Tuple[GaussianRational, int]], List[Tuple[complex, int]]]:
    """Roots (with multiplicity) of an exact polynomial given by its
    ascending coefficient list.

    Numeric root candidates are snapped to small Gaussian rationals and kept
    only when exact evaluation verifies them; verified roots are deflated
    exactly, the rest stay floating."""
    work = list(coeffs)
    while work and not work[-1]:
        work.pop()
    exact: List[Tuple[GaussianRational, int]] = []
    progress = True
    while progress and len(work) > 1:
        progress = False
        cands = _numeric_roots([complex(c) for c in work])
        cands.sort(key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for z in cands:
            cand = gauss_from_complex(z)
            if _poly_eval(work, cand) == ZERO:
                mult = 0
                while len(work) > 1 and _poly_eval(work, cand) == ZERO:
                    work = _poly_deflate(work, cand)
                    mult += 1
                exact.append((cand, mult))
                progress = True
                break
    floats: List[Tuple[complex, int]] = []
    if len(work) > 1:
        floats = _cluster(_numeric_roots([complex(c) for c in work]))
    return exact, floats


def _nth_root_exact(xi: GaussianRational, q: int) -> Optional[GaussianRational]:
    """A q-th root of xi inside the Gaussian rationals, if one exists."""
    if q == 1:
        return xi
    base = complex(xi) ** (1.0 / q)
    for s in range(q):
        cand = gauss_from_complex(base * cmath.exp(2j * cmath.pi * s / q))
        if cand**q == xi:
            return cand
    return None


# ---------------------------------------------------------------------------
# Newton-Puiseux
# ---------------------------------------------------------------------------


@dataclass
class PuiseuxBranch:
    """One place of the plane curve: the formal curve t -> (t^d, w(t)).

    ``w`` is a TruncSeries in exact mode, a FloatSeries (with recorded
    tolerance) in floating mode; the residual of the defining polynomial on
    the branch is certified through ``certified_order``."""

    ramification: int
    w: Union[TruncSeries, FloatSeries]
    mode: str  # "exact" | "floating"
    tolerance: Optional[float]
    certified_order: int
    residual_bound: float  # 0.0 when every coefficient through the order cancels

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"

    def curve(self, direction: Sequence) -> FormalCurve:
        """(v_1 t^d, .., v_k t^d, w(t)) as an exact FormalCurve: the branch
        embedded along the base line with direction v."""
        if not self.is_exact:
            raise ExactnessError("floating branch cannot become an exact curve")
        prec = self.w.precision
        comps = [TruncSeries.monomial(1, prec, (self.ramification,), v) for v in direction]
        return FormalCurve(comps + [self.w])

    def __str__(self) -> str:
        from .formats import format_branch

        return format_branch(self)

    __repr__ = __str__


def _regular_root(coeffs: list, N: int):
    """The solution w(t), w(0) = 0, of P(w) = sum c_i w^i = 0 when the
    vanishing root is simple (c_0(0) = 0, c_1(0) invertible).

    Precision-doubling Newton iteration (Kung-Traub, J. ACM 25, 1978) with
    a coupled inverse: v ~ 1/P'(w) is refreshed by v <- v (2 - P'(w) v)
    through the current precision a, then w <- w - v P(w) through 2a + 1,
    for a = 0, 1, 3, 7, .. up to M.  P(w) and P'(w) come from one Horner
    pass.  M is the smallest precision among c_0 and the nonzero c_i,
    capped at N; w is returned at precision N, with no terms of degree 0
    or above M.  The c_i and w are all ``DenseSeries`` (exact: Z[i]
    numerators over one denominator, each result normalized by one gcd) or
    all FloatSeries; a floating w drops w_e when its share c_1(0) w_e of
    the residual is at most FLOAT_ZERO_EPS."""
    S = type(coeffs[0])
    M = min([N, coeffs[0].precision] + [c.precision for c in coeffs[1:] if not c.is_zero()])
    cs = [coeffs[0]] + [S.constant(M, 0) if c.is_zero() else c for c in coeffs[1:]]
    # w and v are our own iterates: polynomials, restated at precision M
    w = S.constant(M, 0)
    c1_0 = cs[1].coeff(0)
    v = S.constant(M, 1 / c1_0)
    a = 0
    while a < M:
        p = min(2 * a + 1, M)
        wp, wa = w.with_precision(p), w.with_precision(a)
        r = d = cs[-1]
        for c in reversed(cs[1:-1]):
            r = r * wp + c
            d = d * wa + r
        r = r * wp + cs[0]
        # v first: w - v r keeps order p only with v at precision M
        v = (v.scale(2) - v * (d * v).with_precision(a)).restated(M)
        w = (w - v * r).restated(M)
        a = p
    if S is DenseSeries:
        return w.restated(N)
    return FloatSeries([c if e and abs(c1_0 * c) > FLOAT_ZERO_EPS else 0j
                        for e, c in enumerate(w.vals)], N)


def _lower_hull(points: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    pts = sorted(points)
    hull: List[Tuple[int, int]] = []
    for p in pts:
        while (
            len(hull) >= 2
            and (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            - (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])
            <= 0
        ):
            hull.pop()
        hull.append(p)
    return hull


def _transform(coeffs: list, q: int, m_e: int, l_const: int, c_lead, N: int) -> list:
    """Coefficients of P(tau^q, tau^m_e (c + w')) / tau^l_const in w'."""
    deg = len(coeffs) - 1
    zero = type(coeffs[0]).constant(N, 0)
    out = [zero] * (deg + 1)
    cpow = [c_lead**0]  # ONE or 1+0j: the one of c_lead's field
    for _ in range(deg):
        cpow.append(cpow[-1] * c_lead)
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        base = c.substitute_power(q).shift(m_e * i - l_const).with_precision(N)
        for s in range(i + 1):
            out[s] = out[s] + base.scale(cpow[i - s] * comb(i, s))
    return [o.with_precision(N) for o in out]


def _puiseux_rec(coeffs: list, N: int, exact_only: bool, depth: int) -> list:
    """Branches (ramification, w-series) with w(0) = 0 of the polynomial
    sum_i c_i(t) w^i.  The c_i are all ``DenseSeries`` or all FloatSeries,
    and every w comes back in the same type as the c_i that produced it: a
    branch is exact when its w is a DenseSeries.  A characteristic root
    outside Q(i) converts the exact c_i to FloatSeries once, for that root's
    subtree."""
    if depth > N + 8:
        raise GermforgeError("Newton-polygon recursion failed to terminate")
    i0 = next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)
    if i0 is None:
        raise GermforgeError("polynomial vanishes identically to precision")
    floating = isinstance(coeffs[0], FloatSeries)
    out = [(1, type(coeffs[0]).constant(N, 0)) for _ in range(i0)]
    coeffs = coeffs[i0:]
    if len(coeffs) == 1:
        return out
    if coeffs[0].order() == 0:
        return out  # constant slice is a unit: no further vanishing roots
    mu = next((i for i, c in enumerate(coeffs) if c.order() == 0), None)
    if mu is None:
        raise GermforgeError(
            "every w-coefficient vanishes at the base point; polygon degenerates"
        )
    if mu == 1:
        out.append((1, _regular_root(coeffs, N)))
        return out
    points = [(i, c.order()) for i, c in enumerate(coeffs) if c.order() is not None]
    hull = _lower_hull([p for p in points if p[0] <= mu])
    for (i1, j1), (i2, j2) in zip(hull, hull[1:]):
        if j1 <= j2:
            continue
        rise, run = j1 - j2, i2 - i1
        g = gcd(rise, run)
        m_e, q = rise // g, run // g
        width = run // q
        # reduced characteristic polynomial in eta = c^q
        psi = [coeffs[i1 + s * q].coeff(j1 - s * m_e) for s in range(width + 1)]
        if floating:
            exact_roots, float_roots = [], _cluster(_numeric_roots(psi))
        else:
            exact_roots, float_roots = poly_roots_exact_first(psi)
        l_const = q * j1 + m_e * i1
        for xi, _mult in exact_roots + float_roots:
            c_lead = _nth_root_exact(xi, q) if isinstance(xi, GaussianRational) else None
            work = coeffs
            if c_lead is None:
                if exact_only:
                    continue
                c_lead = complex(xi) ** (1.0 / q)
                if not floating:
                    work = [FloatSeries.from_exact(c) for c in coeffs]
            for d_sub, w_sub in _puiseux_rec(
                _transform(work, q, m_e, l_const, c_lead, N), N, exact_only, depth + 1
            ):
                inner = type(w_sub).constant(N, c_lead) + w_sub
                out.append((q * d_sub, inner.shift(m_e * d_sub).with_precision(N)))
    return out


def newton_puiseux(
    P: WeierstrassPoly, N: int, exact_only: bool = False, disc: Optional[TruncSeries] = None
) -> List[PuiseuxBranch]:
    """All branches of a one-base-variable Weierstrass polynomial, each with
    its ramification and a residual certified through order N.

    Requires a nonzero discriminant within precision (reduced input);
    ``disc`` is P's discriminant when the caller has computed it already,
    as ``LineRestriction.discriminant_on_line``.  Characteristic roots
    outside the Gaussian rationals yield floating branches with a recorded
    tolerance, or are skipped under ``exact_only``; a floating branch whose
    residual exceeds that tolerance raises ExactnessError."""
    if P.base_vars != 1:
        raise DimensionMismatch(
            "newton_puiseux expects one base variable; use generic_restrict first"
        )
    if P.precision < N:
        raise PrecisionError(
            f"coefficients certified to {P.precision} < requested order {N}"
        )
    _nonzero_discriminant(P, disc)
    coeffs = [DenseSeries.from_exact(b, N) for b in P.coeffs]
    branches = []
    for d, w in _puiseux_rec(coeffs + [DenseSeries.constant(N, ONE)], N, exact_only, 0):
        exact = isinstance(w, DenseSeries)
        res_bound = _branch_residual(coeffs, d, w, N)
        if not exact and not res_bound <= FLOAT_BRANCH_TOL:
            raise ExactnessError(f"floating branch d={d} leaves residual {res_bound:.3g} "
                                 f"through order {N}, above its tolerance {FLOAT_BRANCH_TOL}")
        branches.append(
            PuiseuxBranch(
                ramification=d,
                w=TruncSeries._trusted(1, w.precision, w.coeffs) if exact else w,
                mode="exact" if exact else "floating",
                tolerance=None if exact else FLOAT_BRANCH_TOL,
                certified_order=N,
                residual_bound=res_bound,
            )
        )
    return branches


def _branch_residual(coeffs: list, d: int, w, N: int) -> float:
    """Largest surviving coefficient magnitude of P(t^d, w(t)) through order N
    (0.0 when everything cancels; exact zero for exact branches), where
    ``coeffs`` are P's lower coefficients as ``DenseSeries`` at precision N.
    Evaluated by Horner in P.degree products: on ``DenseSeries`` for an exact
    branch (one gcd per product and sum, reduced coefficients read only
    from a nonzero residual), on FloatSeries, converted here, for a floating
    one."""
    cs = [c.substitute_power(d).with_precision(N) for c in coeffs]
    S = type(w)
    if S is FloatSeries:
        cs = [FloatSeries.from_exact(c) for c in cs]
    res = S.constant(N, 1)
    for c in reversed(cs):
        res = res * w + c
    if S is DenseSeries:
        return max((float(c.norm2()) for c in res.coeffs.values()), default=0.0) ** 0.5
    return max(map(abs, res.vals), default=0.0)


# ---------------------------------------------------------------------------
# normal forms and the prime-ideal curve lift
# ---------------------------------------------------------------------------


def extend_vars(s: TruncSeries, nvars: int) -> TruncSeries:
    """Reinterpret a k-variable series inside n >= k variables (new ones last)."""
    if s.nvars > nvars:
        raise DimensionMismatch("cannot shrink the variable count")
    pad = (0,) * (nvars - s.nvars)
    return TruncSeries(nvars, s.precision, {J + pad: c for J, c in s.coeffs.items()})


def restrict_vars(s: TruncSeries, nvars: int) -> TruncSeries:
    """Drop trailing variables the series does not actually use."""
    if s.nvars < nvars:
        raise DimensionMismatch("series already has fewer variables")
    out = {}
    for J, c in s.coeffs.items():
        if any(J[nvars:]):
            raise DimensionMismatch("series uses a variable beyond the restriction")
        out[J[:nvars]] = c
    return TruncSeries(nvars, s.precision, out)


class NormalForm:
    """User-supplied strictly-regular presentation of a prime ideal: the
    defining Weierstrass polynomial p of the distinguished variable z_{k+1},
    its discriminant D, and one relation D*z_j - Q_j(z_1..z_{k+1}) per
    remaining variable j = k+2..n."""

    __slots__ = ("nvars", "k", "p", "discriminant", "relations", "_assoc")

    def __init__(
        self,
        nvars: int,
        k: int,
        p: WeierstrassPoly,
        disc: TruncSeries,
        relations: Sequence[Tuple[int, TruncSeries]],
    ):
        if p.base_vars != k:
            raise NormalFormError("p must be a Weierstrass polynomial over z_1..z_k")
        if disc.nvars != k:
            raise NormalFormError("discriminant must live in the base variables")
        own = discriminant(p).with_precision(min(disc.precision, p.precision))
        supplied = disc.with_precision(own.precision)
        if not (supplied == own or supplied == own.scale(-1)):
            raise NormalFormError(
                "supplied discriminant disagrees with the resultant of p (up to sign)"
            )
        expected = sorted(range(k + 2, nvars + 1))
        if sorted(j for j, _ in relations) != expected:
            raise NormalFormError(
                f"relations must cover exactly the variables {expected}"
            )
        rels = []
        for j, Q in sorted(relations):
            if Q.nvars != nvars:
                raise NormalFormError(
                    "relation polynomials must be stated in all variables"
                )
            restrict_vars(Q, k + 1)  # raises if Q touches z_{k+2}..z_n
            rels.append((j, Q))
        self.nvars = nvars
        self.k = k
        self.p = p
        self.discriminant = disc
        self.relations = tuple(rels)
        self._assoc: dict = {}  # level -> associated ideal, see associated_membership

    def q_series(self, j: int) -> TruncSeries:
        """The relation generator D*z_j - Q_j as an n-variable series."""
        for jj, Q in self.relations:
            if jj == j:
                Dn = extend_vars(self.discriminant, self.nvars)
                zj = TruncSeries.variable(self.nvars, Q.precision, j - 1)
                return Dn * zj - Q
        raise NormalFormError(f"no relation for variable {j}")

    def generators(self) -> List[TruncSeries]:
        """p and the q_j, all in n variables at their joint precision."""
        gens = [extend_vars(self.p.as_series(), self.nvars)]
        for j, _ in self.relations:
            gens.append(self.q_series(j))
        prec = min(g.precision for g in gens)
        return [g.with_precision(prec) for g in gens]


@dataclass
class LiftResult:
    curve: FormalCurve
    divisor_order: int
    generator_orders: Dict[str, int]  # label -> vanishing certified through


def prime_curve_lift(nf: NormalForm, zeta_base: FormalCurve, N: int) -> LiftResult:
    """Extend a curve annihilating p into all n variables by the exact series
    divisions z_j = Q_j / D along the curve.

    Requires ord(Q_j o curve) > ord(D o curve), so each quotient is a genuine
    power series vanishing at 0; violations contradict the normal-form
    hypotheses and report the offending variable."""
    if zeta_base.dim != nf.k + 1:
        raise DimensionMismatch(
            f"base curve must have {nf.k + 1} components, got {zeta_base.dim}"
        )
    p_full = nf.p.as_series()
    p_res = pullback(p_full, zeta_base)
    if p_res.precision < N:
        raise PrecisionError("base curve too shallow to certify the requested order")
    if not p_res.jet(N).is_zero():
        raise NormalFormError(f"base curve does not annihilate p through order {N}")
    base_k = FormalCurve(zeta_base.components[: nf.k])
    Dpull = pullback(nf.discriminant, base_k)
    omega = Dpull.order()
    if omega is None:
        raise NormalFormError(
            "discriminant vanishes on the base curve to precision; pick another branch"
        )
    comps = list(zeta_base.components)
    for j, Q in nf.relations:
        num = pullback(restrict_vars(Q, nf.k + 1), zeta_base)
        if num.is_zero():
            comps.append(TruncSeries.zero(1, num.precision))
            continue
        if num.order() < omega:
            raise NormalFormError(
                f"ord(Q_{j} o curve) = {num.order()} < ord(D o curve) = {omega}; "
                "normal-form hypotheses are violated"
            )
        if num.order() == omega:
            raise NormalFormError(
                f"component z_{j} = Q_{j}/D would not vanish at the origin"
            )
        comps.append(divide(num, Dpull))
    curve = FormalCurve(comps)
    orders: Dict[str, int] = {}
    for label, gen in [("p", extend_vars(p_full, nf.nvars))] + [
        (f"q_{j}", nf.q_series(j)) for j, _ in nf.relations
    ]:
        res = pullback(gen.with_precision(min(gen.precision, curve.precision)), curve)
        orders[label] = res.precision if res.is_zero() else res.order() - 1
    return LiftResult(curve=curve, divisor_order=omega, generator_orders=orders)


def associated_membership(
    f: TruncSeries, nf: NormalForm, max_nu: int, N: int
) -> Optional[Tuple[int, Dict]]:
    """Smallest nu <= max_nu with D^nu * f in (p, q_{k+2}, .., q_n) modulo
    degrees > N, with the certifying combination; None if the cap is reached.
    The ideal is built once per normal form and level, so the calls for
    every generator of one lift share a single elimination."""
    from .ideals import IdealPresentation, membership_jet

    ideal = nf._assoc.get(N)
    if ideal is None:
        gens = nf.generators()
        if min(g.precision for g in gens) < N:
            raise PrecisionError("normal-form generators too shallow for this order")
        ideal = nf._assoc[N] = IdealPresentation(nf.nvars, [g.with_precision(N) for g in gens])
    if f.precision < N:
        raise PrecisionError("candidate series too shallow for this order")
    Dn = extend_vars(nf.discriminant, nf.nvars)
    if Dn.precision < N:
        raise PrecisionError("discriminant too shallow for this order")
    Dn = Dn.with_precision(N)
    acc = f.with_precision(N)
    for nu in range(max_nu + 1):
        res = membership_jet(acc, ideal, N)
        if res.contained:
            return nu, res.combination
        acc = acc * Dn
    return None
