"""Truncated multivariate formal power series and formal curves.

A :class:`TruncSeries` stores exact coefficients for all total degrees up
to its ``precision``; degrees beyond the precision are *unknown*, never
assumed zero.  All arithmetic propagates precision conservatively, so a
coefficient is reported only when no unknown tail of any operand could
have contributed to it.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Iterable, Optional, Sequence

from .coeffs import DenseSeries, GaussianRational, ZERO, ONE, as_gauss
from .errors import (
    ConstantCurveError,
    DimensionMismatch,
    PrecisionError,
)

Multidegree = tuple  # tuple of non-negative ints, one per variable
_new = object.__new__


def compare(J: Multidegree, K: Multidegree) -> int:
    """Total order on multidegrees: by total degree, ties broken entrywise
    with the smaller entry first.  Returns -1, 0 or +1."""
    if len(J) != len(K):
        raise DimensionMismatch(f"multidegrees of length {len(J)} vs {len(K)}")
    dJ, dK = sum(J), sum(K)
    if dJ != dK:
        return -1 if dJ < dK else 1
    for a, b in zip(J, K):
        if a != b:
            return -1 if a < b else 1
    return 0


def degree_key(J: Multidegree):
    """Sort key realizing :func:`compare`."""
    return (sum(J), J)


def _add_exps(J: Multidegree, K: Multidegree) -> Multidegree:
    return tuple(a + b for a, b in zip(J, K))


class TruncSeries:
    """Sparse truncated power series with Gaussian-rational coefficients."""

    __slots__ = ("nvars", "precision", "coeffs")

    def __init__(self, nvars: int, precision: int, coeffs=None):
        if precision < 0:
            raise PrecisionError("precision must be >= 0")
        self.nvars = nvars
        self.precision = precision
        clean = {}
        if coeffs:
            for J, c in coeffs.items():
                c = as_gauss(c)
                if not c:
                    continue
                if len(J) != nvars:
                    raise DimensionMismatch(
                        f"exponent {J} has length {len(J)}, series has {nvars} variables"
                    )
                if sum(J) <= precision:
                    clean[tuple(J)] = c
        self.coeffs = clean

    @classmethod
    def _trusted(cls, nvars: int, precision: int, coeffs: dict) -> "TruncSeries":
        """A series over a dict that is already clean: nonzero Gaussian
        rationals keyed by exponent tuples of length nvars and total degree
        <= precision.  Nothing is checked or copied."""
        out = _new(cls)
        out.nvars, out.precision, out.coeffs = nvars, precision, coeffs
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, precision: int) -> "TruncSeries":
        return cls(nvars, precision, {})

    @classmethod
    def constant(cls, nvars: int, precision: int, c) -> "TruncSeries":
        return cls(nvars, precision, {(0,) * nvars: as_gauss(c)})

    @classmethod
    def monomial(cls, nvars: int, precision: int, J: Multidegree, c=1) -> "TruncSeries":
        return cls(nvars, precision, {tuple(J): as_gauss(c)})

    @classmethod
    def variable(cls, nvars: int, precision: int, i: int) -> "TruncSeries":
        J = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, precision, {J: ONE})

    # -- basic queries ---------------------------------------------------------

    def coeff(self, J) -> GaussianRational:
        if isinstance(J, int):
            J = (J,)
        J = tuple(J)
        if sum(J) > self.precision:
            raise PrecisionError(
                f"degree {sum(J)} beyond certified precision {self.precision}"
            )
        return self.coeffs.get(J, ZERO)

    def is_zero(self) -> bool:
        """Zero through the certified precision (the tail stays unknown)."""
        return not self.coeffs

    def order(self) -> Optional[int]:
        """Smallest total degree with nonzero coefficient, or None when the
        series vanishes through its precision (order >= precision + 1)."""
        if not self.coeffs:
            return None
        return min(sum(J) for J in self.coeffs)

    def constant_term(self) -> GaussianRational:
        return self.coeffs.get((0,) * self.nvars, ZERO)

    def terms(self):
        """Stored terms in the canonical multidegree order."""
        return sorted(self.coeffs.items(), key=lambda it: degree_key(it[0]))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def agrees_with(self, other: "TruncSeries", k: int) -> bool:
        """Coefficient-wise equality of the two k-jets."""
        return self.jet(k).coeffs == other.jet(k).coeffs

    # -- arithmetic -------------------------------------------------------------

    def _check_compatible(self, other: "TruncSeries"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"series in {self.nvars} vs {other.nvars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = TruncSeries.constant(self.nvars, self.precision, other)
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        out = dict(self.coeffs) if self.precision == prec else self.jet(prec).coeffs
        for J, c in (other if other.precision == prec else other.jet(prec)).coeffs.items():
            s = out.get(J, ZERO) + c
            if s:
                out[J] = s
            else:
                out.pop(J, None)
        return TruncSeries._trusted(self.nvars, prec, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._trusted(self.nvars, self.precision, {J: -c for J, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, GaussianRational)):
            other = TruncSeries.constant(self.nvars, self.precision, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncSeries":
        c = as_gauss(c)
        if not c:
            return TruncSeries.zero(self.nvars, self.precision)
        return TruncSeries._trusted(self.nvars, self.precision, {J: c * v for J, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            return self.scale(other)
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        if self.nvars == 1 and len(self.coeffs) * len(other.coeffs) > prec + 1:
            # more coefficient pairs than output slots: one integer product
            x, y = DenseSeries.from_exact(self, prec), DenseSeries.from_exact(other, prec)
            return TruncSeries._trusted(1, prec, (x * y).coeffs)
        out: dict = {}
        for J, a in self.coeffs.items():
            dJ = sum(J)
            if dJ > prec:
                continue
            for K, b in other.coeffs.items():
                d = dJ + sum(K)
                if d > prec:
                    continue
                E = _add_exps(J, K)
                s = out.get(E, ZERO) + a * b
                if s:
                    out[E] = s
                else:
                    out.pop(E, None)
        return TruncSeries._trusted(self.nvars, prec, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers need explicit inversion")
        out = TruncSeries.constant(self.nvars, self.precision, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            if e > 1:
                base = base * base
            e >>= 1
        return out

    def conj_coeffs(self) -> "TruncSeries":
        """Series whose coefficients are the complex conjugates."""
        return TruncSeries(
            self.nvars,
            self.precision,
            {J: c.conjugate() for J, c in self.coeffs.items()},
        )

    # -- truncation ---------------------------------------------------------------

    def jet(self, k: int) -> "TruncSeries":
        """Truncate to total degree <= k.  Requires k <= precision: the unknown
        tail is never silently read as zero."""
        if k > self.precision:
            raise PrecisionError(
                f"jet order {k} exceeds certified precision {self.precision}"
            )
        return TruncSeries._trusted(self.nvars, k, {J: c for J, c in self.coeffs.items() if sum(J) <= k})

    def with_precision(self, k: int) -> "TruncSeries":
        """Restate at a lower (or equal) precision."""
        if k == self.precision:
            return self
        return self.jet(min(k, self.precision))

    # -- univariate helpers ----------------------------------------------------------

    def substitute_power(self, m: int) -> "TruncSeries":
        """Univariate substitution t -> t^m; precision scales by m."""
        if self.nvars != 1:
            raise DimensionMismatch("substitute_power applies to univariate series")
        if m < 1:
            raise ValueError("exponent must be >= 1")
        return TruncSeries._trusted(1, self.precision * m, {(J[0] * m,): c for J, c in self.coeffs.items()})

    def __str__(self) -> str:
        from .formats import format_series

        return format_series(self)

    __repr__ = __str__


def inverse(s: TruncSeries, precision: Optional[int] = None) -> TruncSeries:
    """Multiplicative inverse of a series with nonzero constant term, exact
    through the requested precision (default: the operand's)."""
    prec = s.precision if precision is None else min(precision, s.precision)
    c0 = s.constant_term()
    if not c0:
        raise ZeroDivisionError("series has no unit constant term")
    # group coefficients by total degree for the triangular recursion
    by_deg: dict = {}
    for J, c in s.coeffs.items():
        by_deg.setdefault(sum(J), {})[J] = c
    inv0 = ONE / c0
    out = {(0,) * s.nvars: inv0}
    out_by_deg = {0: {(0,) * s.nvars: inv0}}
    for d in range(1, prec + 1):
        level: dict = {}
        for e in range(1, d + 1):
            se = by_deg.get(e)
            if not se:
                continue
            ue = out_by_deg.get(d - e)
            if not ue:
                continue
            for J, a in se.items():
                for K, b in ue.items():
                    E = _add_exps(J, K)
                    v = level.get(E, ZERO) + a * b
                    if v:
                        level[E] = v
                    else:
                        level.pop(E, None)
        if level:
            neg = {J: -(inv0 * c) for J, c in level.items()}
            out_by_deg[d] = neg
            out.update(neg)
    return TruncSeries(s.nvars, prec, out)


def divide(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """Exact univariate division num/den where ord(den) <= ord(num); the
    quotient is a genuine power series."""
    if num.nvars != 1 or den.nvars != 1:
        raise DimensionMismatch("series division is univariate")
    w = den.order()
    if w is None:
        raise ZeroDivisionError("denominator vanishes to precision")
    prec = min(num.precision, den.precision) - w
    if prec < 0:
        raise PrecisionError("operands too shallow for the requested division")
    if num.is_zero():
        return TruncSeries.zero(1, prec)
    if num.order() < w:
        raise ValueError("numerator order below denominator order")
    num_shift = TruncSeries(1, prec, {(J[0] - w,): c for J, c in num.coeffs.items() if J[0] - w <= prec})
    den_shift = TruncSeries(1, prec, {(J[0] - w,): c for J, c in den.coeffs.items() if J[0] - w <= prec})
    return num_shift * inverse(den_shift)


class FormalCurve:
    """n-tuple of univariate truncated series with every component vanishing
    at t = 0 (the germ is normalized to the origin)."""

    __slots__ = ("components", "precision")

    def __init__(self, components: Sequence[TruncSeries]):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatch("a curve needs at least one component")
        prec = min(c.precision for c in comps)
        fixed = []
        for i, c in enumerate(comps):
            if c.nvars != 1:
                raise DimensionMismatch(f"component {i + 1} is not univariate")
            if c.constant_term():
                raise ValueError(f"component {i + 1} does not vanish at t=0")
            fixed.append(c.with_precision(prec))
        self.components = tuple(fixed)
        self.precision = prec

    @classmethod
    def from_monomials(
        cls, exponents: Sequence[int], precision: int, coefficients=None
    ) -> "FormalCurve":
        """Curve with components c_i * t^(a_i); a_i == 0 means the zero component."""
        coefficients = coefficients or [1] * len(exponents)
        comps = []
        for a, c in zip(exponents, coefficients):
            if a == 0:
                comps.append(TruncSeries.zero(1, precision))
            else:
                comps.append(TruncSeries.monomial(1, precision, (a,), c))
        return cls(comps)

    @property
    def dim(self) -> int:
        return len(self.components)

    def vanishing_order(self) -> Optional[int]:
        """min over components of the vanishing order; None when every
        component is zero through the precision (order >= precision + 1)."""
        return min((o for o in (c.order() for c in self.components) if o is not None), default=None)

    def is_constant(self) -> bool:
        return self.vanishing_order() is None

    def reparametrize(self, m: int) -> "FormalCurve":
        """Substitute t -> t^m.  Orders and precision scale by m."""
        if m < 1:
            raise ValueError("reparametrization exponent must be >= 1")
        return FormalCurve(tuple(c.substitute_power(m) for c in self.components))

    def with_component(self, i: int, series: TruncSeries) -> "FormalCurve":
        comps = list(self.components)
        comps[i] = series
        return FormalCurve(comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalCurve):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __str__(self) -> str:
        from .formats import format_curve

        return format_curve(self)

    __repr__ = __str__


class CurvePowers:
    """The images curve^J of monomials along a curve at one precision,
    cached per J; a table lives only as long as the call that made it.

    When every component has at most one term through the precision,
    c_i t^(a_i), curve^J is the one term prod c_i^(J_i) t^(a.J), computed
    without series products; otherwise, or when ``single_terms`` is false,
    it is the product of the cached component powers."""

    __slots__ = ("precision", "components", "_monos", "_powers", "_images")

    def __init__(self, curve: FormalCurve, precision: int, single_terms: bool = True):
        self.precision = precision
        self.components = comps = [c.with_precision(precision) for c in curve.components]
        self._monos = self._powers = None
        if single_terms and all(len(c.coeffs) <= 1 for c in comps):
            # a zero component reads as one term past the precision
            self._monos = [next(iter(c.coeffs.items()), ((precision + 1,), ONE)) for c in comps]
        else:
            one = TruncSeries.constant(1, precision, 1)
            self._powers = [{0: one, 1: c} for c in comps]
        self._images: dict = {}

    def _power(self, i: int, e: int) -> TruncSeries:
        cache = self._powers[i]
        got = cache.get(e)
        if got is None:
            half = self._power(i, e // 2)
            got = half * half
            if e & 1:
                got = got * self.components[i]
            cache[e] = got
        return got

    def image(self, J: Multidegree) -> TruncSeries:
        """curve^J at the precision."""
        got = self._images.get(J)
        if got is None:
            if self._monos is not None:
                deg, coef = 0, ONE
                for x, ((d,), ci) in zip(J, self._monos):
                    if x:
                        deg, coef = deg + x * d, coef if ci == ONE else coef * ci ** x
                terms = {(deg,): coef} if deg <= self.precision else {}
                got = TruncSeries._trusted(1, self.precision, terms)
            else:
                for i, e in enumerate(J):
                    if e:
                        p = self._power(i, e)
                        got = p if got is None or not p else got * p
                        if not got:
                            break
                if got is None:
                    got = self._powers[0][0]
            self._images[J] = got
        return got


def pullback(s: TruncSeries, curve: FormalCurve) -> TruncSeries:
    """Compose s with the curve: the univariate series (s o curve)(t).

    The output precision is min(s.precision * nu(curve), curve.precision):
    a coefficient is reported only when no unknown term of either input can
    reach it.  Every image curve^J is a product of component powers, also
    along a monomial curve: the witness check's pullbacks are the series
    products that the pipeline-witness benchmark measures.
    """
    if s.nvars != curve.dim:
        raise DimensionMismatch(
            f"series in {s.nvars} variables, curve in C^{curve.dim}"
        )
    nu = curve.vanishing_order()
    if nu is None:
        raise ConstantCurveError("pullback along a constant-to-precision curve")
    prec = min(s.precision * nu, curve.precision)
    powers = CurvePowers(curve, prec, single_terms=False)
    out: dict = {}
    for J, c in s.coeffs.items():
        if nu * sum(J) > prec:
            continue  # every term of curve^J lies beyond the precision
        for K, v in powers.image(J).coeffs.items():
            w = out.get(K, ZERO) + c * v
            if w:
                out[K] = w
            else:
                out.pop(K, None)
    return TruncSeries(1, prec, out)


# thin functional aliases mirroring the module surface

def mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    return a * b


def jet(s: TruncSeries, k: int) -> TruncSeries:
    return s.jet(k)


def vanishing_order(curve: FormalCurve) -> Optional[int]:
    return curve.vanishing_order()


def reparametrize(curve: FormalCurve, m: int) -> FormalCurve:
    return curve.reparametrize(m)


def exponent_tuples(nvars: int, max_exponent: int) -> Iterable[tuple]:
    """Monomial-curve exponent patterns: entries in 0..max_exponent, not all
    zero, with gcd of the nonzero entries equal to 1, the last entry
    running fastest."""
    return (t for t in product(range(max_exponent + 1), repeat=nvars) if gcd(*t) == 1)
