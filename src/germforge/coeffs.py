"""Gaussian-rational coefficient arithmetic.

Every exact computation in the package runs over Q(i).  A value
(a + b*i)/d is stored as three Python ints in normal form: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have equal
triples.  A field operation builds no ``Fraction`` and takes at most one
``math.gcd``, none when the result's denominator is 1; printing takes one
gcd per part.  A univariate ``DenseSeries`` keeps integer numerators over
one denominator, and an operation on it takes one gcd for all its
coefficients: exact Newton-Puiseux runs on it from entry to exit.
Floating binary64 values appear only in the two explicitly quarantined
code paths (unitary construction, Puiseux fallback) and are never mixed
silently into exact data.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .errors import ExactnessError, PrecisionError

RatLike = Union[int, Fraction]


class GaussianRational:
    """Exact complex number (a + b*i)/d with integers a, b, d in normal form.

    ``re`` and ``im`` read the parts as ``Fraction``s.  Most coefficients
    met in practice are real (integer ideals, real forms, real curves), so
    the operators skip the arithmetic on a zero imaginary part b: a
    product of two reals is one integer product, and a sum or a division
    by a real leaves b = 0 alone.  Every short-cut gives the value of the
    textbook formula exactly; it only leaves out products and sums known
    to be zero.  A real value compares and hashes like its ``Fraction``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        a, q = _ratio(re)
        b, s = _ratio(im)
        if q == s:
            self._a, self._b, self._d = a, b, q
        else:  # over lcm(q, s) no prime divides both parts and d
            d = q // gcd(q, s) * s
            self._a, self._b, self._d = a * (d // q), b * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- ring / field operations ------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        d, f = self._d, other._d
        b, e = self._b, other._b
        if d == f:
            return _reduced(self._a + other._a, (b + e if b else e) if e else b, d)
        return _reduced(
            self._a * f + other._a * d, (b * f + e * d if b else e * d) if e else b * f, d * f
        )

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        d, f = self._d, other._d
        b, e = self._b, other._b
        if d == f:
            return _reduced(self._a - other._a, (b - e if b else -e) if e else b, d)
        return _reduced(
            self._a * f - other._a * d, (b * f - e * d if b else -e * d) if e else b * f, d * f
        )

    def __rsub__(self, other) -> "GaussianRational":
        return as_gauss(other) - self

    def __neg__(self) -> "GaussianRational":
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        a, b = self._a, self._b
        c, e = other._a, other._b
        if not e:
            return _reduced(a * c, b * c if b else b, self._d * other._d)
        if not b:
            return _reduced(a * c, a * e, self._d * other._d)
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if c < 0:
                c, f = -c, -f
            return _reduced(a * f, b * f if b else b, d * c)
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        if not b:
            return _reduced(f * a * c, -f * a * e, d * (c * c + e * e))
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * (c * c + e * e))

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_gauss(other) / self

    def __pow__(self, e: int) -> "GaussianRational":
        if e < 0:
            return ONE / self ** (-e)
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """|c|^2, exactly."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return not self._b and self._d == other.denominator and self._a == other.numerator
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            raise ExactnessError(f"coefficient {self} is outside the floating range") from None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _part(a, d)
        ims = "i" if b == d else "-i" if b == -d else f"{_part(b, d)}i"
        if not a:
            return ims
        return f"{_part(a, d)}{'+' if b > 0 else ''}{ims}"

    def literal(self) -> str:
        """``str``, parenthesized when both parts are nonzero, as a factor."""
        return f"({self})" if self._a and self._b else str(self)

    def is_negative_lead(self) -> bool:
        """The leading nonzero part (real, else imaginary) is negative."""
        return self._a < 0 or (not self._a and self._b < 0)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _part(n: int, d: int) -> str:
    """n/d as ``str(Fraction(n, d))`` prints it, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _ratio(x) -> tuple:
    """Numerator and positive denominator of an int or rational, coprime."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi)/d from a triple already in normal form."""
    out = _new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + bi)/d in normal form, for d > 0."""
    out = _new(GaussianRational)
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out._a = a
    out._b = b
    out._d = d
    return out


class DenseSeries:
    """Univariate truncated series over Q(i), dense: coefficient k is
    (re[k] + im[k] i)/den with integer numerator lists and one denominator
    den > 0, known through ``precision``; the lists hold at most
    precision + 1 slots, and a missing slot is 0.

    A product is one Kronecker big-int product (Harvey, arXiv:0712.4046), a
    sum is taken over the lcm of the two denominators, and each result is
    normalized by one multi-argument gcd of den and every numerator, not
    one gcd per coefficient.  Shifts and substitutions t -> t^m move slots
    and keep the denominator.  Newton-Puiseux converts a polynomial's
    coefficients to this form once and each exact branch back to a
    ``TruncSeries`` once; the floating series of the Puiseux fallback has
    the same surface, so one recursion and one Newton iteration serve both."""

    __slots__ = ("re", "im", "den", "precision")

    def __init__(self, re: list, im: list, den: int, precision: int):
        self.re, self.im, self.den, self.precision = re, im, den, precision

    @classmethod
    def from_exact(cls, s, precision: Optional[int] = None) -> "DenseSeries":
        """A univariate exact series s (its ``precision`` and {(e,): value}
        ``coeffs``), at most at the given precision."""
        prec = s.precision if precision is None else min(precision, s.precision)
        terms = [(e, c) for (e,), c in s.coeffs.items() if e <= prec]
        den = lcm(*(c._d for _, c in terms))
        re = [0] * (max(e for e, _ in terms) + 1 if terms else 0)
        im = re[:]
        for e, c in terms:
            re[e], im[e] = c._a * (den // c._d), c._b * (den // c._d)
        return cls(re, im, den, prec)

    @classmethod
    def constant(cls, precision: int, c) -> "DenseSeries":
        c = as_gauss(c)
        return cls([c._a], [c._b], c._d, precision)

    @property
    def coeffs(self) -> dict:
        den = self.den
        return {(k,): _reduced(a, b, den) for k, (a, b) in enumerate(zip(self.re, self.im)) if a or b}

    def coeff(self, e: int) -> GaussianRational:
        return _reduced(self.re[e], self.im[e], self.den) if e < len(self.re) else ZERO

    def is_zero(self) -> bool:
        """Zero through the precision (the tail stays unknown)."""
        return not (any(self.re) or any(self.im))

    def order(self) -> Optional[int]:
        """The smallest degree with a nonzero coefficient, or None when the
        series vanishes through its precision."""
        return next((k for k, (a, b) in enumerate(zip(self.re, self.im)) if a or b), None)

    def with_precision(self, k: int) -> "DenseSeries":
        return self.restated(min(k, self.precision))

    def restated(self, k: int) -> "DenseSeries":
        """The terms of degree <= k at precision k: a higher k reads the unknown tail as 0."""
        return DenseSeries(self.re[: k + 1], self.im[: k + 1], self.den, k)

    def __sub__(self, other: "DenseSeries") -> "DenseSeries":
        return self.__add__(other, -1)

    def __add__(self, other: "DenseSeries", sign: int = 1) -> "DenseSeries":
        prec = min(self.precision, other.precision)
        n = min(prec + 1, max(len(self.re), len(other.re)))
        d, f = self.den, other.den
        den = d // gcd(d, f) * f
        u, v = den // d, sign * (den // f)
        xr, xi, yr, yi = (z[:n] + [0] * (n - len(z)) for z in (self.re, self.im, other.re, other.im))
        re = [u * a + v * b for a, b in zip(xr, yr)]
        im = [u * a + v * b for a, b in zip(xi, yi)]
        return _normal(re, im, den, prec)

    def scale(self, c) -> "DenseSeries":
        c = as_gauss(c)
        re, im = _times(self.re, self.im, c._a, c._b)
        return _normal(re, im, self.den * c._d, self.precision)

    def shift(self, e: int) -> "DenseSeries":
        """Multiply by t^e; a negative e divides, and must drop no nonzero slot."""
        if e >= 0:
            return DenseSeries([0] * e + self.re, [0] * e + self.im, self.den, self.precision + e)
        if any(self.re[:-e]) or any(self.im[:-e]):
            raise ValueError("negative exponent after shift")
        if self.precision + e < 0:
            raise PrecisionError("precision must be >= 0")
        return DenseSeries(self.re[-e:], self.im[-e:], self.den, self.precision + e)

    def substitute_power(self, m: int) -> "DenseSeries":
        """The substitution t -> t^m; precision scales by m."""
        if m < 1:
            raise ValueError("exponent must be >= 1")
        n = (len(self.re) - 1) * m + 1 if self.re else 0
        re, im = [0] * n, [0] * n
        re[::m], im[::m] = self.re, self.im
        return DenseSeries(re, im, self.den, self.precision * m)

    def __mul__(self, other: "DenseSeries") -> "DenseSeries":
        prec = min(self.precision, other.precision)
        if not self.re or not other.re:
            return DenseSeries([], [], 1, prec)
        n = min(prec + 1, len(self.re) + len(other.re) - 1)
        # only operand slots below n reach the first n slots of the product
        xr, xi, yr, yi = self.re[:n], self.im[:n], other.re[:n], other.im[:n]
        if len(xr) > len(yr):
            xr, xi, yr, yi = yr, yi, xr, xi
        if len(xr) == 1:  # a constant factor only scales
            re, im = _times(yr, yi, xr[0], xi[0])
        else:
            re, im = _kronecker(xr, xi, yr, yi, n)
        return _normal(re, im, self.den * other.den, prec)


def _times(re: list, im: list, a: int, b: int) -> tuple:
    """The numerator lists of (re + i im)(a + i b)."""
    if b:
        return [x * a - y * b for x, y in zip(re, im)], [x * b + y * a for x, y in zip(re, im)]
    return [x * a for x in re], [y * a for y in im]


def _kronecker(xr: list, xi: list, yr: list, yi: list, n: int) -> tuple:
    """The first n slots (real, imaginary) of the product of (xr + i xi) and
    (yr + i yi), by Kronecker substitution (Harvey, arXiv:0712.4046): the
    slots are packed into integers with signed s-bit slots, and the slots
    of their products read back."""
    complex_ = any(xi) or any(yi)
    mx = max(max(xr), -min(xr), max(xi), -min(xi))
    my = max(max(yr), -min(yr), max(yi), -min(yi))
    # |slot| <= min(len) mx my, twice that when a part sums two products
    s = (min(len(xr), len(yr)) * mx * my * (2 if complex_ else 1)).bit_length() + 1
    px, py = _pack(xr, s), _pack(yr, s)
    re = px * py
    if not complex_:
        return _unpack(re, s, n), [0] * n
    p, q = _pack(xi, s), _pack(yi, s)  # Gauss's three products
    pq = p * q
    return _unpack(re - pq, s, n), _unpack((px + p) * (py + q) - re - pq, s, n)


def _normal(re: list, im: list, den: int, precision: int) -> DenseSeries:
    """The dense series with these numerators over den > 0, with the common
    factor of den and every numerator divided out."""
    g = gcd(den, *re, *im) if den != 1 else 1
    if g != 1:
        re, im, den = [a // g for a in re], [b // g for b in im], den // g
    return DenseSeries(re, im, den, precision)


def _pack(u: list, s: int) -> int:
    """sum_k u[k] 2^(k s)."""
    out = 0
    for c in reversed(u):
        out = (out << s) + c
    return out


def _unpack(p: int, s: int, n: int) -> list:
    """The first n signed s-bit slots of p = sum_k c_k 2^(k s), |c_k| < 2^(s-1)."""
    p &= (1 << n * s) - 1  # slot k reads only the bits below (k + 1) s
    mask, half, full = (1 << s) - 1, 1 << (s - 1), 1 << s
    out = []
    for _ in range(n):
        c = p & mask
        if c >= half:
            c -= full  # a negative slot borrowed 1 from the slot above
        out.append(c)
        p = (p - c) >> s
    return out


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gauss(x) -> GaussianRational:
    """Coerce ints, Fractions or (re, im) pairs into the exact field."""
    if isinstance(x, GaussianRational):
        return x
    if type(x) is int:
        return _make(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, tuple) and len(x) == 2:
        return GaussianRational(x[0], x[1])
    raise TypeError(f"cannot coerce {x!r} into a Gaussian rational")

