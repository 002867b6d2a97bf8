"""Gaussian-rational coefficient arithmetic.

Every exact computation in the package runs over Q(i).  A value
(a + b*i)/d is stored as three Python ints in normal form: d > 0 and
gcd(a, b, d) = 1, so zero is (0, 0, 1) and equal values have equal
triples.  A field operation builds no ``Fraction`` and takes at most one
``math.gcd``, none when the result's denominator is 1.  Floating
binary64 values appear only in the two explicitly quarantined code paths
(unitary construction, Puiseux fallback) and are never mixed silently
into exact data.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import ExactnessError

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
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        ims = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return ims
        sep = "+" if im > 0 else ""
        return f"{re}{sep}{ims}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


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


def mul_dense(x: list, y: list, n: int) -> list:
    """The first n coefficients of the product of two dense coefficient lists
    (index = degree), exactly, by Kronecker substitution (Harvey, arXiv:0712.4046):
    the numerators over each operand's common denominator are packed into
    integers with signed s-bit slots, and the slots of their products read back."""
    xr, xi, dx, mx = _numerators(x)
    yr, yi, dy, my = _numerators(y)
    complex_ = any(xi) or any(yi)
    # |slot| <= min(len) mx my, twice that when a part sums two products
    s = (min(len(x), len(y)) * mx * my * (2 if complex_ else 1)).bit_length() + 1
    px, py = _pack(xr, s), _pack(yr, s)
    re, im = px * py, 0
    if complex_:  # Gauss's three products
        p, q = _pack(xi, s), _pack(yi, s)
        pq = p * q
        im = (px + p) * (py + q) - re - pq
        re -= pq
    return [_reduced(a, b, dx * dy) for a, b in zip(_unpack(re, s, n), _unpack(im, s, n))]


def _numerators(x: list) -> tuple:
    """(real numerators, imaginary numerators, D, largest |numerator|) of x
    over its common denominator D."""
    D = lcm(*(c._d for c in x))
    re = [c._a * (D // c._d) for c in x]
    im = [c._b * (D // c._d) for c in x]
    return re, im, D, max(map(abs, re + im))


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

