"""Gaussian-rational coefficient arithmetic.

Every exact computation in the package runs over Q(i): pairs of
``fractions.Fraction`` with field operations and conjugation.  Floating
binary64 values appear only in the two explicitly quarantined code paths
(unitary construction, Puiseux fallback) and are never mixed silently
into exact data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ExactnessError

RatLike = Union[int, Fraction]


class GaussianRational:
    """Exact complex number a + b*i with rational a, b.

    ``re`` and ``im`` are always ``Fraction``s.  Most coefficients met in
    practice are real (integer ideals, real forms, real curves), so the
    operators skip the arithmetic on a zero imaginary part: a product of
    two reals is one ``Fraction`` product, a product with one real operand
    two, a sum with a real operand adds no imaginary parts, and division by
    a real divides each part.  Every short-cut gives the value of the
    textbook formula exactly; it only leaves out products and sums known
    to be zero."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- ring / field operations ------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        b, d = self.im, other.im
        return _gauss(self.re + other.re, (b + d if b else d) if d else b)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        b, d = self.im, other.im
        return _gauss(self.re - other.re, (b - d if b else -d) if d else b)

    def __rsub__(self, other) -> "GaussianRational":
        return as_gauss(other) - self

    def __neg__(self) -> "GaussianRational":
        b = self.im
        return _gauss(-self.re, -b if b else b)

    def __mul__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not d:
            return _gauss(a * c, b * c if b else b)
        if not b:
            return _gauss(a * c, a * d)
        return _gauss(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        if not isinstance(other, GaussianRational):
            other = as_gauss(other)
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            b = self.im
            return _gauss(self.re / c, b / c if b else b)
        a, b = self.re, self.im
        n = c * c + d * d
        return _gauss((a * c + b * d) / n, (b * c - a * d) / n)

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
        b = self.im
        return _gauss(self.re, -b if b else b)

    def norm2(self) -> Fraction:
        """|c|^2, exactly."""
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise ExactnessError(f"coefficient {self} is outside the floating range") from None

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        ims = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return ims
        sep = "+" if self.im > 0 else ""
        return f"{self.re}{sep}{ims}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _gauss(re: Fraction, im: Fraction) -> GaussianRational:
    """A Gaussian rational from two ``Fraction``s, without coercion."""
    out = _new(GaussianRational)
    out.re = re
    out.im = im
    return out


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gauss(x) -> GaussianRational:
    """Coerce ints, Fractions or (re, im) pairs into the exact field."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, tuple) and len(x) == 2:
        return GaussianRational(x[0], x[1])
    raise TypeError(f"cannot coerce {x!r} into a Gaussian rational")


def gauss_from_complex(z: complex, max_den: int = 10**6):
    """Nearest small-denominator Gaussian rational to a float; used only to
    *propose* exact values that callers must verify before trusting."""
    return GaussianRational(
        Fraction(z.real).limit_denominator(max_den),
        Fraction(z.imag).limit_denominator(max_den),
    )
