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
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- ring / field operations ------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        other = as_gauss(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = as_gauss(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return as_gauss(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = as_gauss(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = as_gauss(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

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
        return GaussianRational(self.re, -self.im)

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
