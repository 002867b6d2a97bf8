"""Real-valued coefficient forms in (z, zbar) and their square decomposition.

A :class:`HermitianForm` holds the coefficients a(J, K) of a real-valued
truncated series sum a(J,K) z^J zbar^K.  :func:`decompose` splits such a
form into a pluriharmonic part 2*Re(h) plus differences of squared norms
of holomorphic families, and :func:`reconstruct` expands a decomposition
back into coefficient form so the jet identity can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .coeffs import GaussianRational, ZERO, as_gauss
from .errors import DimensionMismatch, PrecisionError, RealityError
from .series import (
    CurvePowers,
    FormalCurve,
    Multidegree,
    TruncSeries,
    compare,
    degree_key,
)

PairKey = Tuple[Multidegree, Multidegree]
_new = object.__new__


class HermitianForm:
    """Coefficient map (J, K) -> a_JK with the reality symmetry
    a(K, J) == conj(a(J, K)).

    Canonical storage keeps the keys with J <= K in the fixed multidegree
    order, plus the pure-holomorphic keys (J, 0).  So one representative
    of each conjugate pair is stored, except for a pure pair, whose (J, 0)
    and (0, J) are both kept.
    """

    __slots__ = ("nvars", "precision", "coeffs")

    def __init__(self, nvars: int, precision: int, coeffs=None):
        if precision < 0:
            raise PrecisionError("precision must be >= 0")
        self.nvars = nvars
        self.precision = precision
        zero_deg = (0,) * nvars
        full: Dict[PairKey, GaussianRational] = {}
        if coeffs:
            for (J, K), c in coeffs.items():
                c = as_gauss(c)
                if not c:
                    continue
                J, K = tuple(J), tuple(K)
                if len(J) != nvars or len(K) != nvars:
                    raise DimensionMismatch(
                        f"pair ({J}, {K}) does not match {nvars} variables"
                    )
                if sum(J) + sum(K) > precision:
                    continue
                full[(J, K)] = full.get((J, K), ZERO) + c
        # reality check on the full map
        for (J, K), c in full.items():
            mate = full.get((K, J), ZERO)
            if mate != c.conjugate():
                raise RealityError(
                    f"coefficient at ({J}, {K}) is {c} but its partner at "
                    f"({K}, {J}) is {mate}, not the conjugate"
                )
        # canonical halving
        store: Dict[PairKey, GaussianRational] = {}
        for (J, K), c in full.items():
            if not c:
                continue
            if K == zero_deg or compare(J, K) <= 0:
                store[(J, K)] = c
        self.coeffs = store

    @classmethod
    def _trusted(cls, nvars: int, precision: int, coeffs: dict) -> "HermitianForm":
        """A form over a stored half that is already canonical: nonzero
        Gaussian rationals at the keys the constructor keeps, of total degree
        <= precision, whose full map is real.  Nothing is checked or copied."""
        out = _new(cls)
        out.nvars, out.precision, out.coeffs = nvars, precision, coeffs
        return out

    # -- access ------------------------------------------------------------

    def coeff(self, J, K) -> GaussianRational:
        J, K = tuple(J), tuple(K)
        c = self.coeffs.get((J, K))
        if c is not None:
            return c
        mate = self.coeffs.get((K, J))
        if mate is not None:
            return mate.conjugate()
        return ZERO

    def full_items(self):
        """Every (J, K, coefficient), conjugate partners included."""
        seen = set()
        for (J, K), c in self.coeffs.items():
            if (J, K) not in seen:
                seen.add((J, K))
                yield J, K, c
            if J != K and (K, J) not in seen:
                seen.add((K, J))
                yield K, J, c.conjugate()

    def full_map(self) -> Dict[PairKey, GaussianRational]:
        return {(J, K): c for J, K, c in self.full_items()}

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> Optional[int]:
        """Smallest |J| + |K| carrying a nonzero coefficient."""
        if not self.coeffs:
            return None
        return min(sum(J) + sum(K) for (J, K) in self.coeffs)

    def jet(self, k: int) -> "HermitianForm":
        if k > self.precision:
            raise PrecisionError(
                f"jet order {k} exceeds certified precision {self.precision}"
            )
        return HermitianForm(
            self.nvars,
            k,
            {
                (J, K): c
                for (J, K), c in self.full_map().items()
                if sum(J) + sum(K) <= k
            },
        )

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        if self.nvars != other.nvars:
            raise DimensionMismatch("forms in different variable counts")
        out = self.full_map()
        for key, c in other.full_map().items():
            out[key] = out.get(key, ZERO) + c
        return HermitianForm(self.nvars, min(self.precision, other.precision), out)

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        neg = {key: -c for key, c in other.full_map().items()}
        return self + HermitianForm(other.nvars, other.precision, neg)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HermitianForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def agrees_with(self, other: "HermitianForm", k: int) -> bool:
        return self.jet(k).coeffs == other.jet(k).coeffs

    def restrict_to_curve(self, curve: FormalCurve) -> "HermitianForm":
        """Pull the form back along a curve: a one-variable form in (t, tbar)
        whose (a, b) entry multiplies t^a tbar^b, at precision
        min(precision * nu(curve), curve.precision).  Each image curve^J is
        read from one :class:`CurvePowers` table at that precision.
        """
        if self.nvars != curve.dim:
            raise DimensionMismatch(
                f"form in {self.nvars} variables, curve in C^{curve.dim}"
            )
        nu = curve.vanishing_order()
        if nu is None:
            from .errors import ConstantCurveError

            raise ConstantCurveError("cannot pull back along a constant curve")
        prec = min(self.precision * nu, curve.precision)
        powers = CurvePowers(curve, prec)
        out: Dict[PairKey, GaussianRational] = {}
        for J, K, c in self.full_items():
            if nu * (sum(J) + sum(K)) > prec:
                continue  # every term of this pair lies beyond the precision
            AJ = powers.image(J).coeffs
            AK = powers.image(K).coeffs
            if not AJ or not AK:
                continue
            for (a,), ca in AJ.items():
                for (b,), cb in AK.items():
                    if a + b > prec:
                        continue
                    key = ((a,), (b,))
                    v = out.get(key, ZERO) + c * ca * cb.conjugate()
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
        # the full restriction of a real form is real: keep its stored half
        return HermitianForm._trusted(1, prec, {
            key: v for key, v in out.items() if key[0] <= key[1] or key[1] == (0,)})

    def __str__(self) -> str:
        from .formats import format_hermitian

        return format_hermitian(self)

    __repr__ = __str__


@dataclass
class Decomposition:
    """Square decomposition 2*Re(h) + sum |f_J|^2 - sum |g_J|^2 of a form,
    truncated at ``precision``.  Families are kept in multidegree order;
    only finitely many are nonzero at any truncation level."""

    nvars: int
    precision: int
    h: TruncSeries
    fs: List[Tuple[Multidegree, TruncSeries]]
    gs: List[Tuple[Multidegree, TruncSeries]]

    @property
    def families(self) -> List[Multidegree]:
        return [J for J, _ in self.fs]


def decompose(r: HermitianForm, k: int) -> Decomposition:
    """Split r into holomorphic content plus squared-norm families so that
    the k-jets of r and of the reconstruction agree coefficient-exactly.

    h collects exactly the pure-holomorphic pairs (J, 0); each mixed pair
    with both sides nonzero feeds the family of its smaller index.  Only
    families with |J| <= k appear (finitely many).
    """
    if k > r.precision:
        raise PrecisionError(
            f"decomposition order {k} exceeds form precision {r.precision}"
        )
    n = r.nvars
    zero_deg = (0,) * n
    h_coeffs: Dict[Multidegree, GaussianRational] = {}
    fam: Dict[Multidegree, Dict[Multidegree, GaussianRational]] = {}

    for (J, K), c in r.coeffs.items():  # the stored half: J <= K, or K = 0
        if sum(J) + sum(K) > k:
            continue
        if K == zero_deg:
            h_coeffs[J] = c / as_gauss(2) if J == zero_deg else c
            continue
        if J == zero_deg:
            continue  # conjugate partner of a (K, 0) term already in h
        if J == K:
            if not c.is_real():
                raise RealityError(f"diagonal coefficient at {J} is not real")
            fam.setdefault(J, {})[K] = c / as_gauss(4)
        else:
            fam.setdefault(J, {})[K] = c / as_gauss(2)

    h = TruncSeries(n, k, h_coeffs)
    fs: List[Tuple[Multidegree, TruncSeries]] = []
    gs: List[Tuple[Multidegree, TruncSeries]] = []
    for J in sorted(fam, key=degree_key):
        correction = {K: a.conjugate() for K, a in fam[J].items()}
        base = dict(correction)
        base[J] = base.get(J, ZERO) + 1
        f = TruncSeries(n, k, base)
        gneg = {K: -a for K, a in correction.items()}
        gneg[J] = gneg.get(J, ZERO) + 1
        g = TruncSeries(n, k, gneg)
        fs.append((J, f))
        gs.append((J, g))
    return Decomposition(nvars=n, precision=k, h=h, fs=fs, gs=gs)


def reconstruct(d: Decomposition, k: int) -> HermitianForm:
    """Expand 2*Re(h) + sum |f_J|^2 - sum |g_J|^2 into a coefficient form
    truncated at total degree k.  Real-valued by construction."""
    if k > d.precision:
        raise PrecisionError(
            f"reconstruction order {k} exceeds decomposition precision {d.precision}"
        )
    n = d.nvars
    zero_deg = (0,) * n
    out: Dict[PairKey, GaussianRational] = {}

    def bump(J, K, c):
        if sum(J) + sum(K) > k:
            return
        key = (J, K)
        v = out.get(key, ZERO) + c
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    for J, c in d.h.coeffs.items():
        bump(J, zero_deg, c)
        bump(zero_deg, J, c.conjugate())

    def add_square(series: TruncSeries, sign: int):
        items = list(series.coeffs.items())
        for K1, c1 in items:
            for K2, c2 in items:
                bump(K1, K2, sign * c1 * c2.conjugate())

    for _, f in d.fs:
        add_square(f, 1)
    for _, g in d.gs:
        add_square(g, -1)
    return HermitianForm(n, k, out)
