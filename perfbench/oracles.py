"""Independent exact oracles for the output checks.

Plain dict convolutions over Gaussian rationals held as (re, im) pairs of
Fractions, in the style of the test suite's oracles.  Nothing here calls
germforge arithmetic, so a defect in its kernels cannot hide from the
checks."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Gauss = Tuple[Fraction, Fraction]
Uni = Dict[int, Gauss]  # exponent of t -> coefficient

_ZERO: Gauss = (Fraction(0), Fraction(0))
_ONE: Gauss = (Fraction(1), Fraction(0))


def gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] + b[0], a[1] + b[1])


def _nonzero(d: dict) -> dict:
    return {k: v for k, v in d.items() if v[0] or v[1]}


def uni_mul(a: Uni, b: Uni, limit: int) -> Uni:
    """Product of univariate series, keeping exponents <= limit."""
    out: Uni = {}
    for e, ca in a.items():
        for f, cb in b.items():
            if e + f <= limit:
                out[e + f] = gadd(out.get(e + f, _ZERO), gmul(ca, cb))
    return _nonzero(out)


def _monomial_on_curve(J, comps: List[Uni], limit: int, cache: dict) -> Uni:
    got = cache.get(J)
    if got is None:
        got = {0: _ONE}
        for i, e in enumerate(J):
            for _ in range(e):
                got = uni_mul(got, comps[i], limit)
        cache[J] = got
    return got


def holomorphic_pullback(series: Dict, comps: List[Uni], limit: int) -> Uni:
    """(s o curve)(t) through t^limit for s given as {J: coefficient}."""
    cache: dict = {}
    out: Uni = {}
    for J, c in series.items():
        for e, v in _monomial_on_curve(J, comps, limit, cache).items():
            out[e] = gadd(out.get(e, _ZERO), gmul(c, v))
    return _nonzero(out)


def hermitian_pullback(form: Dict, comps: List[Uni], limit: int) -> Dict[Tuple[int, int], Gauss]:
    """Coefficients of t^a tbar^b, a + b <= limit, of the form {(J, K): c}
    pulled back along the curve."""
    cache: dict = {}
    out: Dict[Tuple[int, int], Gauss] = {}
    for (J, K), c in form.items():
        zJ = _monomial_on_curve(J, comps, limit, cache)
        zK = _monomial_on_curve(K, comps, limit, cache)
        for a, ca in zJ.items():
            for b, cb in zK.items():
                if a + b <= limit:
                    v = gmul(gmul(c, ca), (cb[0], -cb[1]))
                    out[(a, b)] = gadd(out.get((a, b), _ZERO), v)
    return _nonzero(out)


def curve_order(comps: List[Uni]) -> Optional[int]:
    orders = [min(c) for c in comps if c]
    return min(orders) if orders else None


def standard_monomial_dims(gen_exponents, nvars: int, bound: int) -> List[int]:
    """dim of the quotient by (monomial ideal + all monomials of degree >= k)
    for k = 1..bound, by counting standard monomials of degree < k."""
    per_degree = [0] * bound

    def rec(prefix, left):
        if len(prefix) == nvars:
            if not any(all(a >= b for a, b in zip(prefix, g)) for g in gen_exponents):
                per_degree[sum(prefix)] += 1
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e)

    rec((), bound - 1)
    dims, total = [], 0
    for count in per_degree:
        total += count
        dims.append(total)
    return dims


def finite_codimension(gen_exponents, nvars: int) -> Optional[int]:
    """Number of standard monomials when every variable has a pure power in
    the ideal, else None."""
    caps = []
    for j in range(nvars):
        pure = [g[j] for g in gen_exponents if all(g[i] == 0 for i in range(nvars) if i != j)]
        if not pure:
            return None
        caps.append(min(pure))
    return standard_monomial_dims(gen_exponents, nvars, sum(caps))[-1]
