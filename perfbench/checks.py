"""Output checks, run after the timed region.

Each check reads one job's exit code and output and returns an outcome:

* ``decided``   - the answer equals the input's known answer;
* ``undecided`` - an honest "no witness at these bounds" or a floating
  branch where an exact one exists;
* ``failed``    - exit 1, an unexpected exit code, an unsound answer, a
  bundle that fails re-check, or output an independent oracle rejects.

germforge's parsers read the printed curves and series back; every
arithmetic check on them runs in :mod:`oracles`."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

import oracles

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"


def _uni(series) -> oracles.Uni:
    return {J[0]: (c.re, c.im) for J, c in series.coeffs.items()}


def _curve_comps(text: str) -> Tuple[List[oracles.Uni], int]:
    from germforge import formats

    curve = formats.parse_curve(text)
    return [_uni(c) for c in curve.components], curve.precision


def _block(text: str, name: str) -> Optional[str]:
    from germforge import formats

    return formats.extract_block(text, name)


def check_witness(job, code: int, out: str) -> Tuple[str, str]:
    """Infinite-type form: exit 0 must carry a witness that the pullback
    oracle confirms through order N and that re-checks; exit 2 is honest."""
    from germforge.pipeline import recheck_bundle

    N = job.known["N"]
    if code == 2:
        if "status: no-witness-at-bounds" not in out or _block(out, "curve witness"):
            return FAILED, "exit 2 but the bundle does not say no-witness-at-bounds"
        return UNDECIDED, "no witness at these bounds"
    if code != 0:
        return FAILED, f"exit {code}"
    if "status: witness-certified" not in out or f"order: {N}\n" not in out:
        return FAILED, "exit 0 without a witness-certified bundle at the requested order"
    curve = _block(out, "curve witness")
    if curve is None:
        return FAILED, "witness-certified bundle without a curve witness block"
    comps, prec = _curve_comps(curve)
    if prec < N or not oracles.curve_order(comps):
        return FAILED, "witness curve is constant or shallower than the order"
    left = oracles.hermitian_pullback(job.known["form"], comps, N)
    if left:
        return FAILED, f"pullback oracle: nonzero coefficient at t^a tbar^b {min(left)}"
    recheck_code, msg = recheck_bundle(out)
    if recheck_code != 0:
        return FAILED, f"bundle fails re-check: {msg}"
    return DECIDED, "witness certified"


_RATIO = re.compile(r"lower bound for the type: (>= )?(\d+)/(\d+)")
_SEARCH_LINE = re.compile(r"^ratio (\S+)(?: = \S+)?  curve \((.*)\)$")


def _oracle_ratio(form, comp_texts: List[str], limit: int) -> Optional[Fraction]:
    """ord(r o curve) / ord(curve) by the pullback oracle, or None when the
    pullback vanishes through ``limit``."""
    from germforge import formats

    comps = [_uni(formats.parse_series(f"vars 1; N={limit};\n{t};")) for t in comp_texts]
    left = oracles.hermitian_pullback(form, comps, limit)
    if not left:
        return None
    return Fraction(min(a + b for a, b in left), oracles.curve_order(comps))


def check_finite(job, code: int, out: str) -> Tuple[str, str]:
    """Finite-type form of type 2 max m: exit 2 with best ratio exactly that
    type; a witness or a larger ratio is unsound."""
    known = Fraction(job.known["type"])
    if code == 0:
        return FAILED, "unsound: witness claimed on a finite-type form"
    if code != 2:
        return FAILED, f"exit {code}"
    m = _RATIO.search(out)
    if not m:
        return FAILED, "bundle has no best-ratio block"
    value = Fraction(int(m.group(2)), int(m.group(3)))
    if value > known:
        return FAILED, f"unsound: ratio {value} above the type {known}"
    if m.group(1) or value < known:
        return UNDECIDED, f"best ratio {'>= ' if m.group(1) else ''}{value} below the type {known}"
    report = (_block(out, "search report") or "").splitlines()
    first = _SEARCH_LINE.match(report[0]) if report else None
    if not first:
        return FAILED, "search report line unreadable"
    got = _oracle_ratio(job.known["form"], first.group(2).split(", "),
                        int(m.group(2)) + 1)
    if got != value:
        return FAILED, f"pullback oracle gives ratio {got} along the best curve, bundle {value}"
    return DECIDED, f"type {known}"


_DIMS = re.compile(r"level k : (.*)")
_FINITE = re.compile(r"verdict: finite, D\(I\) = (\d+)")


def check_codim(job, code: int, out: str) -> Tuple[str, str]:
    """Level dimensions against a standard-monomial count of the (reduced)
    monomial ideal; the verdict must be finite with that count."""
    if code != 0:
        return FAILED, f"exit {code}"
    k = job.known
    m = _DIMS.search(out)
    if not m:
        return FAILED, "no level dimensions printed"
    dims = [int(x.split(":")[1]) for x in m.group(1).split()]
    want = oracles.standard_monomial_dims(k["reduced"], k["reduced_nvars"], k["bound"])
    if dims != want:
        return FAILED, f"dims {dims} != oracle {want}"
    value = oracles.finite_codimension(k["reduced"], k["reduced_nvars"])
    f = _FINITE.search(out)
    if f is None:
        return UNDECIDED, "verdict unresolved at this bound"
    if int(f.group(1)) != value:
        return FAILED, f"D(I) = {f.group(1)} but the oracle counts {value}"
    return DECIDED, f"D(I) = {value}"


_DIRECTION = re.compile(r"^direction \((-?\d+),\)", re.M)
_BRANCH = re.compile(
    r"branch d=(\d+) (exact|floating)[^\n]*\n  w\(t\) = ([^\n]*)\n"
    r"  residual through order (\d+): ([^\n]*)"
)


def check_puiseux(job, code: int, out: str) -> Tuple[str, str]:
    """Criterion 05's rules: ramifications sum to the degree, exact residuals
    are 0 (and the oracle agrees), floating residuals are <= 1e-9."""
    from germforge import formats

    if code != 0:
        return FAILED, f"exit {code}"
    branches = _BRANCH.findall(out)
    direction = _DIRECTION.search(out)
    if not direction:
        return FAILED, "no restriction direction printed"
    if sum(int(d) for d, *_ in branches) != job.known["degree"]:
        return FAILED, f"ramifications sum to {sum(int(b[0]) for b in branches)}, degree {job.known['degree']}"
    floating = 0
    for d, mode, w, order, residual in branches:
        if mode == "floating":
            floating += 1
            if float(residual) > 1e-9:
                return FAILED, f"floating residual {residual} > 1e-9"
            continue
        if residual != "0 (exact)":
            return FAILED, f"exact branch with residual {residual}"
        order = int(order)
        comps = [{int(d): (Fraction(int(direction.group(1))), Fraction(0))},
                 _uni(formats.parse_series(f"vars 1; N={order};\n{w};"))]
        left = oracles.holomorphic_pullback(job.known["series"], comps, order)
        if left:
            return FAILED, f"oracle: branch d={d} leaves t^{min(left)} at order {order}"
    if floating:
        return UNDECIDED, f"{floating} floating branch(es)"
    return DECIDED, f"{len(branches)} exact branches"


_ORDERS = re.compile(r"^(\S+) vanishes through order (\d+)$", re.M)
_DIVISOR = re.compile(r"divisor order on curve: (\d+)")
_GEN = re.compile(r"^gen (\d+): (.*)$", re.M)


def check_lift(job, code: int, out: str) -> Tuple[str, str]:
    """Lifted curve: every stated vanishing order and the divisor order hold
    under the oracle, each generator lies in the associated ideal, and the
    generators vanish through the curve's precision."""
    if code != 0:
        return FAILED, f"exit {code}"
    k = job.known
    d = _DIVISOR.search(out)
    if not d:
        return FAILED, "no divisor order printed"
    comps, prec = _curve_comps(out[: d.start()])
    orders = dict(_ORDERS.findall(out))
    labels = {"p": k["gens"][0], "q_3": k["gens"][1]}
    if set(orders) != set(labels):
        return FAILED, f"vanishing orders for {sorted(orders)}"
    for label, gen in labels.items():
        left = oracles.holomorphic_pullback(gen, comps, int(orders[label]))
        if left:
            return FAILED, f"oracle: {label} leaves t^{min(left)} on the lifted curve"
    disc = oracles.holomorphic_pullback(k["D"], comps, int(d.group(1)))
    if min(disc, default=None) != int(d.group(1)):
        return FAILED, f"oracle divisor order {min(disc, default=None)} != {d.group(1)}"
    gens = dict(_GEN.findall(out))
    if len(gens) != len(k["gens"]):
        return FAILED, "missing associated-ideal lines"
    for idx, line in gens.items():
        if not line.startswith("D^0 * gen lies in the associated ideal"):
            return FAILED, f"generator {idx} is in the ideal, output says: {line}"
    if min(int(o) for o in orders.values()) < prec:
        # the curve lies on the variety, so vanishing holds through its precision
        return UNDECIDED, f"vanishing stated only through {sorted(orders.values())} < {prec}"
    return DECIDED, "lift verified"


CHECKS = {
    "witness": check_witness,
    "finite": check_finite,
    "codim": check_codim,
    "puiseux": check_puiseux,
    "lift": check_lift,
}


def check(job, code, out: str, err: str, error: Optional[str]) -> Tuple[str, str]:
    """Outcome of one job from its exit code, stdout, stderr and the
    exception that escaped germforge, if any."""
    from germforge.errors import GermforgeError

    if error is not None:
        return FAILED, error
    if code == 1:
        return FAILED, f"exit 1: {err.strip()}"
    try:
        return CHECKS[job.kind](job, code, out)
    except (GermforgeError, ValueError, IndexError) as exc:  # output did not parse back
        return FAILED, f"unreadable output: {exc!r}"
