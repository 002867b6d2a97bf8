"""End-to-end witness pipeline and the certificate bundle format.

The pipeline chains: parse -> square decomposition -> identity unitary
block -> matching ideal -> codimension diagnostics -> curve candidates from
the monomial search and, for principal ideals, from Weierstrass preparation
plus branch construction -> exact witness check.
Exit code 0 means a certified witness at the requested order; 2 means no
witness was found at these bounds, which is never a finite-type claim."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import formats
from .errors import (
    GermforgeError,
    NotRegularError,
    DiscriminantError,
    PrecisionError,
)
from .hermitian import Decomposition, HermitianForm, decompose
from .ideals import CodimReport, IdealPresentation, codimension
from .series import FormalCurve, TruncSeries
from .typeengine import (
    UnitaryBlock,
    WitnessResult,
    build_ideal,
    equivalence_check,
    monomial_curve_search,
    witness_check,
)
from .weierstrass import generic_restrict, newton_puiseux, weierstrass_prepare

BUNDLE_HEADER = "germforge certificate v1"


@dataclass
class PipelineResult:
    exit_code: int
    bundle: str
    curve: Optional[FormalCurve] = None
    witness: Optional[WitnessResult] = None


def _permute_vars(s: TruncSeries, perm: Tuple[int, ...]) -> TruncSeries:
    out = {}
    for J, c in s.coeffs.items():
        E = [0] * s.nvars
        for i, e in enumerate(J):
            E[perm[i]] = e
        out[tuple(E)] = c
    return TruncSeries(s.nvars, s.precision, out)


def check_base_point(r: HermitianForm) -> None:
    """Contact orders are measured at the base point, so the defining form
    has to vanish there."""
    if r.coeff((0,) * r.nvars, (0,) * r.nvars):
        raise GermforgeError("the defining form must vanish at the base point")


def _principal_branch_curves(g: TruncSeries, N: int) -> List[FormalCurve]:
    """Candidate curves annihilating a single generator: prepare it in some
    variable, restrict the base to a generic line, expand the branches."""
    n = g.nvars
    curves: List[FormalCurve] = []
    for last in range(n - 1, -1, -1):
        perm = list(range(n))
        perm[last], perm[n - 1] = perm[n - 1], perm[last]
        perm = tuple(perm)
        gp = _permute_vars(g, perm)
        try:
            _, P = weierstrass_prepare(gp, min(N, gp.precision))
            line = generic_restrict(P)
            branches = newton_puiseux(line.restricted, min(N, line.restricted.precision),
                                      exact_only=True, disc=line.discriminant_on_line)
        except (NotRegularError, DiscriminantError, PrecisionError):
            continue
        for b in branches:
            comps = b.curve(line.direction).components
            if all(c.is_zero() for c in comps):
                continue
            # undo the variable swap (a transposition, so its own inverse)
            curves.append(FormalCurve([comps[perm[i]] for i in range(n)]))
        if curves:
            return curves
    return curves


def run_pipeline(
    r: HermitianForm,
    N: int,
    A: int = 3,
    d: int = 2,
    bound: int = 8,
    r_text: Optional[str] = None,
) -> PipelineResult:
    """Full witness pipeline on a defining form; see the module docstring."""
    if r.is_zero():
        raise GermforgeError("the input form is empty (zero through precision)")
    check_base_point(r)
    if r.precision < N:
        raise PrecisionError(
            f"input precision {r.precision} cannot certify order {N}; "
            f"restate the input with N >= {N}"
        )
    dec = decompose(r, r.precision)
    block = UnitaryBlock.identity(len(dec.fs))
    ideal = build_ideal(dec, block)
    codim_bound = max(2, min(bound, ideal.precision))
    codim_rep = codimension(ideal, codim_bound)
    search = monomial_curve_search(r, A, d)

    candidates: List[FormalCurve] = [c for c, ratio in search if ratio.is_flagged]
    if codim_rep.verdict != "finite":
        nonzero = [g for g in ideal.generators if not g.is_zero()]
        if len(nonzero) == 1:
            candidates.extend(_principal_branch_curves(nonzero[0], N))

    witness: Optional[WitnessResult] = None
    winner: Optional[FormalCurve] = None
    for cand in candidates:
        try:
            res = witness_check(r, cand, N)
        except PrecisionError:
            continue
        if res.certified:
            witness = res
            winner = cand
            break

    equivalence = None
    if winner is not None:
        try:
            equivalence = equivalence_check(dec, block, winner, min(N, 24))
        except (GermforgeError, ValueError):
            equivalence = None

    bundle = _emit_bundle(
        r=r,
        r_text=r_text,
        N=N,
        dec=dec,
        ideal=ideal,
        codim_rep=codim_rep,
        search=search,
        winner=winner,
        witness=witness,
        equivalence=equivalence,
    )
    return PipelineResult(
        exit_code=0 if winner is not None else 2,
        bundle=bundle,
        curve=winner,
        witness=witness,
    )


def _emit_bundle(
    r: HermitianForm,
    r_text: Optional[str],
    N: int,
    dec: Decomposition,
    ideal: IdealPresentation,
    codim_rep: CodimReport,
    search,
    winner: Optional[FormalCurve],
    witness: Optional[WitnessResult],
    equivalence: Optional[bool],
) -> str:
    lines = [BUNDLE_HEADER, "command: pipeline"]
    lines.append(f"status: {'witness-certified' if winner is not None else 'no-witness-at-bounds'}")
    lines.append(f"order: {N}")
    lines.append(f"exit: {0 if winner is not None else 2}")
    out = "\n".join(lines) + "\n"
    out += formats.emit_block(
        "hermitian input", r_text if r_text else formats.format_hermitian_file(r)
    )
    out += formats.emit_block("decomposition", formats.format_decomposition(dec))
    out += formats.emit_block("ideal", formats.format_ideal(ideal))
    out += formats.emit_block("codimension", str(codim_rep))
    best = search[0] if search else None
    out += formats.emit_block("search report", formats.format_search(search, 10) or "(empty)")
    if winner is not None:
        out += formats.emit_block("curve witness", formats.format_curve(winner))
        out += formats.emit_block("witness", str(witness))
        if equivalence is not None:
            out += formats.emit_block(
                "equivalence", f"norm chain verified: {equivalence}"
            )
    elif best is not None:
        out += formats.emit_block(
            "best ratio", f"lower bound for the type: {best[1]}"
        )
    return out


def recheck_bundle(text: str) -> Tuple[int, str]:
    """Re-verify a pipeline bundle from its embedded inputs alone."""
    if not text.splitlines() or text.splitlines()[0].strip() != BUNDLE_HEADER:
        raise GermforgeError("not a germforge certificate bundle")
    r_text = formats.extract_block(text, "hermitian input")
    curve_text = formats.extract_block(text, "curve witness")
    order = None
    for ln in text.splitlines():
        if ln.startswith("order:"):
            try:
                order = int(ln.split(":")[1].strip())
            except ValueError:
                raise GermforgeError(f"bundle order is not an integer: {ln!r}") from None
            break
    if r_text is None or order is None:
        raise GermforgeError("bundle is missing its embedded input or order")
    if order < 1:
        raise GermforgeError(f"bundle order must be >= 1, got {order}")
    if curve_text is None:
        return 2, "bundle records no witness; nothing to re-check"
    r = formats.parse_hermitian(r_text)
    curve = formats.parse_curve(curve_text)
    res = witness_check(r, curve, order)
    return (0 if res.certified else 2), str(res)
