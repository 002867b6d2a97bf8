"""Command-line interface.

    germforge <command> [--N k] [--A a] [--d d] [--bound B] [--maxnu v]
              [--exact-only] [--emit-certificate PATH] <inputs>

Commands: decompose, ratio, witness, search, codim, puiseux, lift,
pipeline.  All formats are bit-exact rational text.
Exit codes: 0 success / certified witness, 2 no-witness-at-these-bounds
(not a finite-type claim), 1 error."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import formats
from .errors import GermforgeError
from .hermitian import decompose
from .ideals import codimension
from .pipeline import BUNDLE_HEADER, check_base_point, recheck_bundle, run_pipeline
from .typeengine import dangelo_ratio, monomial_curve_search, witness_check
from .weierstrass import (
    associated_membership,
    generic_restrict,
    newton_puiseux,
    prime_curve_lift,
    weierstrass_prepare,
)


_COMMANDS = [
    "decompose", "ratio", "witness", "search", "codim", "puiseux", "lift", "pipeline",
]


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused, so
    in-process callers of :func:`main` do not rebuild it for every job."""
    ap = argparse.ArgumentParser(
        prog="germforge",
        description="exact witness pipeline for hypersurface germs",
    )
    subs = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = subs.add_parser(name)
        sp.add_argument("inputs", nargs="*", help="input files")
        sp.add_argument("--N", type=int, default=20, help="verification order")
        sp.add_argument("--A", type=int, default=3, help="search: max exponent")
        sp.add_argument("--d", type=int, default=2, help="search: coefficient ansatz degree")
        sp.add_argument("--bound", type=int, default=8, help="codimension level bound")
        sp.add_argument("--maxnu", type=int, default=4, help="associated-ideal power cap")
        sp.add_argument("--k", type=int, default=None, help="decomposition truncation order")
        sp.add_argument("--exact-only", action="store_true", dest="exact_only")
        sp.add_argument("--emit-certificate", default=None, dest="emit_certificate")
    return ap


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise GermforgeError(f"input file not found: {path}") from None
    except OSError as exc:
        raise GermforgeError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise GermforgeError(f"cannot read {path}: not UTF-8 text") from None


def _need(job: argparse.Namespace, count: int, what: str):
    if len(job.inputs) != count:
        raise GermforgeError(f"{job.command} needs exactly {count} input(s): {what}")


def _check_bounds(job: argparse.Namespace):
    for flag, value, least in (
        ("--N", job.N, 1), ("--A", job.A, 1), ("--d", job.d, 0),
        ("--bound", job.bound, 1), ("--maxnu", job.maxnu, 0), ("--k", job.k, 0),
    ):
        if value is not None and value < least:
            raise GermforgeError(f"{flag} must be >= {least}, got {value}")


def run_job(job: argparse.Namespace) -> int:
    """Run one parsed command line; returns its exit code."""
    _check_bounds(job)
    if job.command == "decompose":
        _need(job, 1, "a hermitian form file")
        r = formats.parse_hermitian(_read(job.inputs[0]))
        k = job.k if job.k is not None else r.precision
        print(formats.format_decomposition(decompose(r, k)))
        _maybe_emit(job, formats.format_hermitian_file(r))
        return 0

    if job.command == "ratio":
        _need(job, 2, "a hermitian form file and a curve file")
        r = formats.parse_hermitian(_read(job.inputs[0]))
        check_base_point(r)
        curve = formats.parse_curve(_read(job.inputs[1]))
        print(f"ratio: {dangelo_ratio(r, curve)}")
        return 0

    if job.command == "witness":
        if len(job.inputs) == 1:
            text = _read(job.inputs[0])
            if text.splitlines() and text.splitlines()[0].strip() == BUNDLE_HEADER:
                code, msg = recheck_bundle(text)
                print(msg)
                return code
            raise GermforgeError(
                "witness needs a certificate bundle or a form file plus a curve file"
            )
        _need(job, 2, "a hermitian form file and a curve file")
        r = formats.parse_hermitian(_read(job.inputs[0]))
        curve = formats.parse_curve(_read(job.inputs[1]))
        res = witness_check(r, curve, job.N)
        print(res)
        return 0 if res.certified else 2

    if job.command == "search":
        _need(job, 1, "a hermitian form file")
        r = formats.parse_hermitian(_read(job.inputs[0]))
        check_base_point(r)
        results = monomial_curve_search(r, job.A, job.d)
        if results:
            print(formats.format_search(results, 12))
            if results[0][1].is_flagged:
                print("note: flagged ratios certify vanishing only through the stated order")
        return 0

    if job.command == "codim":
        _need(job, 1, "an ideal file")
        ideal = formats.parse_ideal(_read(job.inputs[0]))
        rep = codimension(ideal, min(job.bound, ideal.precision))
        print(rep)
        return 0

    if job.command == "puiseux":
        _need(job, 1, "a series file (holomorphic, >= 2 variables)")
        s = formats.parse_series(_read(job.inputs[0]))
        _, P = weierstrass_prepare(s, min(job.N, s.precision))
        line = generic_restrict(P)
        print(f"direction {line.direction}, restricted discriminant order {line.s_order}")
        for b in newton_puiseux(line.restricted, min(job.N, line.restricted.precision),
                                exact_only=job.exact_only, disc=line.discriminant_on_line):
            print(b)
        return 0

    if job.command == "lift":
        _need(job, 1, "an ideal file with a normal_form block")
        ideal = formats.parse_ideal(_read(job.inputs[0]))
        if ideal.normal_form is None:
            raise GermforgeError("lift needs an ideal file with a normal_form block")
        nf = ideal.normal_form
        line = generic_restrict(nf.p)
        branches = newton_puiseux(
            line.restricted, min(job.N, line.restricted.precision), exact_only=True,
            disc=line.discriminant_on_line,
        )
        lifted = None
        for b in branches:
            try:
                curve = b.curve(line.direction)
                lifted = prime_curve_lift(nf, curve, min(job.N, b.w.precision))
                break
            except GermforgeError:
                continue
        if lifted is None:
            raise GermforgeError(
                "no exact branch satisfied the lift side conditions at this order"
            )
        print(formats.format_curve(lifted.curve), end="")
        print(f"divisor order on curve: {lifted.divisor_order}")
        for label, order in lifted.generator_orders.items():
            print(f"{label} vanishes through order {order}")
        level = min(job.N, ideal.precision)
        for idx, gen in enumerate(ideal.generators):
            found = associated_membership(gen, nf, job.maxnu, level)
            if found is None:
                print(
                    f"gen {idx + 1}: no power of the discriminant up to "
                    f"{job.maxnu} reaches the associated ideal at level {level}"
                )
            else:
                print(f"gen {idx + 1}: D^{found[0]} * gen lies in the associated ideal")
        _maybe_emit(job, formats.format_curve(lifted.curve))
        return 0

    if job.command == "pipeline":
        _need(job, 1, "a hermitian form file")
        r_text = _read(job.inputs[0])
        r = formats.parse_hermitian(r_text)
        result = run_pipeline(r, N=job.N, A=job.A, d=job.d, bound=job.bound, r_text=r_text)
        print(result.bundle, end="")
        _maybe_emit(job, result.bundle)
        return result.exit_code

    raise GermforgeError(f"unknown command {job.command!r}")


def _maybe_emit(job: argparse.Namespace, text: str):
    if job.emit_certificate:
        try:
            Path(job.emit_certificate).write_text(text)
        except OSError as exc:
            raise GermforgeError(
                f"cannot write certificate {job.emit_certificate}: {exc.strerror or exc}"
            ) from None


def main(argv=None) -> int:
    job = _build_argparser().parse_args(argv)
    try:
        return run_job(job)
    except GermforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
