"""Traced runs: spans around the calls into each germforge layer, recorded
from the benchmark's own files without changing the program.

A span wraps one call of a layer's public function or arithmetic method.  It
records its name, start, end, parent span and job id; spans stay in memory
and are written out once, when the run ends.  A layer's self time is its
spans' time minus the time of child spans in other layers.

Gaussian-rational operations are far too many for one span each (a cusp job
makes about 200k), so they are counted and timed in aggregate; their time is
taken out of the innermost open span.

Several modules import functions by name (``from .series import pullback``),
so a wrapper replaces every binding of the function object in every germforge
module.  Methods are patched once on their class."""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = (
    "coeffs", "series", "hermitian", "typeengine", "ideals",
    "weierstrass", "formats", "pipeline", "cli",
)

# Gaussian-rational methods: counted and timed in aggregate, no spans.
# __pow__ is timed but not counted; its multiplications are.
COEFF_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": None,
}


def _on_search(tr: "Tracer", result):
    tr.counts["typeengine.search.curves"] += len(result)
    tr.counts["typeengine.search.flagged"] += sum(1 for _, ratio in result if ratio.is_flagged)


def _on_witness(tr: "Tracer", result):
    tr.counts["typeengine.witness.certified"] += bool(result.certified)


def _on_insert(tr: "Tracer", result):
    tr.counts["ideals.insert.useful"] += bool(result)


def _on_branches(tr: "Tracer", result):
    for b in result:
        tr.counts["weierstrass.branches." + ("exact" if b.is_exact else "floating")] += 1


# (layer, qualified attribute, timer group, result hook).  Functions are the
# layers' public surface; trivial accessors (coeff, order, with_precision, ...)
# are not wrapped and their time stays with the caller.
TARGETS = [
    ("series", "pullback", None, None),
    ("series", "mul", None, None),
    ("series", "jet", None, None),
    ("series", "vanishing_order", None, None),
    ("series", "reparametrize", None, None),
    ("series", "inverse", None, None),
    ("series", "divide", None, None),
    ("series", "TruncSeries.__add__", None, None),
    ("series", "TruncSeries.__radd__", None, None),
    ("series", "TruncSeries.__sub__", None, None),
    ("series", "TruncSeries.__rsub__", None, None),
    ("series", "TruncSeries.__neg__", None, None),
    ("series", "TruncSeries.__mul__", None, None),
    ("series", "TruncSeries.__rmul__", None, None),
    ("series", "TruncSeries.__pow__", None, None),
    ("series", "TruncSeries.scale", None, None),
    ("series", "TruncSeries.substitute_power", None, None),
    ("series", "TruncSeries.conj_coeffs", None, None),
    ("hermitian", "decompose", "hermitian.decompose", None),
    ("hermitian", "reconstruct", None, None),
    ("hermitian", "HermitianForm.restrict_to_curve", None, None),
    ("hermitian", "HermitianForm.__add__", None, None),
    ("hermitian", "HermitianForm.__sub__", None, None),
    ("typeengine", "dangelo_ratio", None, None),
    ("typeengine", "witness_check", None, _on_witness),
    ("typeengine", "monomial_curve_search", "typeengine.search", _on_search),
    ("typeengine", "match_unitary", None, None),
    ("typeengine", "build_ideal", None, None),
    ("typeengine", "equivalence_check", None, None),
    ("ideals", "membership_jet", "ideals.membership", None),
    ("ideals", "verify_combination", None, None),
    ("ideals", "codimension", "ideals.codim", None),
    ("ideals", "max_power_subset", None, None),
    ("ideals", "radical_membership", None, None),
    ("ideals", "intersection_diagnostic", None, None),
    ("ideals", "IdealPresentation.span", None, None),
    ("ideals", "JetSpan.insert", None, _on_insert),
    ("ideals", "JetSpan.express", None, None),
    ("weierstrass", "weierstrass_divide", None, None),
    ("weierstrass", "weierstrass_prepare", "weierstrass.prepare", None),
    ("weierstrass", "discriminant", None, None),
    ("weierstrass", "restrict_to_line", None, None),
    ("weierstrass", "generic_restrict", None, None),
    ("weierstrass", "newton_puiseux", "weierstrass.puiseux", _on_branches),
    ("weierstrass", "prime_curve_lift", "weierstrass.lift", None),
    ("weierstrass", "associated_membership", "weierstrass.assoc_membership", None),
    ("pipeline", "run_pipeline", "pipeline.run", None),
    ("pipeline", "recheck_bundle", None, None),
    ("cli", "main", None, None),
    ("cli", "run_job", None, None),
]


def _formats_targets(module) -> List[tuple]:
    out = []
    for name in sorted(vars(module)):
        if name.startswith("parse_"):
            out.append(("formats", name, "formats.parse", None))
        elif name.startswith("format_") or name == "emit_block":
            out.append(("formats", name, "formats.print", None))
        elif name == "extract_block":
            out.append(("formats", name, None, None))
    return out


class Tracer:
    """Collects spans, per-layer self time, timer groups and counters over
    the jobs run inside :meth:`job`."""

    def __init__(self):
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.spans: List[tuple] = []  # (name index, start, end, parent, job)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.timers: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.jobs = 0
        self.job_s = 0.0  # time in outermost spans: the sum of all self times
        self._stack: List[list] = []  # open spans: [index, layer, child seconds]
        self._timer_depth: Dict[str, int] = defaultdict(int)
        self._op_depth = 0
        self._job_id: Optional[str] = None
        self._restore: List[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn: Callable, layer: str, name: str, timer, hook, error_type):
        tr = self
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name] += 1
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            if timer:
                tr._timer_depth[timer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                if len(stack) < 2 or stack[-2][1] != layer:
                    counts[layer + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                tr.self_s[layer] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                else:
                    tr.job_s += took
                spans[frame[0]] = (index, start, end, parent, tr._job_id)
                if timer:
                    tr._timer_depth[timer] -= 1
                    if not tr._timer_depth[timer]:
                        tr.timers[timer] += took
            if hook is not None:
                hook(tr, result)
            return result

        return traced

    def _coeff_op(self, fn: Callable, key: Optional[str]):
        tr = self
        stack, counts, self_s = self._stack, self.counts, self.self_s
        counted = "coeffs." + key if key else None

        @functools.wraps(fn)
        def op(*args):
            if counted:
                counts[counted] += 1
            if tr._op_depth:
                return fn(*args)
            tr._op_depth = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - start
                tr._op_depth = 0
                self_s["coeffs"] += took
                if stack:
                    stack[-1][2] += took

        return op

    # -- installation ---------------------------------------------------------

    def install(self):
        """Replace every binding of the wrapped functions and methods."""
        import germforge  # noqa: F401  (loads every submodule)
        from germforge import coeffs, errors, formats

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "germforge" or k.startswith("germforge."))]
        bindings: Dict[int, List[tuple]] = defaultdict(list)
        for mod in modules:
            for attr, value in vars(mod).items():
                if callable(value):
                    bindings[id(value)].append((mod, attr))

        for attr, key in COEFF_OPS.items():
            cls = coeffs.GaussianRational
            self._set(cls, attr, self._coeff_op(vars(cls)[attr], key))

        for layer, qual, timer, hook in TARGETS + _formats_targets(formats):
            mod = sys.modules[f"germforge.{layer}"]
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, attr, self._span(vars(cls)[attr], layer, name, timer, hook,
                                                errors.GermforgeError))
                continue
            original = getattr(mod, qual)
            wrapper = self._span(original, layer, name, timer, hook, errors.GermforgeError)
            for owner, attr in bindings[id(original)]:
                self._set(owner, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def job(self, job_id: str):
        """Trace the calls made inside this block as one job."""
        self.install()
        self._job_id = job_id
        try:
            yield self
        finally:
            self.jobs += 1
            self._job_id = None
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics, as means per traced job (ratios as ratios)."""
        jobs = max(1, self.jobs)
        c = self.count

        def per_job(x):
            return x / jobs

        def ratio(num, den):
            return num / den if den else 0.0

        ops = sum(c("coeffs." + k) for k in ("add", "sub", "neg", "mul", "div"))
        m = {
            "coeffs.ops": per_job(ops),
            "coeffs.mul.calls": per_job(c("coeffs.mul")),
            "series.mul.calls": per_job(c("series.TruncSeries.__mul__") + c("series.TruncSeries.__rmul__")),
            "series.pullback.calls": per_job(c("series.pullback")),
            "hermitian.restrict.calls": per_job(c("hermitian.HermitianForm.restrict_to_curve")),
            "hermitian.decompose.s": per_job(self.timers["hermitian.decompose"]),
            "typeengine.search.s": per_job(self.timers["typeengine.search"]),
            "typeengine.search.curves": per_job(c("typeengine.search.curves")),
            "typeengine.search.flagged_ratio": ratio(c("typeengine.search.flagged"),
                                                     c("typeengine.search.curves")),
            "typeengine.witness.certified_ratio": ratio(c("typeengine.witness.certified"),
                                                        c("typeengine.witness_check")),
            "typeengine.errors": per_job(c("typeengine.errors")),
            "ideals.codim.s": per_job(self.timers["ideals.codim"]),
            "ideals.membership.s": per_job(self.timers["ideals.membership"]),
            "ideals.insert.calls": per_job(c("ideals.JetSpan.insert")),
            "ideals.insert.useful_ratio": ratio(c("ideals.insert.useful"), c("ideals.JetSpan.insert")),
            "weierstrass.prepare.s": per_job(self.timers["weierstrass.prepare"]),
            "weierstrass.puiseux.s": per_job(self.timers["weierstrass.puiseux"]),
            "weierstrass.lift.s": per_job(self.timers["weierstrass.lift"]),
            "weierstrass.assoc_membership.s": per_job(self.timers["weierstrass.assoc_membership"]),
            "weierstrass.branches.exact": per_job(c("weierstrass.branches.exact")),
            "weierstrass.branches.floating": per_job(c("weierstrass.branches.floating")),
            "weierstrass.errors": per_job(c("weierstrass.errors")),
            "formats.parse.s": per_job(self.timers["formats.parse"]),
            "formats.print.s": per_job(self.timers["formats.print"]),
            "pipeline.run.s": per_job(self.timers["pipeline.run"]),
            "trace.job_s": per_job(self.job_s),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per_job(self.self_s[layer])
        return m

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table plus one
        [name, start, end, parent, job] row per span, times in seconds from
        the first span."""
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        rows = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                for s in self.spans if s]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
