"""The traced run sees every call into the layers and changes no output.

Run from the repository root:  python3 -m pytest -q perfbench/tests"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from layertrace import LAYERS, Tracer  # noqa: E402

CUSP = """vars 3; N=60;
+ 1 z3 + 1 zbar3
+ 1 z1^2 zbar1^2
- 1 z1^2 zbar2^3 - 1 z2^3 zbar1^2
+ 1 z2^3 zbar2^3;
"""


def _run_cli(argv):
    from germforge.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_reference_job_counts_and_identical_output(tmp_path):
    form = tmp_path / "cusp.germ"
    form.write_text(CUSP)
    argv = ["pipeline", "--N", "50", "--A", "3", "--d", "2", "--bound", "6", str(form)]
    plain = _run_cli(argv)
    tracer = Tracer()
    with tracer.job("cusp"):
        traced = _run_cli(argv)
    assert traced == plain
    assert plain[0] == 0
    assert tracer.count("hermitian.HermitianForm.restrict_to_curve") == 2967
    assert tracer.count("series.pullback") == 11873
    m = tracer.layer_metrics()
    assert m["series.mul.calls"] == 33486
    assert m["coeffs.mul.calls"] == 100157
    # self times partition the traced job time
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(m["trace.job_s"], rel=1e-9)


def test_wrappers_are_removed_after_the_job(tmp_path):
    import germforge.pipeline
    import germforge.series
    from germforge.coeffs import GaussianRational
    from germforge.series import TruncSeries

    before = (germforge.pipeline.monomial_curve_search, germforge.series.pullback,
              vars(TruncSeries)["__mul__"], vars(GaussianRational)["__mul__"])
    tracer = Tracer()
    with tracer.job("noop"):
        assert germforge.pipeline.monomial_curve_search is not before[0]
        assert vars(GaussianRational)["__mul__"] is not before[3]
    after = (germforge.pipeline.monomial_curve_search, germforge.series.pullback,
             vars(TruncSeries)["__mul__"], vars(GaussianRational)["__mul__"])
    assert after == before


# Per-layer metrics that must read nonzero on the workload named heavy for
# them.  Not listed: the *.errors counters and weierstrass.branches.floating,
# which count failures and read zero when every job succeeds exactly, and
# trace.overhead_frac, which is a difference of two noisy times.
HEAVY = {
    "pipeline-witness": [
        "series.mul.calls", "series.pullback.calls", "series.self_s",
        "typeengine.search.s", "typeengine.search.curves", "typeengine.search.flagged_ratio",
        "typeengine.witness.certified_ratio", "typeengine.self_s",
    ],
    "pipeline-finite": ["typeengine.search.s", "typeengine.search.curves"],
    "algebra": [
        "ideals.codim.s", "ideals.membership.s", "ideals.insert.calls",
        "ideals.insert.useful_ratio", "ideals.self_s",
        "weierstrass.prepare.s", "weierstrass.puiseux.s", "weierstrass.lift.s",
        "weierstrass.assoc_membership.s", "weierstrass.branches.exact", "weierstrass.self_s",
    ],
}
EVERYWHERE = ["coeffs.ops", "coeffs.mul.calls", "coeffs.self_s", "formats.parse.s",
              "formats.print.s", "formats.self_s", "cli.self_s", "trace.job_s"]
PIPELINES = ["hermitian.restrict.calls", "hermitian.decompose.s", "hermitian.self_s",
             "pipeline.run.s", "pipeline.self_s"]


def _traced_round(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(HEAVY))
def test_traced_round_covers_its_layers(workload):
    result = _traced_round(workload)
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(Tracer().layer_metrics()) | {"trace.overhead_frac"}
    heavy = HEAVY[workload] + EVERYWHERE + (PIPELINES if workload.startswith("pipeline") else [])
    assert [k for k in heavy if not m[k] > 0] == []
    job = m["trace.job_s"]
    if workload.startswith("pipeline"):
        core = sum(m[f"{layer}.self_s"] for layer in ("coeffs", "series", "hermitian", "typeengine"))
        assert core >= 0.9 * job
        assert all(m[k] == 0 for k in m if k.startswith("weierstrass."))
    else:
        assert m["ideals.self_s"] + m["weierstrass.self_s"] + m["coeffs.self_s"] > 0.5 * job
        assert m["typeengine.search.s"] == 0
