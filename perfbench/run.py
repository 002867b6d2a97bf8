"""germforge benchmark: one closed-loop client running CLI jobs in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a germforge checkout; the program is imported from its
``src`` directory.  The seed draws the workload's inputs (see workloads.py),
which are written to files before timing starts; germforge sees only the
files.  Each job is one call of ``germforge.cli.main(argv)``, the next starting
when the previous one returns.  A run repeats whole rounds of the workload's
job mix until ``--seconds`` have passed, then checks every output (checks.py)
outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every job
untraced and then traced (layertrace.py), requires identical outputs, and reports
the per-layer metrics.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from layertrace import Tracer
from workloads import WORKLOADS, generate, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
# one process, no helper threads: numpy's BLAS pool is kept to one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "germforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "GERMFORGE_THREADS": os.environ.get("GERMFORGE_THREADS", "unset"),
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _measure_setup(workload: str, seed: int, run_dir: Path) -> float:
    """Median over fresh processes of: import germforge, generate and write
    the inputs."""
    times = []
    for i in range(SETUP_PROBES):
        out = run_dir / f"probe{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed), str(out)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
        shutil.rmtree(out)
    return statistics.median(times)


def _execute(cli, job, inputs: Path):
    """Run one job; returns (seconds, exit code, stdout, stderr, error) where
    error describes an exception that escaped germforge.  ``cli.main`` is
    looked up per call, so a traced job enters through its wrapper."""
    argv = [str(inputs / a) if a in job.files else a for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception:  # any escape is a failed job, not a crashed benchmark
        error = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
    return perf_counter() - start, code, out.getvalue(), err.getvalue(), error


def _run(rounds, seconds: float, step):
    """Closed loop over whole rounds until ``seconds`` have passed."""
    records = []
    start = perf_counter()
    r = 0
    while True:
        for job in rounds[r % len(rounds)]:
            records.append(step(job, len(records)))
        r += 1
        if perf_counter() - start >= seconds:
            return records, perf_counter() - start, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "germforge" / "__init__.py").is_file():
        print(f"perfbench: no germforge sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("GERMFORGE_THREADS", None)  # the program's default: 1
    for var in BLAS_THREAD_VARS:  # numpy is imported below, by germforge
        os.environ[var] = "1"
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_s = _measure_setup(args.workload, args.seed, run_dir)
        sys.path.insert(0, str(SRC))
        import germforge
        from germforge import cli

        if SRC not in Path(germforge.__file__).resolve().parents:
            print(f"perfbench: germforge imported from {germforge.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        rounds = generate(args.workload, args.seed)
        inputs = run_dir / "inputs"
        write_inputs(rounds, inputs)
        return _measure(args, setup_s, rounds, inputs, cli)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, setup_s, rounds, inputs, cli) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer() if args.trace else None

    def step(job, index):
        rec = {"job": job}
        rec["s"], rec["code"], rec["out"], rec["err"], rec["error"] = _execute(cli, job, inputs)
        if tracer is not None:
            with tracer.job(f"{job.name}#{index}"):
                traced = _execute(cli, job, inputs)
            rec["traced_s"] = traced[0]
            rec["same"] = traced[1:] == (rec["code"], rec["out"], rec["err"], rec["error"])
        return rec

    records, wall, nrounds = _run(rounds, args.seconds, step)

    counts = {checks.DECIDED: 0, checks.UNDECIDED: 0, checks.FAILED: 0}
    lines = []
    for rec in records:
        job = rec["job"]
        outcome, why = checks.check(job, rec["code"], rec["out"], rec["err"], rec["error"])
        if tracer is not None and not rec["same"]:
            outcome, why = checks.FAILED, "traced output differs from untraced output"
        rec["outcome"] = outcome
        counts[outcome] += 1
        lines.append(f"  {job.name} {job.kind:8} {rec['s']:8.3f} s  exit {rec['code']}  "
                     f"{outcome}: {why}  [{job.known['label']}]")
    attempted = len(records)

    print(f"germforge benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, one closed-loop client")
    print("environment: " + json.dumps(_environment(), sort_keys=True))
    print(f"jobs: {attempted} in {nrounds} rounds, {wall:.3f} s")
    print("\n".join(lines))
    undecided = [r["job"].describe() + f"  [{r['job'].known['label']}]"
                 for r in records if r["outcome"] == checks.UNDECIDED]
    print(f"undecided: {len(undecided)}")
    for u in undecided:
        print("  " + u)
    if tracer is None:
        report = {
            "setup_s": setup_s,
            "jobs_per_s": attempted / wall,
            "job_s.p50": statistics.median(rec["s"] for rec in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": counts[checks.FAILED] / attempted,
            "decided_frac": counts[checks.DECIDED] / attempted,
        }
        units = {row["name"]: row["unit"] for row in spec["end_to_end"]}
        units["failed_frac"] = "ratio"  # carried as "failed"; it reads 0, so it is not listed
        print("end-to-end metrics:")
        for name, value in report.items():
            print(f"  {name:14} {value:12.6g} {units[name]}")
        listed, values = spec["end_to_end"], report
    else:
        plain = sum(rec["s"] for rec in records)
        traced = sum(rec["traced_s"] for rec in records)
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = traced / plain - 1
        print("per-layer metrics (mean per traced job):")
        for name in sorted(layer):
            print(f"  {name:34} {layer[name]:14.6g}")
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        listed, values = spec["per_layer"], layer

    print(json.dumps({
        "correct": counts[checks.FAILED] == 0,
        "attempted": attempted,
        "failed": counts[checks.FAILED],
        "metrics": {row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                    for row in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
