#!/usr/bin/env python3
"""Paired benchmark runs: a parent git ref against the working tree.

Exports the parent ref with ``git archive`` into a temporary directory
(under $TMPDIR), then runs ``perfbench/run.py`` from the
parent tree and from the working tree alternately: pair i uses seed
seeds[i % len(seeds)], and odd pairs run the working tree first, so slow
drift of the host hits both sides alike.  For every metric in the runs'
final JSON line it prints each side's median and quartiles, the change of
the medians, and in how many pairs the working tree was better (in the
direction BENCHMARK.json gives the metric).  After the table it prints, for
each end-to-end metric, the ratio of the change's median to the parent's
and flags every metric that is worse than the parent's by more than its
BENCHMARK.json ``bound``, and a larger share of failed jobs.  Next to
``peak_rss_mb`` it prints each side's median number of attempted jobs, since
run.py keeps every job's record and the metric grows with the job count.
Then it prints each side's median and maximum total wall time of one run.py
process, from start to exit: set-up probes, timed loop and output checks.
With ``--trace 1`` it then prints each side's median core share, the
(coeffs + series + hermitian + typeengine) self time over the traced job
time, which ``perfbench/tests/test_perfbench_trace.py`` holds at >= 0.9 on
the pipeline workloads, and flags a pipeline median below that floor.
The last line is the runs' values as JSON, attempted jobs (and core shares)
included.

Usage:
    python3 scripts/bench_pairs.py --parent HEAD~1 --workload algebra \\
        --seeds 101,202,303,404 --pairs 10 [--seconds 25] [--trace 0]
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE_LAYERS = ("coeffs", "series", "hermitian", "typeengine")
CORE_SHARE_FLOOR = 0.9


def export_ref(ref: str) -> Path:
    """The committed files of ``ref`` in a fresh temporary directory."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                          check=True, capture_output=True).stdout
    dest = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One perfbench run from ``tree``; returns its final JSON object and
    the process's wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), wall


def core_share(result: dict) -> float:
    """The core layers' self time over the traced job time, of one run."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    job = m["trace.job_s"]
    return sum(m[f"{layer}.self_s"] for layer in CORE_LAYERS) / job if job else 0.0


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101", help="comma-separated seeds, used in turn")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {row["name"]: row["better"] for row in spec["end_to_end"] + spec["per_layer"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    parent = export_ref(args.parent)
    runs = {"parent": [], "change": []}
    walls = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = [("parent", parent), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                got, wall = run_once(tree, args.workload, seed, args.seconds, args.trace)
                runs[side].append(got)
                walls[side].append(wall)
            values = {side: {k: v["value"] for k, v in runs[side][-1]["metrics"].items()}
                      for side in runs}
            print(f"pair {i + 1} seed {seed}: " + "  ".join(
                f"{name} {values['parent'][name]:.4g} -> {values['change'][name]:.4g}"
                for name in values["parent"])
                + f"  run wall {walls['parent'][-1]:.1f} s -> {walls['change'][-1]:.1f} s", flush=True)
    finally:
        shutil.rmtree(parent, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seeds}, "
          f"parent {args.parent}, --seconds {args.seconds:g} --trace {args.trace}")
    print(f"correct: parent {all(r['correct'] for r in runs['parent'])}, "
          f"change {all(r['correct'] for r in runs['change'])}")
    print(f"{'metric':34} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change':>8} {'wins':>7}")
    summary = {}
    for name in runs["parent"][0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1 if better.get(name) == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        rel = (cm - pm) / pm if pm else float("nan")
        pcol, ccol = f"{pm:.4g} [{p1:.4g}, {p3:.4g}]", f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
        print(f"{name:34} {pcol:>30} {ccol:>30} {rel:+8.1%} {wins:>4}/{len(p)}")
        summary[name] = {"parent": p, "change": c, "wins": wins}
    attempted = {side: [r["attempted"] for r in runs[side]] for side in runs}
    print(f"\n{'end-to-end metric':34} {'change/parent':>13} {'bound':>7}")
    for row in spec["end_to_end"]:
        name = row["name"]
        if name not in summary:
            continue
        pm, cm = (statistics.median(summary[name][side]) for side in ("parent", "change"))
        ratio = cm / pm if pm else (1.0 if cm == pm else float("inf"))
        worse = ratio - 1 if row["better"] == "lower" else 1 - ratio
        flag = "WORSE BEYOND BOUND" if worse > row["bound"] else "ok"
        if name == "peak_rss_mb":
            flag += "  (attempted jobs, median: {:g} -> {:g})".format(
                *(statistics.median(attempted[side]) for side in ("parent", "change")))
        print(f"{name:34} {ratio:13.3f} {row['bound']:7.2f}  {flag}")
    failed = {side: sum(r["failed"] for r in runs[side]) / max(1, sum(attempted[side]))
              for side in runs}
    flag = "WORSE" if failed["change"] > failed["parent"] else "ok"
    print(f"{'failed share':34} {failed['parent']:.4g} -> {failed['change']:.4g}  {flag}")
    for side in walls:
        print(f"run wall time, {side}: median {statistics.median(walls[side]):.1f} s, "
              f"max {max(walls[side]):.1f} s")
    summary["run_wall_s"] = walls
    if args.trace:
        shares = {side: [core_share(r) for r in runs[side]] for side in runs}
        for side, xs in shares.items():
            share = statistics.median(xs)
            low = args.workload.startswith("pipeline") and share < CORE_SHARE_FLOOR
            print(f"core share, {side}: median {share:.3f}"
                  + (f"  BELOW {CORE_SHARE_FLOOR}" if low else ""))
        summary["core_share"] = shares
    summary["attempted"] = attempted
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
