#!/usr/bin/env python3
"""Byte-for-byte output comparison: a parent git ref against the working tree.

Generates the jobs of the first ``--rounds`` rounds of a benchmark workload
for each seed with ``perfbench/workloads.generate`` and writes their inputs
once.  Then each tree (the parent, exported with ``git archive``, and the
working tree) runs every job in one subprocess of its own that calls
``germforge.cli.main`` in process, as the benchmark does; each side runs
RUNS times, the sides alternating.  Exit code, stdout and stderr are
compared byte for byte, between the sides and between the runs of one side
(a cache keyed wrongly shows there); every job that differs is printed, then
each side's five slowest jobs by their fastest run, with the fastest run of
the other side, and the exit status is 1 if any job differs.

A side whose subprocess runs longer than WORKER_TIMEOUT_S is stopped; the
script then names the side and the job that was running, and exits 1.

Usage:
    python3 scripts/diff_outputs.py --parent HEAD~1 --workload pipeline-witness \\
        --seeds 101,202 --rounds 2
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_ref  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import generate, write_inputs  # noqa: E402

# Wall-time limit of one side's worker: the ten-seed, 40-round algebra diff
# takes about 25 s a side on a 2-vCPU host, the four-seed pipeline diffs less.
WORKER_TIMEOUT_S = 900

# Runs of each side: one job's wall time varies by up to 4.7x between two
# runs of one tree, so a job's time is the fastest of its runs.
RUNS = 2

# Reads a JSON list of argv lists on stdin, runs each through cli.main and
# writes a JSON list of [exit code, stdout, stderr, wall seconds]; an
# exception escaping main is recorded in place of the exit code.  The index
# of each job goes to stderr before the job starts, so a stopped worker
# names the job it was running.
WORKER = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from germforge import cli
results = []
for index, argv in enumerate(json.load(sys.stdin)):
    print(index, file=sys.stderr, flush=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BaseException as exc:
        code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue(), time.perf_counter() - start])
json.dump(results, sys.stdout)
"""


def run_tree(side: str, tree: Path, argvs: list, jobs: list) -> list:
    try:
        proc = subprocess.run(
            [sys.executable, "-c", WORKER, str(tree / "src")],
            input=json.dumps(argvs), cwd=tree, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        err = exc.stderr or b""
        started = (err.decode() if isinstance(err, bytes) else err).split()
        running = jobs[int(started[-1])] if started else "none started"
        raise SystemExit(f"{side}: worker stopped after {WORKER_TIMEOUT_S} s; "
                         f"running job: {running}")
    if proc.returncode != 0:
        raise SystemExit(f"worker failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101", help="comma-separated seeds")
    ap.add_argument("--rounds", type=int, default=2, help="rounds per seed, from round 0")
    args = ap.parse_args(argv)

    parent = export_ref(args.parent)
    inputs = Path(tempfile.mkdtemp(prefix="diff_outputs-"))
    try:
        jobs, argvs = [], []
        for seed in (int(s) for s in args.seeds.split(",")):
            rounds = generate(args.workload, seed, rounds=args.rounds)
            directory = inputs / str(seed)
            write_inputs(rounds, directory)
            for job in (j for jobs_of_round in rounds for j in jobs_of_round):
                jobs.append(f"seed {seed} {job.describe()}")
                argvs.append([str(directory / a) if a in job.files else a for a in job.argv])
        got = {"parent": [], "change": []}
        for _ in range(RUNS):
            for side, tree in (("parent", parent), ("change", ROOT)):
                got[side].append(run_tree(side, tree, argvs, jobs))
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(inputs, ignore_errors=True)

    fields = ("exit code", "stdout", "stderr")
    differ = 0
    for j, name in enumerate(jobs):
        first = got["parent"][0][j]
        diff = [f"{side} run {k + 1} {f}" for side, runs in got.items()
                for k, run in enumerate(runs)
                for f, a, b in zip(fields, first, run[j]) if a != b]
        if diff:
            differ += 1
            print(f"DIFFERS from parent run 1 ({', '.join(diff)}): {name}")
    print(f"{args.workload}: {len(jobs)} jobs, seeds {args.seeds}, rounds 0-{args.rounds - 1}, "
          f"parent {args.parent}, {RUNS} runs a side: {differ} differ")
    times = {side: [min(run[j][3] for run in runs) for j in range(len(jobs))]
             for side, runs in got.items()}
    for side, other in (("parent", "change"), ("change", "parent")):
        print(f"{side}: five slowest jobs, fastest of {RUNS} runs ({other} time in brackets)")
        for i in sorted(range(len(jobs)), key=times[side].__getitem__, reverse=True)[:5]:
            print(f"  {times[side][i]:8.3f} s  ({times[other][i]:.3f} s)  {jobs[i]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
