#!/usr/bin/env python3
"""Profile the jobs of a benchmark workload under cProfile.

Generates the jobs of the first ``--rounds`` rounds of a workload for one
seed with ``perfbench/workloads.generate``, writes their inputs to a
temporary directory, and runs every job (or only those of one CLI command)
in this process through ``germforge.cli.main`` from the working tree, with
its output discarded.  A second pass runs the same jobs unprofiled, after
the profiled one (so process-wide caches are warm, as in a benchmark run),
and prints each CLI command's job count and median wall time: the line that
says which job class holds a workload's ``job_s.p50``.  Then it prints the
top functions by cumulative time and by self time over all the profiled
jobs together.

Usage:
    python3 scripts/profile_jobs.py --workload pipeline-witness --seed 101 \\
        [--rounds 1] [--command pipeline] [--top 30]
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import generate, write_inputs  # noqa: E402

from germforge import cli  # noqa: E402


def quietly(call, *args):
    """call(*args) with stdout and stderr discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        call(*args)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1, help="rounds from round 0")
    ap.add_argument("--command", help="profile only the jobs of this CLI command")
    ap.add_argument("--top", type=int, default=30, help="rows per table")
    args = ap.parse_args(argv)

    rounds = generate(args.workload, args.seed, rounds=args.rounds)
    jobs = [j for jobs_of_round in rounds for j in jobs_of_round
            if args.command is None or j.argv[0] == args.command]
    if not jobs:
        raise SystemExit(f"no {args.command} jobs in {args.workload}")
    inputs = Path(tempfile.mkdtemp(prefix="profile_jobs-"))
    prof = cProfile.Profile()
    times: dict = {}
    try:
        write_inputs(rounds, inputs)
        argvs = [[str(inputs / a) if a in job.files else a for a in job.argv] for job in jobs]
        start = time.perf_counter()
        for argv_ in argvs:
            quietly(prof.runcall, cli.main, argv_)
        wall = time.perf_counter() - start
        for argv_ in argvs:
            start = time.perf_counter()
            quietly(cli.main, argv_)
            times.setdefault(argv_[0], []).append(time.perf_counter() - start)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}, rounds 0-{args.rounds - 1}"
          f"{', command ' + args.command if args.command else ''}: "
          f"{len(jobs)} jobs, {wall:.2f} s under the profiler")
    print("\n== unprofiled pass, per command ==")
    for command, ts in sorted(times.items()):
        print(f"{command:<10} {len(ts):4d} jobs, median {statistics.median(ts) * 1e3:8.2f} ms")
    stats = pstats.Stats(prof, stream=sys.stdout)
    for key, title in (("cumulative", "cumulative time"), ("tottime", "self time")):
        print(f"\n== top {args.top} by {title} ==")
        stats.sort_stats(key).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
