#!/usr/bin/env python3
"""Byte-for-byte output comparison: a parent git ref against the working tree.

Generates the jobs of the first ``--rounds`` rounds of a benchmark workload
for each seed with ``perfbench/workloads.generate`` and writes their inputs
once.  Then each tree (the parent, exported with ``git archive``, and the
working tree) runs every job in one subprocess of its own that calls
``germforge.cli.main`` in process, as the benchmark does.  Exit code, stdout
and stderr are compared byte for byte; every job that differs is printed,
and the exit status is 1 if any does.

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

# Reads a JSON list of argv lists on stdin, runs each through cli.main and
# writes a JSON list of [exit code, stdout, stderr]; an exception escaping
# main is recorded in place of the exit code.
WORKER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from germforge import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BaseException as exc:
        code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def run_tree(tree: Path, argvs: list) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(tree / "src")],
        input=json.dumps(argvs), cwd=tree, capture_output=True, text=True,
    )
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
        got = {side: run_tree(tree, argvs) for side, tree in (("parent", parent), ("change", ROOT))}
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(inputs, ignore_errors=True)

    fields = ("exit code", "stdout", "stderr")
    differ = 0
    for name, p, c in zip(jobs, got["parent"], got["change"]):
        diff = [f for f, a, b in zip(fields, p, c) if a != b]
        if diff:
            differ += 1
            print(f"DIFFERS ({', '.join(diff)}): {name}")
    print(f"{args.workload}: {len(jobs)} jobs, seeds {args.seeds}, rounds 0-{args.rounds - 1}, "
          f"parent {args.parent}: {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
