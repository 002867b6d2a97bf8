"""Inputs come from the seed alone, and the benchmark refuses to run without
the program's sources.

Run from the repository root:  python3 -m pytest -q perfbench/tests"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, generate, write_inputs  # noqa: E402


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _digest_in_fresh_process(workload, seed, out: Path) -> str:
    # a fresh interpreter with its own string-hash seed
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from pathlib import Path; "
            "from workloads import generate, write_inputs; "
            "write_inputs(generate(sys.argv[2], int(sys.argv[3])), Path(sys.argv[4]))")
    env = dict(os.environ, PYTHONHASHSEED="random")
    subprocess.run([sys.executable, "-c", code, str(BENCH), workload, str(seed), str(out)],
                   check=True, env=env, timeout=120)
    return _digest(out)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    a = _digest_in_fresh_process(workload, 11, tmp_path / "a")
    b = _digest_in_fresh_process(workload, 11, tmp_path / "b")
    write_inputs(generate(workload, 11), tmp_path / "c")
    assert a == b == _digest(tmp_path / "c")
    write_inputs(generate(workload, 12), tmp_path / "d")
    assert _digest(tmp_path / "d") != a


def test_rounds_repeat_the_same_job_classes():
    for workload in WORKLOADS:
        rounds = generate(workload, 5, rounds=6)
        kinds = [[job.kind for job in r] for r in rounds]
        assert all(k == kinds[0] for k in kinds)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
