"""The output checks accept germforge's real outputs and reject tampered ones.

Run from the repository root:  python3 -m pytest -q perfbench/tests"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import generate, write_inputs  # noqa: E402


def _first_line_sub(pattern, repl, text):
    new, n = re.subn(pattern, repl, text, count=1, flags=re.M)
    assert n == 1, pattern
    return new


# kind -> (workload, tampering that makes the output wrong)
TAMPER = {
    "witness": ("pipeline-witness", lambda out: _first_line_sub(r"^(z\d) = t", r"\1 = 2*t", out)),
    "finite": ("pipeline-finite", lambda out: _first_line_sub(
        r"lower bound for the type: \d+/", "lower bound for the type: 99/", out)),
    "codim": ("algebra", lambda out: _first_line_sub(r"level k : 1:1 2:", "level k : 1:1 2:9", out)),
    "puiseux": ("algebra", lambda out: _first_line_sub(r"^(  w\(t\) = .*)$", r"\1 + 1/3*t^5", out)),
    "lift": ("algebra", lambda out: _first_line_sub(r"^(z3 = .*);$", r"\1 + t^2;", out)),
}


def _first_job(workload, kind, tmp_path):
    rounds = generate(workload, 3, rounds=1)
    write_inputs(rounds, tmp_path)
    # skip the c = 8 and c = i witness jobs, which exit 2
    return next(j for j in rounds[0] if j.kind == kind and "c=8" not in j.known["label"]
                and "c=i" not in j.known["label"])


@pytest.mark.parametrize("kind", sorted(TAMPER))
def test_checks_accept_real_and_reject_tampered_output(kind, tmp_path):
    from germforge.cli import main

    workload, tamper = TAMPER[kind]
    job = _first_job(workload, kind, tmp_path)
    argv = [str(tmp_path / a) if a in job.files else a for a in job.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert checks.check(job, code, out.getvalue(), "", None)[0] == checks.DECIDED
    outcome, why = checks.check(job, code, tamper(out.getvalue()), "", None)
    assert outcome == checks.FAILED, why


def test_errors_and_escapes_fail():
    job = generate("algebra", 3, rounds=1)[0][0]
    assert checks.check(job, 1, "", "error: boom", None)[0] == checks.FAILED
    assert checks.check(job, None, "", "", "ValueError: boom")[0] == checks.FAILED
