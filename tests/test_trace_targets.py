"""Every function or method that the per-layer tracer in
perfbench/layertrace.py wraps still exists: a renamed or deleted name
would make a traced benchmark run fail."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _targets():
    tree = ast.parse(LAYERTRACE.read_text(), str(LAYERTRACE))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("layertrace.py defines no TARGETS list")


@pytest.mark.parametrize("layer, qualname", _targets(), ids=lambda x: x)
def test_trace_target_resolves(layer, qualname):
    obj = importlib.import_module(f"germforge.{layer}")
    for part in qualname.split("."):
        assert hasattr(obj, part), f"germforge.{layer}.{qualname} is missing"
        obj = getattr(obj, part)
    assert callable(obj)
