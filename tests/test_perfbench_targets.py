"""The traced benchmark run wraps public functions by name; keep them present."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TARGETS = [(mod, name) for mod, name, _, _ in runpy.run_path(str(SPANS))["TARGETS"]]


@pytest.mark.parametrize("module_name,func_name", TARGETS)
def test_benchmark_target_exists(module_name, func_name):
    module = importlib.import_module(f"chernscope.{module_name}")
    assert inspect.isfunction(getattr(module, func_name, None)), (
        f"chernscope.{module_name}.{func_name} is traced by perfbench/spans.py"
    )
