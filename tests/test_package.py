"""Package surface: exported names exist, and the README's quickstart runs."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import chernscope

MODULES = ["chernscope"] + [
    f"chernscope.{info.name}" for info in pkgutil.iter_modules(chernscope.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []


def test_readme_quickstart_prints_its_commented_results():
    """Each ``print(...)  # result`` line prints its comment; "..." stands
    for further digits."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    comments = [line.split("# ")[1] for line in code.splitlines() if "print(" in line]
    assert len(comments) == 3
    for line, comment in zip(out.getvalue().splitlines(), comments, strict=True):
        assert re.fullmatch(re.escape(comment).replace(r"\.\.\.", r"\d*"), line)
