import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "resbinar"


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so no check may rely on one.
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend(f"{path.name}:{node.lineno}"
                     for node in ast.walk(tree) if isinstance(node, ast.Assert))
    assert found == []


def test_console_script_targets_exist():
    # what a pip install would put on PATH, checked without one
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = project["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function, None)), name
