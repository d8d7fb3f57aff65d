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


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set[str]:
    """Every name a module reads, those in quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_every_import_in_the_package_is_used():
    # __init__.py imports to export
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.extend(
                    f"{path.name}:{node.lineno} {name}"
                    for name in ((alias.asname or alias.name).split(".")[0]
                                 for alias in node.names)
                    if name not in used)
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
