import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "resbinar"


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
