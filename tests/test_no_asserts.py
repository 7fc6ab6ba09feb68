"""No check in the package may be an ``assert``: ``python -O`` strips them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmlesskit"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
