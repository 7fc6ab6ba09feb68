"""No function in the package may rebind a module or enclosing name: a
``global`` or ``nonlocal`` statement is state that outlives the call."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmlesskit"


def test_package_has_no_global_or_nonlocal_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert found == []
