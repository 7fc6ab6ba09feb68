"""Reports have one writer: only ``io.py`` may call ``json.dumps`` or
``json.dump``, so the report layout stays defined in ``io.dumps``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "harmlesskit"
WRITERS = {"dump", "dumps"}


def _json_writer_uses(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in WRITERS
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if any(alias.name in WRITERS for alias in node.names):
                yield node.lineno


def test_only_io_calls_the_json_writer():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "io.py" in modules
    found = [
        f"{path.relative_to(PACKAGE)}:{lineno}"
        for path in modules
        if path != PACKAGE / "io.py"
        for lineno in _json_writer_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_guard_sees_both_spellings():
    tree = ast.parse("import json\nfrom json import dumps\njson.dump(doc, fh)\n")
    assert list(_json_writer_uses(tree)) == [2, 3]
