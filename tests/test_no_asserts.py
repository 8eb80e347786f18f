"""Library invariants raise typed errors; ``python -O`` would strip an ``assert``."""

import ast
from pathlib import Path

import ficalc


def test_library_has_no_assert_statements():
    root = Path(ficalc.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
