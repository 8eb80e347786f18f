"""Library invariants raise typed errors; ``python -O`` would strip an ``assert``.
And no function defined inside another calls itself: such a closure is a
reference cycle, which keeps all it captured alive until a full collection."""

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


def test_library_has_no_nested_function_that_calls_itself():
    root = Path(ficalc.__file__).parent
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {
        f"{path.relative_to(root)}:{inner.lineno} {inner.name}"
        for path in sorted(root.rglob("*.py"))
        for outer in ast.walk(ast.parse(path.read_text()))
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, functions)
        for call in ast.walk(inner)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == inner.name
    }
    assert found == set()
