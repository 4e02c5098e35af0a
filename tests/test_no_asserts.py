"""The package never uses assert for control flow: python -O strips every
assert statement, so a check the program relies on must raise a typed
error instead."""

import ast
from pathlib import Path

import faircover

SOURCE = Path(faircover.__file__).parent


def test_package_source_has_no_assert_statements():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
