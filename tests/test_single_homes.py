"""Each rule of the exhaustive layer has one home in the package source:
one loop over a product of combination tables (unweighted._tuples_of), one
spelling of the weight scans' skip margin (unweighted._SKIP_MARGIN), and
one reader of the positive-weight test (model._positive_weight) besides
validate_instance: the weight scans' gate, model._weight_gate. A second
copy would drift from the first unseen."""

import ast
from pathlib import Path

import faircover

SOURCE = Path(faircover.__file__).parent


def _trees():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def _is_product(func, aliases) -> bool:
    """Whether func names itertools.product, given the module's aliases of it."""
    if isinstance(func, ast.Name):
        return func.id in aliases
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "product"
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    )


def test_package_calls_itertools_product_once():
    found = []
    for name, tree in _trees():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
            if alias.name == "product"
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_product(node.func, aliases)
        ]
    assert [where.split(":")[0] for where in found] == ["unweighted.py"], found


def test_package_spells_the_skip_margin_once():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and {type(side) for side in (node.left, node.right)} == {ast.Constant}
        and sorted([node.left.value, node.right.value]) == [1e-9, 1]
    ]
    assert [where.split(":")[0] for where in found] == ["unweighted.py"], found


def test_only_the_gate_and_validation_read_the_positive_weight_test():
    readers = []
    for name, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                named = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if named == "_positive_weight":
                    readers.append((name, func.name))
    assert sorted(set(readers)) == [("model.py", "_weight_gate"),
                                    ("model.py", "validate_instance")], readers
