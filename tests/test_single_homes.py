"""Each rule of the exhaustive layer has one home in the package source:
one builder of combination tables (unweighted._table) beside
opt_set_cover's own scan, one loop over a product of those tables
(unweighted._tuples_of), one spelling of the weight scans' skip margin
(unweighted._SKIP_MARGIN), and one reader of the positive-weight test
(model._positive_weight) besides validate_instance: the weight scans'
gate, model._weight_gate, and one sort of rows by weight
(unweighted._lightest_first). A second copy would drift from the first
unseen. And no weight that can decide a tie is summed by the builtin
sum(), which compensates float sums from Python 3.12 on."""

import ast
from pathlib import Path

import faircover

SOURCE = Path(faircover.__file__).parent


def _trees():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def _is_itertools(func, name, aliases) -> bool:
    """Whether func names itertools.<name>, given the module's aliases of it."""
    if isinstance(func, ast.Name):
        return func.id in aliases
    return (
        isinstance(func, ast.Attribute)
        and func.attr == name
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    )


def _callers(name):
    """(module, innermost enclosing function or None) of every call of
    itertools.<name> in the package."""
    found = []
    for module, tree in _trees():
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
            if alias.name == name
        }

        def visit(node, func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            elif isinstance(node, ast.Call) and _is_itertools(node.func, name, aliases):
                found.append((module, func))
            for child in ast.iter_child_nodes(node):
                visit(child, func)

        visit(tree, None)
    return found


def test_package_calls_itertools_product_once():
    found = _callers("product")
    assert found == [("unweighted.py", "_tuples_of")], found


def test_package_builds_combination_tables_in_one_place():
    # The table builder, and opt_set_cover's scan by selection size, which
    # stops at its first cover and so builds no table.
    found = _callers("combinations")
    assert sorted(found) == [("oracles.py", "opt_set_cover"), ("unweighted.py", "_table")], found


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


def _functions():
    """(module, qualified name, node) of every function in the package,
    methods named Class.method."""
    found = []
    for module, tree in _trees():
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        found.append((module, name, child))
                    visit(child, name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _is_weight_key(key) -> bool:
    """Whether a sort key reads a row's weight, its third column:
    itemgetter(2), or a lambda subscripting its argument with 2."""
    if isinstance(key, ast.Call):
        return (getattr(key.func, "id", getattr(key.func, "attr", None)) == "itemgetter"
                and [getattr(a, "value", None) for a in key.args] == [2])
    if isinstance(key, ast.Lambda):
        return any(isinstance(node, ast.Subscript)
                   and getattr(node.slice, "value", None) == 2
                   for node in ast.walk(key.body))
    return False


def test_rows_are_sorted_by_weight_in_one_place():
    sorts = [
        (module, name)
        for module, name, func in _functions()
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "sorted"
             or getattr(node.func, "attr", None) == "sort")
        and any(kw.arg == "key" and _is_weight_key(kw.value) for kw in node.keywords)
    ]
    assert sorts == [("unweighted.py", "_lightest_first")], sorts


# The functions whose weight sums decide ties or are reported as weights.
TIE_DECIDING_SUMS = [("model.py", "Cover._build"), ("oracles.py", "_lightest_cover"),
                     ("oracles.py", "opt_mkcc"), ("unweighted.py", "_lightest_candidate")]


def test_tie_deciding_weights_are_not_summed_by_builtin_sum():
    functions = {(module, name): func for module, name, func in _functions()}
    callers = [
        where
        for where in TIE_DECIDING_SUMS
        for node in ast.walk(functions[where])
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
    ]
    assert callers == [], callers
