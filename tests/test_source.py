"""Checks on the package source itself."""

import ast
from pathlib import Path

import polyplane

SRC = Path(polyplane.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so none may serve as a check
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # every name a module imports at module level is used in it; the
    # package's __init__.py imports only to re-export
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in ((a.asname or a.name).split(".")[0]
                                       for a in node.names)
                          if name not in used]
    assert found == []


def _functions(tree):
    """(function name, node) for every node inside a function, naming the
    innermost function around it."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            yield inner, child
            yield from walk(child, inner)
    yield from walk(tree, None)


CACHED_CONSTRUCTORS = {"crown.py:crown"}


def test_caches_only_on_structure_constructors():
    # the benchmark keeps each op's fastest pass, so a memo keyed by a
    # formula, model or frame would fake a gain; only constructors of fixed
    # structures may cache
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    for sub in ast.walk(dec):
                        decorated[id(sub)] = node.name
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("cache", "lru_cache"):
                found.add(f"{path.name}:{decorated.get(id(node), '<not a decorator>')}")
    assert found <= CACHED_CONSTRUCTORS


def test_one_opcode_dispatch():
    # the evaluator is the only code that branches on opcodes: IFF is
    # compared in kripke._evaluate and nowhere else
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Name) and sub.id == "IFF"
                    or isinstance(sub, ast.Attribute) and sub.attr == "IFF"
                    for operand in [node.left, *node.comparators]
                    for sub in ast.walk(operand)):
                found.add(f"{path.name}:{func}")
    assert found == {"kripke.py:_evaluate"}


def _calls(name):
    """file:function of every call in src to a function of this name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == name
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == name):
                found.add(f"{path.name}:{func}")
    return found


def test_one_walk_site():
    # crown cycles are laid out by one closed walk over edges whose degrees
    # one postman doubling made even; no tile is added mirrored
    assert _calls("_closed_walk") == {"crown.py:reduce_to_crown",
                                      "mosaic.py:extract_model"}
    assert _calls("_even_degrees") == {"crown.py:reduce_to_crown",
                                       "mosaic.py:_try_component"}
    assert _calls("mirror") == set()


def test_one_budget_error_site():
    # searches spend from one StepBudget, whose spend is the only place a
    # budget runs out; the two up-front size guards refuse before any work
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and any(
                    isinstance(sub, ast.Name)
                    and sub.id == "BudgetExceededError"
                    for sub in ast.walk(node.exc)):
                found.add(f"{path.name}:{func}")
    assert found == {"errors.py:spend", "kripke.py:valid_on_frame",
                     "crown.py:crown_sat_bruteforce"}


FORMULA_CLASSES = {"Var", "Bottom", "Not", "Box", "Diamond", "And", "Or",
                   "Implies", "Iff", "_UNARY", "_BINARY"}


def test_formula_analyses_read_the_compiled_program():
    # compile is the one walk that dispatches on node classes; besides it
    # only the tree printer, one-step helpers and LabelSpace.ref (which
    # strips negations off a caller's formula) call isinstance on them
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, node in _functions(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(sub, ast.Name) and sub.id in FORMULA_CLASSES
                            or isinstance(sub, ast.Attribute)
                            and sub.attr in FORMULA_CLASSES
                            for sub in ast.walk(node.args[1]))):
                found.add(f"{path.name}:{func}")
    assert found == {"formula.py:children", "formula.py:compile",
                     "formula.py:negate", "formula.py:pretty", "mosaic.py:ref"}


def _statement_key(node):
    if isinstance(node, ast.Assign):
        return ast.unparse(node.targets[0])
    if isinstance(node, ast.If):
        return "if " + ast.unparse(node.test)
    return ast.unparse(node).splitlines()[0]


IMPORT_TIME_CALLS = {
    "__init__.py:__all__", "cli.py:if __name__ == '__main__'",
    "crown.py:_POINT", "formula.py:TOP", "formula.py:_TOKEN",
    "formula.py:(VAR, BOT, NOT, AND, OR, IMP, IFF, DIA, BOX)",
    "mosaic.py:_SLOTS"}


def test_import_time_calls_are_known():
    # every import of the package runs the module-level statements, and the
    # benchmark's set-up time of every workload includes one import; so a
    # statement outside a function or class that calls anything is a new
    # import-time cost and must be added here on purpose
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if any(isinstance(sub, ast.Call) for sub in ast.walk(node)):
                found.add(f"{path.name}:{_statement_key(node)}")
    assert found == IMPORT_TIME_CALLS
