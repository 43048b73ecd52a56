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
