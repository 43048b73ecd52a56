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
