"""Module boundaries inside the package."""

import ast
from pathlib import Path

import cgsphere

SRC = Path(cgsphere.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no
    cgsphere module imports one from another."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith(
                    "cgsphere"):
                continue
            found += [f"{path.name}:{node.lineno} {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
