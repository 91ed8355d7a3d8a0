"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "distbalance"


def test_no_assert_statements():
    """``python -O`` strips asserts, so no check in the package may use one."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
