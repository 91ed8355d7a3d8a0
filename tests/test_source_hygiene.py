"""Checks on the package source itself."""

import ast
import subprocess
import sys
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


_DEFERRED = ("concurrent", "multiprocessing", "threading")


def _import_time_nodes(node):
    """The statements run when the module is imported: function bodies are
    skipped, class bodies and top-level if/try blocks are not."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_no_import_time_concurrency_modules():
    """concurrent.futures, multiprocessing and threading cost tens of
    milliseconds to import, which every command would pay at start-up; a
    function that needs one imports it in its body."""
    offenders = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _import_time_nodes(ast.parse(path.read_text(), filename=str(path)))
        for name in _imported_modules(node)
        if name.split(".")[0] in _DEFERRED
    ]
    assert offenders == []


def test_import_scan_sees_module_level_imports_only():
    source = ("import threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "if True:\n    import multiprocessing.pool\n"
              "class A:\n    import threading\n"
              "def f():\n    import multiprocessing\n")
    found = [name for node in _import_time_nodes(ast.parse(source))
             for name in _imported_modules(node)]
    assert found == ["threading", "concurrent.futures", "multiprocessing.pool",
                     "threading"]


def test_cli_start_imports_no_dataclasses_or_inspect():
    """Every one-shot command pays for the modules the CLI imports;
    ``dataclasses`` brings ``inspect``, ``ast``, ``dis`` and ``tokenize``.
    The records are NamedTuples, so a fresh interpreter loads neither."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import distbalance.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
