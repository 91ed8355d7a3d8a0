"""Checks on the package source itself."""

import ast
import re
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


def _exported(tree):
    """The names a module lists in a literal ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(source):
    """Names bound by an import that the module neither reads nor lists in
    ``__all__``, as "name:line"; ``__future__`` imports are directives."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items()
            if name not in read and name not in _exported(tree)]


def test_every_import_is_used():
    """An import that nothing reads is a leftover of a deleted caller."""
    offenders = [f"{path.name} {name}" for path in sorted(PACKAGE.rglob("*.py"))
                 for name in _unused_imports(path.read_text())]
    assert offenders == []


def test_unused_import_scan():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport time\nfrom math import comb, gcd as g\n"
              "from .graph import add_edges\n"
              "def f():\n    import json\n    return time.monotonic() + comb(2, 1)\n"
              "__all__ = ['add_edges']\n")
    assert _unused_imports(source) == ["os:2", "g:4", "json:7"]


def test_all_is_the_imported_names():
    """``__all__`` lists ``__version__`` and exactly the names ``__init__``
    imports, once each, and every one of them resolves."""
    import distbalance

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(distbalance.__all__) == len(set(distbalance.__all__))
    assert set(distbalance.__all__) == imported | {"__version__"}
    assert [name for name in distbalance.__all__ if not hasattr(distbalance, name)] == []


def test_pyproject_version_is_the_package_version():
    """One version: pyproject.toml's (read with a regex, since Python 3.10
    has no tomllib) is ``distbalance.__version__``."""
    import distbalance

    text = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [distbalance.__version__]


def test_closure_names_no_tree_family():
    """Per-family knowledge lives in ``trees.FAMILIES``: ``closure.py``
    names no ``FamilyTag`` member and no tag value but the two without a
    row, OTHER and DOMINANT."""
    from distbalance.trees import FamilyTag

    allowed = {FamilyTag.OTHER, FamilyTag.DOMINANT}
    tree = ast.parse((PACKAGE / "closure.py").read_text())
    members = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "FamilyTag"]
    values = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
              and node.value in {tag.value for tag in FamilyTag}]
    assert members and set(members) <= {tag.name for tag in allowed}
    assert set(values) <= {tag.value for tag in allowed}
