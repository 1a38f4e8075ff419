"""Every imported name in the package and its tests is read somewhere; the
package imports only at module level, and the tests import csymcomp modules
at module level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "csymcomp").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that are never loaded.

    A name listed in ``__all__`` counts as read, and ``from __future__``
    imports bind nothing.
    """
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(tree) == ["os (line 1)", "pi (line 2)"]


def local_imports(tree: ast.Module, package_only: bool = False) -> list[str]:
    """Imports inside a function body.  With ``package_only``, only those of
    csymcomp modules, relative ones included."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if not package_only or node.level or module.split(".")[0] == "csymcomp":
                    found.add(f"{module} (line {node.lineno})")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if not package_only or alias.name.split(".")[0] == "csymcomp":
                        found.add(f"{alias.name} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_imports_are_module_level(path):
    # the package imports everything at module level; a test may import a
    # third-party module where it needs it
    package_only = path.parent.name == "tests"
    assert local_imports(ast.parse(path.read_text(), str(path)), package_only) == []


def test_scan_sees_a_function_local_import():
    tree = ast.parse(
        "import csymcomp\n"
        "from .hardy import H2Series\n"
        "def f():\n"
        "    import numpy, csymcomp.cli\n"
        "    def g():\n"
        "        from . import backend\n"
        "    from csymcomp.mobius import elliptic\n"
        "    from math import pi\n"
        "    import csv as _csv\n"
    )
    assert local_imports(tree, package_only=True) == [
        ". (line 6)", "csymcomp.cli (line 4)", "csymcomp.mobius (line 7)"]
    assert local_imports(tree) == [
        ". (line 6)", "csv (line 9)", "csymcomp.cli (line 4)", "csymcomp.mobius (line 7)",
        "math (line 8)", "numpy (line 4)"]
