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


PACKAGE = sorted((ROOT / "src" / "csymcomp").glob("*.py"))

#: Public package functions and classes that no package code names, each kept
#: for one reason: an oracle that the benchmark traces by name, or a benchmark
#: entry.  Helpers that only the tests use live in ``tests/helpers.py``.
UNNAMED_ALLOWED = {
    "backend.reciprocal": "oracle",
    "conjfinder.optimize": "benchmark entry",
    "hardy.multiply": "oracle",
}


def unnamed_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each public module-level function or class that no
    module names.

    A name is named where it is loaded, read as an attribute or listed in
    ``__all__``.  Attributes are matched by name alone, so a method call
    ``x.apply`` counts as naming a function ``apply``: the scan can miss a
    dead name, but it never reports a live one.
    """
    named, defined = set(), []
    for module, tree in trees.items():
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named.update(ast.literal_eval(node.value))
    return sorted(d for d in defined if d.split(".")[1] not in named)


def test_every_unnamed_definition_is_allowed_for_a_reason():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    assert unnamed_definitions(trees) == sorted(UNNAMED_ALLOWED)
    assert set(UNNAMED_ALLOWED.values()) <= {"oracle", "benchmark entry"}


def test_scan_sees_an_unnamed_definition():
    trees = {
        "m": ast.parse("def f(): pass\ndef g(): pass\ndef _h(): pass\nclass C: pass\n__all__ = ['C']\n"),
        "n": ast.parse("from .m import f\nx = f()\ny = x.g\ndef k(): k()\n"),
    }
    assert unnamed_definitions(trees) == []
    trees["n"] = ast.parse("def k(): pass\n")
    assert unnamed_definitions(trees) == ["m.f", "m.g", "n.k"]


#: Modules whose predicates read their tolerances from module constants.
CONSTANT_TOLERANCE_MODULES = ("mobius", "csym", "hardy", "conjfinder")


def optional_tolerances(tree: ast.Module) -> list[str]:
    """``name(param)`` for each ``tol`` or ``q_max`` parameter with a default of
    a public module-level function or a public method of a module-level class."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
    found = []
    for name, func in functions:
        if any(part.startswith("_") for part in name.split(".")):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        optional = positional[len(positional) - len(args.defaults):]
        optional += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [f"{name}({a.arg})" for a in optional if a.arg in ("tol", "q_max")]
    return sorted(found)


def test_no_predicate_has_a_settable_tolerance():
    for module in CONSTANT_TOLERANCE_MODULES:
        path = ROOT / "src" / "csymcomp" / f"{module}.py"
        assert optional_tolerances(ast.parse(path.read_text(), str(path))) == [], module


def test_scan_sees_an_optional_tolerance():
    tree = ast.parse(
        "def f(x, tol=1e-10): pass\n"
        "def g(lam, tol): pass\n"
        "def _h(tol=1): pass\n"
        "class C:\n"
        "    def m(self, *, q_max=3): pass\n"
        "    def _n(self, tol=1): pass\n"
    )
    assert optional_tolerances(tree) == ["C.m(q_max)", "f(tol)"]
