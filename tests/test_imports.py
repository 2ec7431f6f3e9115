"""Every module in src/, tests/ and scripts/ uses each name it imports."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """Names bound by an import statement that nothing in the module reads.

    A name listed in the module's __all__ counts as read: a package
    re-exports its submodules that way.
    """
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os, sys\nimport a.b as c\nprint(sys)\n"
    assert unused_imports(source) == ["c", "os"]
    assert unused_imports("from . import x, y\n__all__ = ['x']\n") == ["y"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    files = sorted(p for d in ("src", "tests", "scripts")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {path: names for path, names in unused.items() if names} == {}
