"""Checks on the library's source text itself."""

import ast
from pathlib import Path

import satkit

SOURCES = sorted(Path(satkit.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> set:
    """Names a module imports and never reads. A name listed in the
    module's ``__all__`` counts as read; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return imported - read


def test_the_scan_finds_an_unused_import():
    assert unused_imports("from . import autodiff as ad\nfrom .x import y\ny()\n") == {"ad"}
    assert unused_imports("import os.path\nos.sep\n") == set()
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == set()
    assert unused_imports("from __future__ import annotations\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 10
    found = {p.name: sorted(names) for p in SOURCES
             if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}
