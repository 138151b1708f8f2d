"""Every name a source module imports is used in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "relgw").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads and does not export
    through `__all__`; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return [f"line {line}: {name}"
            for line, name in sorted((ln, nm) for nm, ln in imported.items())
            if name not in used and name not in exported]


def test_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from .a import b, c as d\n"
              "__all__ = ['d']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == ["line 2: osp", "line 3: b"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
