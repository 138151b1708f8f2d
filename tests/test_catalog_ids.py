"""The engines read declared geometry, never a catalog id spelled out.

A string literal that `spaces.builtin` accepts is a catalog id.  The engine
modules must not contain one; `kbeval` may only inside its value tables,
which name the counts they hold.
"""

import ast
from pathlib import Path

import pytest

from relgw.spaces import CatalogError, builtin

SRC = Path(__file__).parent.parent / "src" / "relgw"
CHECKED = {
    "decompose.py": (),
    "vanishing.py": (),
    "strata.py": (),
    "dimension.py": (),
    "kbeval.py": ("seed_table", "standard_identities", "_restriction_table"),
}


def is_catalog_id(text: str) -> bool:
    try:
        builtin(text)
    except CatalogError:
        return False
    return True


def catalog_literals(source: str, exempt=()) -> list[str]:
    """String literals naming a catalog object, outside the functions in
    `exempt`."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            skipped |= {id(n) for n in ast.walk(node)}
    found = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and id(node) not in skipped and is_catalog_id(node.value)]
    return [f"line {line}: {text!r}" for line, text in sorted(found)]


def test_detector_finds_a_catalog_id():
    source = ('"""p2 in prose is fine."""\n'
              'def seeds():\n'
              '    return "p3"\n'
              'def rule(space):\n'
              '    return space.name == "p4blow2" or f"q_of:{space}"\n'
              'TABLE = {"y_of:p2_hyperplane": "pi"}\n')
    assert catalog_literals(source, exempt=("seeds",)) == [
        "line 5: 'p4blow2'", "line 6: 'y_of:p2_hyperplane'"]


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_engines_name_no_catalog_id(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert catalog_literals(source, CHECKED[name]) == []
