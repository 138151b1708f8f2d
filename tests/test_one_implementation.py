"""Each concept below has one implementation, and an ast scan fails on a
second copy.

- The search over relabelings of identical items is `strata._relabelings`,
  the one user of `permutations`.
- The end degrees of a bundle class are `RuledSetup.end_degrees`; outside
  the catalog only `vanishing.decide` reads a section class, the zero
  section of a ruled pair.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "relgw"
# name -> (module, top-level definition or None for the whole module)
ALLOWED = {
    "permutations": {("strata.py", "_relabelings")},
    "dzero_class": {("spaces.py", None), ("vanishing.py", "decide")},
    "dinf_class": {("spaces.py", None)},
}


def references(source: str, names) -> list[tuple[str, str | None, int]]:
    """(name, enclosing top-level definition or None, line) of every use of
    one of `names` as a variable, an attribute or a renamed import."""
    found = []
    for top in ast.parse(source).body:
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 else None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and node.asname:
                name = node.name
            else:
                continue
            if name in names:
                found.append((node.lineno, node.col_offset, name, owner))
    return [(name, owner, line) for line, _, name, owner in sorted(found)]


def misplaced(module: str, source: str) -> list[str]:
    return [f"{module}:{line}: {name} in {owner or 'module scope'}"
            for name, owner, line in references(source, ALLOWED)
            if (module, None) not in ALLOWED[name]
            and (module, owner) not in ALLOWED[name]]


def test_detector_finds_second_copies():
    source = ('"""permutations and dinf_class in prose are fine."""\n'
              'from itertools import permutations as perms\n'
              'def _relabelings(labels):\n'
              '    return permutations(labels)\n'
              'def other(q):\n'
              '    return itertools.permutations(q), q.dinf_class\n'
              'def decide(meta):\n'
              '    return meta.dzero_class\n')
    assert misplaced("strata.py", source) == [
        "strata.py:2: permutations in module scope",
        "strata.py:6: permutations in other",
        "strata.py:6: dinf_class in other",
        "strata.py:8: dzero_class in decide"]
    assert misplaced("vanishing.py", source) == [
        "vanishing.py:2: permutations in module scope",
        "vanishing.py:4: permutations in _relabelings",
        "vanishing.py:6: permutations in other",
        "vanishing.py:6: dinf_class in other"]
    assert misplaced("spaces.py", source)[-1] == \
        "spaces.py:6: permutations in other"


def test_each_concept_has_one_implementation():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += misplaced(path.name, path.read_text(encoding="utf-8"))
    assert found == []
