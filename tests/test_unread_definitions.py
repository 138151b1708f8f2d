"""Every function and class defined in `src/relgw` is named somewhere in
`src/relgw` or `perfbench`, and an ast scan fails on one that is not.

A use is a variable, an attribute, an imported name or a string that is an
identifier (the benchmark tracer names what it wraps by string).  A method
or property is read only through an attribute or an identifier string: a
bare name of the same spelling is some other variable, not the method.  A
string in an `__all__` assignment is an export, not a use: it lists a name
for importers and reads nothing.  `tests/` does not count: a definition
only tests read is dead weight in the program.
Dunders are exempt, and so are the `section_*` handlers the scenario
parser dispatches to by building their names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "relgw"
PERFBENCH = ROOT / "perfbench"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def definitions(module: str, source: str) -> list[tuple[str, int, str]]:
    """(name, line, module) of every function and class, the name of a
    method or property written `.name`."""
    tree = ast.parse(source)
    methods = {id(item) for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, _FUNCS)}
    return [("." + node.name if id(node) in methods else node.name,
             node.lineno, module)
            for node in ast.walk(tree) if isinstance(node, _DEFS)]


def _exports(tree) -> set[int]:
    """ids of the nodes inside the values assigned to `__all__`."""
    return {id(inner) for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and node.value is not None
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in (node.targets if isinstance(node, ast.Assign)
                              else [node.target]))
            for inner in ast.walk(node.value)}


def names_used(source: str) -> set[str]:
    """Every name the source reads as a variable or an import, and as
    `.name` and `name` every one it reads as an attribute or an identifier
    string outside `__all__`."""
    used = set()
    tree = ast.parse(source)
    exported = _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            used |= {node.value, "." + node.value}
    return used


def exempt(name: str) -> bool:
    name = name.lstrip(".")
    return (name.startswith("__") and name.endswith("__")) \
        or name.startswith("section_")


def unread(defined, used) -> list[str]:
    return [f"{module}:{line}: {name}"
            for name, line, module in sorted(defined, key=lambda d: (d[2], d[1]))
            if name not in used and not exempt(name)]


def test_detector_finds_unread_definitions():
    source = ('"""never_called in prose does not count."""\n'
              '__all__ = ["never_called", "Box"]\n'
              'from .x import imported\n'
              'def never_called():\n'
              '    return imported\n'
              'class Box:\n'
              '    def __repr__(self):\n'
              '        return self.shown()\n'
              '    def shown(self):\n'
              '        return "by_string"\n'
              '    @property\n'
              '    def unread_property(self):\n'
              '        def helper():\n'
              '            return helper\n'
              '        return Box\n'
              '    @property\n'
              '    def relative(self):\n'
              '        return True\n'
              'def by_string():\n'
              '    relative = by_string\n'
              '    return relative\n'
              'def section_space(args):\n'
              '    pass\n')
    defined = definitions("m.py", source)
    # a local variable named like a property does not read it
    assert unread(defined, names_used(source)) == [
        "m.py:4: never_called", "m.py:12: .unread_property",
        "m.py:17: .relative"]
    # a use in another file counts, an attribute and an import alike
    other = ("from relgw.m import never_called\nBox().unread_property\n"
             "getattr(box, 'relative')\n")
    assert unread(defined, names_used(source) | names_used(other)) == []


def test_every_definition_is_read():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        defined += definitions(path.name, source)
        used |= names_used(source)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= names_used(path.read_text(encoding="utf-8"))
    assert unread(defined, used) == []
