"""The number of settable values in `src/relgw` is pinned, and an ast scan
counts them.

A settable value is a defaulted parameter (keyword-only ones and those of
lambdas included), a `**kwargs` catch-all, or a defaulted field of a
dataclass: each is a value a caller may set or leave alone, so each is a
path to keep working.  The pin only goes down.  A change that adds one
raises `PIN` and says why in CHANGES.md.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "relgw"

PIN = 64

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(source: str) -> list[str]:
    """One entry per settable value, named after its owner."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCS):
            owner = getattr(node, "name", "<lambda>")
            args = node.args
            out += [f"{owner}={d.lineno}" for d in args.defaults]
            out += [f"{owner}:{a.arg}" for a, d in
                    zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if args.kwarg:
                out.append(f"{owner}:**{args.kwarg.arg}")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None]
    return out


def test_counter_finds_every_kind():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *rest, c, d=2, **kw):\n"
              "    return lambda x=0: x\n"
              "@dataclass(frozen=True)\n"
              "class Box:\n"
              "    size: int\n"
              "    label: str = ''\n"
              "    items: list = field(default_factory=list)\n"
              "class Plain:\n"
              "    count: int = 0\n")
    assert sorted(settable_values(source)) == sorted([
        "f=2", "f:d", "f:**kw", "<lambda>=3", "Box.label", "Box.items"])


def test_settable_values_are_pinned():
    found = [f"{path.name}: {entry}" for path in sorted(SRC.glob("*.py"))
             for entry in settable_values(path.read_text(encoding="utf-8"))]
    assert len(found) <= PIN, \
        f"{len(found)} settable values, pinned at {PIN}:\n" + "\n".join(found)
