"""Each concept below has one implementation, and an ast scan fails on a
second copy.

- The search over relabelings of identical items is `strata._relabelings`,
  the one user of `permutations`.
- The end degrees of a bundle class are `RuledSetup.end_degrees`; outside
  the catalog only `vanishing.decide` reads a section class, the zero
  section of a ruled pair.
- Multisets of an exact sum, partitions and edge options included, come
  from the one exact-sum search, the memoized table `strata._ExactSums`,
  on integer vectors (empty ones where no class sum is asked for); each
  caller reads a table, and no wrapper stands between.  Every function in
  `decompose.py` and `strata.py` that calls itself is pinned, so a second
  recursive search shows up in this file.  In `decompose.py` and
  `strata.py` a started sum `sum(items, start)`, which builds a class sum,
  appears only in the ledger total; a side's class is summed on integer
  vectors.
- No function, class or assigned name (dunders aside) is defined at the
  top level of two modules: a second definition under a taken name is a
  second implementation that the unread-definition scan cannot tell from
  the first.
- A count is read off a product table (`point_coefficient`) only by the
  evaluator's rules, so the fiber count is one rule, `kbeval._rule_fiber`.
  The splitting ledger takes from `kbeval` only the `Evaluator`, the
  `KnowledgeBase` and `seed_table`: every factor of a term goes through
  `Evaluator.evaluate`.
- The kinds of count a rule serves are declared once, by the tuples
  that list it, `kbeval._SPACE_RULES` and `kbeval._PAIR_RULES`: no
  `_rule_*` function in `kbeval.py` compares `pair` or `spec.pair` with
  `None` to tell the kinds apart.
- A linear solve goes through `lattice.combination`: only it and
  `kbeval.solve_unknowns` call the one elimination, `lattice.row_reduce`.
- The canonical order of a spec's insertions is applied only when the
  spec is built: `_sort_key` is read only by `InvariantSpec`, so no other
  module sorts insertions into key order a second time.
- Each effective cone is declared once, as the branches of the one
  `spaces.EffectiveModel`: no class in `src/relgw` subclasses it.
- The memos that outlive a call are pinned: every `functools.cache`,
  `lru_cache` and `cached_property` in `src/relgw` is listed in `MEMOS`.
  A per-ledger or per-enumeration table lives in a local object instead;
  a process-wide memo makes repeated in-process passes look faster
  without helping a `relgw` process, which computes one thing once.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "relgw"
# name -> (module, top-level definition or None for the whole module)
ALLOWED = {
    "permutations": {("strata.py", "_relabelings")},
    "dzero_class": {("spaces.py", None), ("vanishing.py", "decide")},
    "dinf_class": {("spaces.py", None)},
    "point_coefficient": {("kbeval.py", "_rule_degree_zero"),
                          ("kbeval.py", "_rule_fiber"),
                          ("kbeval.py", "_rule_section_double_cover")},
    "row_reduce": {("lattice.py", "combination"),
                   ("kbeval.py", "solve_unknowns")},
    "_sort_key": {("dimension.py", "InvariantSpec")},
}
# what the splitting ledger may import from the evaluator's module
DECOMPOSE_FROM_KBEVAL = {"Evaluator", "KnowledgeBase", "Value", "seed_table"}


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


# module -> top-level definitions allowed a started sum
STARTED_SUMS = {"decompose.py": {"Ledger"}, "strata.py": set()}


def started_sums(module: str, source: str) -> list[str]:
    """module:line: owner of every `sum(items, start)` call, with the start
    given by position or keyword, outside the definitions allowed one."""
    found = []
    for top in ast.parse(source).body:
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 else None)
        if owner in STARTED_SUMS[module]:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and (len(node.args) > 1 or node.keywords)):
                found.append((node.lineno,
                              f"{module}:{node.lineno}: sum(items, start) "
                              f"in {owner or 'module scope'}"))
    return [text for _, text in sorted(found)]


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


def test_detector_finds_a_second_fiber_count():
    source = ('def _rule_fiber(ev, spec):\n'
              '    return spec.table.point_coefficient([])\n'
              'def _evaluate_term(setup, term):\n'
              '    return setup.products.point_coefficient([])\n')
    assert misplaced("kbeval.py", source) == [
        "kbeval.py:4: point_coefficient in _evaluate_term"]
    assert misplaced("decompose.py", source) == [
        "decompose.py:2: point_coefficient in _rule_fiber",
        "decompose.py:4: point_coefficient in _evaluate_term"]


def test_detector_finds_a_second_linear_solve():
    source = ('from .lattice import row_reduce as reduce_rows\n'
              'def combination(classes, target):\n'
              '    return row_reduce(rows)\n'
              'def _solve_preimage(pair, target):\n'
              '    return lattice.row_reduce(rows)\n')
    assert misplaced("lattice.py", source) == [
        "lattice.py:1: row_reduce in module scope",
        "lattice.py:5: row_reduce in _solve_preimage"]
    assert misplaced("strata.py", source) == [
        "strata.py:1: row_reduce in module scope",
        "strata.py:3: row_reduce in combination",
        "strata.py:5: row_reduce in _solve_preimage"]


def test_detector_finds_a_second_canonical_sort():
    source = ('from .dimension import _sort_key as by_key\n'
              'class InvariantSpec:\n'
              '    def __post_init__(self):\n'
              '        a = sorted(self.absolutes, key=_sort_key)\n'
              'def _rule_push_tails(ev, spec):\n'
              '    return sorted(spec.absolutes, key=dimension._sort_key)\n')
    assert misplaced("dimension.py", source) == [
        "dimension.py:1: _sort_key in module scope",
        "dimension.py:6: _sort_key in _rule_push_tails"]
    assert misplaced("kbeval.py", source) == [
        "kbeval.py:1: _sort_key in module scope",
        "kbeval.py:4: _sort_key in InvariantSpec",
        "kbeval.py:6: _sort_key in _rule_push_tails"]


def subclasses(source: str, base: str) -> list[str]:
    """Names of the classes, at any depth, with `base` among their bases,
    named plainly or as a module attribute."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any((b.id if isinstance(b, ast.Name) else
                     getattr(b, "attr", None)) == base for b in node.bases)]


def test_subclass_detector():
    source = ('class _LineModel(EffectiveModel):\n    pass\n'
              'class Other(spaces.EffectiveModel, Mixin):\n    pass\n'
              'class Plain(Model):\n    pass\n'
              'def build():\n'
              '    class Local(EffectiveModel):\n        pass\n')
    assert subclasses(source, "EffectiveModel") == [
        "_LineModel", "Other", "Local"]


def test_effective_cones_are_declared_not_subclassed():
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in subclasses(path.read_text(encoding="utf-8"),
                                    "EffectiveModel")]
    assert found == []


def kbeval_imports(source: str) -> list[str]:
    """Sorted names a module takes from `kbeval`: each name of a
    `from .kbeval import …`, at any depth, and the module itself for an
    import of the whole module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "kbeval":
                found += [alias.name for alias in node.names]
            else:
                found += [alias.name for alias in node.names
                          if alias.name == "kbeval"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[-1] == "kbeval"]
    return sorted(found)


def test_kbeval_import_detector():
    source = ("from .kbeval import Evaluator, Value\n"
              "from relgw.kbeval import fiber_count as count\n"
              "from . import kbeval, lattice\n"
              "import relgw.kbeval\n"
              "from .lattice import cls\n"
              "def later():\n"
              "    from .kbeval import Unknown\n")
    assert kbeval_imports(source) == [
        "Evaluator", "Unknown", "Value", "fiber_count", "kbeval",
        "relgw.kbeval"]
    assert kbeval_imports("from .kbeval import seed_table\n") == [
        "seed_table"]


def test_ledger_factors_go_through_the_evaluator():
    source = (SRC / "decompose.py").read_text(encoding="utf-8")
    assert set(kbeval_imports(source)) <= DECOMPOSE_FROM_KBEVAL


def _is_pair(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "pair")
            or (isinstance(node, ast.Attribute) and node.attr == "pair"
                and isinstance(node.value, ast.Name)
                and node.value.id == "spec"))


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def kind_tests(source: str) -> list[str]:
    """line: rule of every comparison of `pair` or `spec.pair` with `None`
    inside a `_rule_*` function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef)
                and node.name.startswith("_rule_")):
            continue
        for cmp in ast.walk(node):
            if not isinstance(cmp, ast.Compare):
                continue
            operands = [cmp.left] + cmp.comparators
            if any(map(_is_pair, operands)) and any(map(_is_none, operands)):
                found.append((cmp.lineno, f"{cmp.lineno}: {node.name}"))
    return [text for _, text in sorted(found)]


def test_kind_test_detector():
    source = ('def _rule_fiber(ev, spec):\n'
              '    pair = spec.pair\n'
              '    if pair is None or pair.ruled is None:\n'
              '        return None\n'
              'def _rule_blowup(ev, spec):\n'
              '    if spec.pair is not None or spec.genus != 0:\n'
              '        return None\n'
              '    return None == spec.pair\n'
              'def _rule_push_tails(ev, spec):\n'
              '    pair = spec.pair\n'
              '    return pair.ruled is None or pair.push is None\n'
              'def _compute(self, spec):\n'
              '    return spec.pair is None\n')
    assert kind_tests(source) == [
        "3: _rule_fiber", "6: _rule_blowup", "8: _rule_blowup"]


def test_rules_leave_the_kind_to_their_tuples():
    source = (SRC / "kbeval.py").read_text(encoding="utf-8")
    assert kind_tests(source) == []


def test_each_concept_has_one_implementation():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += misplaced(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_started_sum_detector():
    source = ('def _side_sum(space, classes):\n'
              '    return sum(classes, space.zero())\n'
              'def _exact_decompositions(parts, target):\n'
              '    return [ms for ms in parts if sum(ms, zero) == target]\n'
              'class Ledger:\n'
              '    total = sum(rows, start=0)\n'
              'def plain(xs):\n'
              '    return sum(xs), sum(x.genus for x in xs)\n'
              'ZERO = sum((), start=0)\n')
    assert started_sums("decompose.py", source) == [
        "decompose.py:2: sum(items, start) in _side_sum",
        "decompose.py:4: sum(items, start) in _exact_decompositions",
        "decompose.py:9: sum(items, start) in module scope"]
    assert started_sums("strata.py", source) == [
        "strata.py:2: sum(items, start) in _side_sum",
        "strata.py:4: sum(items, start) in _exact_decompositions",
        "strata.py:6: sum(items, start) in Ledger",
        "strata.py:9: sum(items, start) in module scope"]


def test_multisets_are_filtered_without_class_sums():
    found = []
    for module in sorted(STARTED_SUMS):
        found += started_sums(module,
                              (SRC / module).read_text(encoding="utf-8"))
    assert found == []


# module -> every function that calls itself, as `enclosing.name`
RECURSIVE = {
    "decompose.py": ["_skeletons.rec"],
    "strata.py": ["_ExactSums._reach", "_compositions.rec",
                  "_build_levels.rec", "outer_assignments.rec",
                  "_order_subsets.rec", "_orbit_matchings.rec"],
}


def self_calls(source: str) -> list[str]:
    """`enclosing.name` (`name` at the top level) of every function that
    calls itself, by its name or as `self.<name>`, anywhere in its body,
    in source order; the enclosing scope is the innermost function or
    class around it."""
    found = []

    def called(func) -> str | None:
        if isinstance(func, ast.Name):
            return func.id
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            return func.attr
        return None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Call) and called(n.func) == child.name
                       for n in ast.walk(child)):
                    found.append(f"{scope}.{child.name}" if scope
                                 else child.name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_self_call_detector():
    source = ('def walk(n):\n'
              '    return [] if n == 0 else walk(n - 1)\n'
              'def outer(xs):\n'
              '    def rec(i):\n'
              '        if i < len(xs):\n'
              '            rec(i + 1)\n'
              '    return rec(0)\n'
              'class Table:\n'
              '    def _reach(self, left):\n'
              '        return self._reach(left - 1) if left else []\n'
              '    def __call__(self, left):\n'
              '        return self._reach(left)\n'
              '    def add(self, other):\n'
              '        return other.add(self)\n'
              'def once(xs):\n'
              '    return sorted(xs, key=once_key)\n'
              'def fill(i):\n'
              '    def assign(j):\n'
              '        return fill(j) if j else assign(j + 1)\n'
              '    return assign(i)\n')
    assert self_calls(source) == [
        "walk", "outer.rec", "Table._reach", "fill", "fill.assign"]


def test_recursive_searches_are_pinned():
    found = {module: self_calls((SRC / module).read_text(encoding="utf-8"))
             for module in RECURSIVE}
    assert found == RECURSIVE


def bound_names(target) -> list[str]:
    """Plain names an assignment target binds; `obj.attr = …` and
    `obj[k] = …` bind none."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in bound_names(elt)]
    return []


def top_level_names(top) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        return [name for t in top.targets for name in bound_names(t)]
    if isinstance(top, (ast.AnnAssign, ast.AugAssign)):
        return bound_names(top.target)
    return []


def shared_definitions(sources) -> dict[str, list[str]]:
    """name -> modules, for every function, class or assigned name defined
    at the top level of more than one of `sources` (module -> source
    text); dunders such as `__all__` are exempt."""
    owners = defaultdict(list)
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            for name in top_level_names(top):
                if not (name.startswith("__") and name.endswith("__")):
                    owners[name].append(module)
    return {name: mods for name, mods in owners.items() if len(mods) > 1}


def test_shared_definition_detector():
    sources = {"strata.py": "def total_genus(s):\n    return 0\n"
                            "class Ledger:\n    pass\n"
                            "_PLACES = ('X', 'Y')\n"
                            "__all__ = ['total_genus']\n",
               "decompose.py": "def total_genus(t):\n    return 1\n"
                               "Ledger.rows = None\n"
                               "_ORDER, _PLACES = (), ()\n"
                               "__all__ = []\n"
                               "def _helper():\n"
                               "    def total_genus():\n        pass\n"
                               "    _ORDER = 1\n",
               "scenario.py": "_ORDER: tuple = ()\n"}
    assert shared_definitions(sources) == {
        "total_genus": ["decompose.py", "strata.py"],
        "_PLACES": ["decompose.py", "strata.py"],
        "_ORDER": ["decompose.py", "scenario.py"]}


def test_no_name_is_defined_in_two_modules():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert shared_definitions(sources) == {}


# module -> every memo that outlives a call, as `Class.name` or `name`
MEMOS = {
    "decompose.py": ["_edge_options"],
    "kbeval.py": ["SplitIdentity.sides", "SplitIdentity.side_keys",
                  "standard_identities", "_restriction_table"],
    "spaces.py": ["Space.point", "Space.fundamental", "Space.duals"],
    "strata.py": ["_partitions"],
}
_MEMO_NAMES = {"cache", "lru_cache", "cached_property"}


def memos(source: str) -> list[str]:
    """`Class.name` (`name` at the top level) of every function decorated
    with `cache`, `lru_cache` or `cached_property`, named plainly, as a
    `functools` attribute or called with arguments, and `line:call` of
    every other call of one of them, in source order."""
    found = []

    def memo_name(node) -> str | None:
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        return name if name in _MEMO_NAMES else None

    decorators = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in child.decorator_list:
                    decorators.add(id(dec))
                    if isinstance(dec, ast.Call):
                        decorators.add(id(dec.func))
                    if memo_name(dec):
                        found.append((child.lineno, f"{scope}.{child.name}"
                                      if scope else child.name))
            elif (isinstance(child, ast.Call) and id(child) not in decorators
                  and memo_name(child.func)):
                found.append((child.lineno,
                              f"{child.lineno}:{memo_name(child.func)}"))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                else scope)

    visit(ast.parse(source), None)
    return [name for _, name in sorted(found)]


def test_memo_detector():
    source = ('import functools\n'
              'from functools import cache, lru_cache\n'
              '@cache\n'
              'def table():\n'
              '    return {}\n'
              'class Space:\n'
              '    @functools.cached_property\n'
              '    def point(self):\n'
              '        return 0\n'
              '    @lru_cache(maxsize=None)\n'
              '    def duals(self):\n'
              '        return {}\n'
              '    @property\n'
              '    def name(self):\n'
              '        return self.cache\n'
              'def outer():\n'
              '    @functools.lru_cache\n'
              '    def inner(k):\n'
              '        return k\n'
              '    return inner\n'
              'keep = functools.cache(lambda k: k)\n')
    assert memos(source) == ["table", "Space.point", "Space.duals",
                             "outer.inner", "21:cache"]


def test_memos_that_outlive_a_call_are_pinned():
    found = {path.name: memos(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items()
            if names} == MEMOS
