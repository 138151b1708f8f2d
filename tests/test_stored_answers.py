"""`raw_dimension` and `decide` keep their answer on the spec they read, and
a spec is canonical from construction.

Each of the two stores its result on the spec instance, outside the
dataclass fields, the first time it is asked, and a later call on the same
instance reads it back.  A stored answer must equal a fresh one on an equal
spec built anew, must not show in equality, hashing, repr or the fields,
and must not follow a spec through `dataclasses.replace`.  A `DefinedZero`
is never stored.  A spec sorts its insertions into key order and builds its
key when it is built: one built from its insertions out of order must equal
one built from them in order, field for field, with the same key, hash and
repr.
The last tests count, for one bracket, how often each body runs and how
many classes a parse builds, so a later change cannot quietly undo the
stores or the generator table.

A `LevelComponent` makes the facts `strata.stratum_key` reads when it is
built, and a `StratumType` keeps its component count the first time it
is asked.  Each must equal a fresh computation from the fields, must not
show in equality, hashing, repr or the fields, and must be built again by
`dataclasses.replace`.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from relgw import cli, decompose, dimension, strata, vanishing
from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                             InvariantSpec, _sort_key, expected_dimension,
                             raw_dimension)
from relgw.lattice import HomologyClass
from relgw.scenario import parse_scenario
from relgw.spaces import builtin
from relgw.strata import (Contact, LevelComponent, StratumType,
                          enumerate_strata, total_genus, validate)
from relgw.vanishing import NEGATIVE_INTERSECTION, decide
from test_shipped_outputs import BRACKETS, bracket_text

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def answer(ask, spec):
    """What `ask(spec)` returns, or the type and text of what it raises."""
    try:
        return ask(spec)
    except (DefinedZero, InvariantError) as e:
        return type(e), str(e)


def anew(spec):
    return InvariantSpec(spec.target, spec.genus, spec.beta, spec.absolutes,
                         spec.relatives)


def assert_stored_answers_hold(spec):
    first = answer(raw_dimension, spec), answer(decide, spec)
    again = answer(raw_dimension, spec), answer(decide, spec)
    fresh = anew(spec)
    assert again == first
    assert first == (answer(raw_dimension, fresh), answer(decide, fresh))
    assert fresh == spec and hash(fresh) == hash(spec)
    assert repr(fresh) == repr(spec)


def quartic_components():
    """The component specs the quartic ledger's enumeration builds, with
    the expected dimension its table kept for each."""
    text = (SCENARIOS / "quartic_difference.gw").read_text(encoding="utf-8")
    spec = parse_scenario(text).invariants["main"]
    table = decompose._ComponentTable(
        builtin("fibersum_of:p4blow2_hyperplane"))
    decompose._enumerate(table, spec, None)
    return [(entry[0], entry[1]) for entry in table.entries.values()]


def test_quartic_components_keep_fresh_answers():
    components = quartic_components()
    assert Counter(spec.target.name for spec, _ in components) == {
        "p4blow2_hyperplane": 100, "y_of:p4blow2_hyperplane": 93}
    for spec, kept in components:
        assert kept == expected_dimension(anew(spec))
        assert_stored_answers_hold(spec)


def test_stored_answers_are_not_fields():
    assert [f.name for f in dataclasses.fields(InvariantSpec)] == [
        "target", "genus", "beta", "absolutes", "relatives"]
    p2 = builtin("p2")
    spec = InvariantSpec(p2, 0, p2.gen("lambda"),
                         (Insertion(p2.point), Insertion(p2.point)))
    before = repr(spec), hash(spec)
    assert raw_dimension(spec) == 4 and not decide(spec).is_zero
    assert (repr(spec), hash(spec)) == before
    assert spec == anew(spec)


def test_replace_carries_no_stored_answer():
    p2 = builtin("p2")
    spec = InvariantSpec(p2, 0, p2.gen("lambda"),
                         (Insertion(p2.point), Insertion(p2.point)))
    assert raw_dimension(spec) == 4 and not decide(spec).is_zero
    torus = dataclasses.replace(spec, genus=1)
    assert raw_dimension(torus) == 5 and decide(torus).is_zero
    same = dataclasses.replace(spec)
    assert same is not spec
    assert_stored_answers_hold(same)
    assert raw_dimension(same) == 4 and not decide(same).is_zero


def test_a_negative_contact_spec_raises_on_every_call():
    pair = builtin("s2xs2_antidiag")
    X = pair.ambient
    spec = InvariantSpec(pair, 0, X.gen("a1"), (Insertion(X.point),), ())
    for _ in range(3):
        with pytest.raises(DefinedZero):
            raw_dimension(spec)
        with pytest.raises(DefinedZero):
            expected_dimension(spec)
        assert decide(spec).reason == NEGATIVE_INTERSECTION


# -- the canonical order of a spec's insertions ------------------------------


def fields(spec):
    return tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))


def assert_order_is_canonical(spec):
    """The spec built from its insertions out of order (reversed) equals
    the spec built from them in key order: same fields, key, hash and
    repr, with the insertions kept in that order.  Both keep the key of
    `spec`."""
    a, r = spec.absolutes[::-1], spec.relatives[::-1]
    ordered = (tuple(sorted(a, key=_sort_key)), tuple(sorted(r, key=_sort_key)))
    turned = InvariantSpec(spec.target, spec.genus, spec.beta, a, r)
    built = InvariantSpec(spec.target, spec.genus, spec.beta, *ordered)
    assert (built.absolutes, built.relatives) == ordered
    assert fields(turned) == fields(built) and turned == built
    assert turned.key() == built.key() == spec.key()
    assert hash(turned) == hash(built)
    assert repr(turned) == repr(built)


def test_bracket_specs_are_canonical_in_any_order():
    assert len(BRACKETS) == 1870
    for row in BRACKETS:
        spec = parse_scenario(bracket_text(row)).invariants["b"]
        assert_order_is_canonical(spec)


def test_quartic_components_are_canonical_in_any_order():
    components = quartic_components()
    assert len(components) == 193
    for spec, _ in components:
        assert_order_is_canonical(spec)


def test_a_spec_written_out_of_order_is_built_in_key_order():
    text = ("[space p3]\n[invariant x]\nspace = p3\ngenus = 0\n"
            "class = lambda\nabs = pi, pt, lambda\n")
    sc = parse_scenario(text)
    spec = sc.invariants["x"]
    assert_order_is_canonical(spec)
    assert [ins.token() for ins in spec.absolutes] == ["pt", "lambda", "pi"]
    assert [ins.token() for ins in sc.written["x"]] == ["pi", "pt", "lambda"]
    assert spec.key() == "space:p3;g=0;b=lambda;abs=pt,lambda,pi"
    assert spec == InvariantSpec(spec.target, 0, spec.beta, sc.written["x"])


# -- call counts ---------------------------------------------------------------

# the fiber of the ruled torus through a point, meeting the section once;
# its key is not in the seed table, so `eval` asks for its verdict
BRACKET = """\
[space t2_ruled]
[divisor t2_ruled_section in t2_ruled]
[invariant b]
pair = t2_ruled_section
genus = 0
class = f
abs = pt
rel = (1,fund)
"""


def test_one_bracket_runs_each_body_once(monkeypatch):
    """`dim`, `vanish` and `eval` each ask the parsed spec its raw
    dimension, and the last two its verdict; each body runs once.  The
    body of `raw_dimension` is counted by its call of
    `check_contact_orders`, that of `decide` by its call of
    `expected_dimension`."""
    sc = parse_scenario(BRACKET)
    spec = sc.invariants["b"]
    runs = Counter()

    def counted(name, ask):
        def wrapper(s):
            if s is spec:
                runs[name] += 1
            return ask(s)
        return wrapper

    monkeypatch.setattr(dimension, "check_contact_orders", counted(
        "raw_dimension", dimension.check_contact_orders))
    monkeypatch.setattr(vanishing, "expected_dimension", counted(
        "decide", vanishing.expected_dimension))
    reports = [cli.run(command, sc, ("b",))
               for command in ("dim", "vanish", "eval")]
    assert [status for _, status in reports] == [0, 0, 0]
    assert "value 1\n" in reports[2][0]
    assert runs == {"raw_dimension": 1, "decide": 1}


def test_parsing_generator_names_builds_no_class(monkeypatch):
    text = ("[space p3]\n[invariant x]\nspace = p3\ngenus = 0\n"
            "class = lambda\nabs = pt, pt, lambda\n")
    parse_scenario(text)  # builds the catalog entry
    built = []
    post = HomologyClass.__post_init__

    def counted(self):
        built.append(self)
        post(self)

    monkeypatch.setattr(HomologyClass, "__post_init__", counted)
    spec = parse_scenario(text).invariants["x"]
    assert built == []
    assert spec.key() == "space:p3;g=0;b=lambda;abs=pt,pt,lambda"


# -- the key facts of a level component ---------------------------------------


def fresh_facts(comp):
    """`_data`, `_text` and `_runs` of a component, computed from its
    fields: slot labels sorted, the key text made from them, and each
    label's nodes in listed order."""
    def label(c):
        return -c.mult, "" if c.constraint is None else c.constraint.encode()

    def text(slots):
        return ",".join(f"{-m}" + (f":{code}" if code else "")
                        for m, code in slots)

    def runs(contacts):
        return tuple((lab, tuple(c.node for c in contacts if label(c) == lab))
                     for lab in sorted({label(c) for c in contacts}))

    body = comp.cls.encode() if comp.level == 0 else \
        f"{comp.alpha.encode()}+{comp.fiber}f"
    zero = tuple(sorted(map(label, comp.zero)))
    inf = tuple(sorted(map(label, comp.inf)))
    return ((comp.level, comp.genus, body, zero, inf),
            f"L{comp.level}:g{comp.genus}:{body}:z[{text(zero)}]"
            f":i[{text(inf)}]",
            (runs(comp.zero), runs(comp.inf)))


def stored_facts(comp):
    return comp._data, comp._text, comp._runs


def assert_stored_facts_hold(comp):
    assert stored_facts(comp) == fresh_facts(comp)
    again = dataclasses.replace(comp)
    assert again is not comp and again == comp
    assert hash(again) == hash(comp) and repr(again) == repr(comp)
    assert stored_facts(again) == fresh_facts(comp)


def test_parsed_components_keep_fresh_facts():
    text = (SCENARIOS / "conic_tangent.gw").read_text(encoding="utf-8")
    comps = [comp for s in parse_scenario(text).strata.values()
             for comp in s.components]
    assert len(comps) == 15
    for comp in comps:
        assert_stored_facts_hold(comp)


def test_torus_components_keep_fresh_facts(monkeypatch):
    """Every component the torus cubic builds at depth 2, kept or not."""
    built = []
    post = LevelComponent.__post_init__

    def recorded(self):
        post(self)
        built.append(self)

    monkeypatch.setattr(LevelComponent, "__post_init__", recorded)
    p2h = builtin("p2_hyperplane")
    relative = [Insertion(p2h.divisor.gen("fund"), order=o) for o in (2, 1)]
    spec = InvariantSpec(p2h, 1, p2h.ambient.gen("lambda", 3), (), relative)
    assert len(enumerate_strata(spec, 2)) == 216
    monkeypatch.undo()
    assert len(built) == 243
    assert {c.level for c in built} == {0, 1, 2}
    for comp in built:
        assert_stored_facts_hold(comp)


def test_facts_sort_the_ends_they_read():
    """Ends listed out of slot order: the slot labels and the key text
    are sorted, and each run keeps its nodes in listed order."""
    d = builtin("p2_hyperplane").divisor
    comp = LevelComponent(1, 0, alpha=d.zero(), fiber=3,
                          zero=(Contact("b1", 1), Contact("b2", 2)),
                          inf=(Contact("c1", 1, d.point), Contact("c2", 2),
                               Contact("c3", 1), Contact("c4", 1)))
    assert_stored_facts_hold(comp)
    assert comp._text == "L1:g0:0+3f:z[2,1]:i[2,1,1,1:pt]"
    assert comp._runs[1] == (((-2, ""), ("c2",)), ((-1, ""), ("c3", "c4")),
                             ((-1, "pt"), ("c1",)))


def test_stored_facts_are_not_fields():
    assert [f.name for f in dataclasses.fields(LevelComponent)] == [
        "level", "genus", "cls", "alpha", "fiber", "zero", "inf"]
    assert [f.name for f in dataclasses.fields(StratumType)] == [
        "pair", "components", "matchings", "insertions"]
    pair = builtin("p2_hyperplane")
    x, d = pair.ambient, pair.divisor
    conic = LevelComponent(0, 0, cls=x.gen("lambda", 2),
                           inf=(Contact("a", 2),))
    bubble = LevelComponent(1, 0, alpha=d.zero(), fiber=2,
                            zero=(Contact("b", 2),),
                            inf=(Contact("c1", 1), Contact("c2", 1, d.point)))
    # a component whose stored facts were overwritten still equals,
    # hashes and prints as one built anew
    marked = dataclasses.replace(conic)
    object.__setattr__(marked, "_text", "moved")
    assert marked == conic and hash(marked) == hash(conic)
    assert repr(marked) == repr(conic)
    # replace builds the facts of the new fields
    wider = dataclasses.replace(bubble, fiber=3)
    assert stored_facts(wider) == fresh_facts(wider) != fresh_facts(bubble)
    # a stratum keeps its component count once counted
    s = StratumType(pair, (conic, bubble), (("a", "b"),))
    before = repr(s), hash(s)
    assert total_genus(s) == 0 and validate(s) == []
    assert s.__dict__["_parts"] == 1
    assert (repr(s), hash(s)) == before
    assert s == StratumType(pair, (conic, bubble), (("a", "b"),))
    apart = dataclasses.replace(s, matchings=())
    assert "_parts" not in apart.__dict__
    assert strata._graph_components(apart) == 2
