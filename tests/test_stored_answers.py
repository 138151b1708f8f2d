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
"""

import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from relgw import cli, decompose, dimension, vanishing
from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                             InvariantSpec, _sort_key, expected_dimension,
                             raw_dimension)
from relgw.lattice import HomologyClass
from relgw.scenario import parse_scenario
from relgw.spaces import builtin
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
