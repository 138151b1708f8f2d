"""Knowledge base, rewrite rules, and the splitting solver."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from relgw import cli, kbeval, vanishing
from relgw.dimension import Insertion, InvariantSpec, _sort_key
from relgw.kbeval import (
    EvalError,
    Evaluator,
    KnowledgeBase,
    LinearEquation,
    SplitIdentity,
    Unknown,
    Value,
    _grouping_sum,
    seed_table,
    solve_unknowns,
    splitting_identity,
    standard_identities,
)
from relgw.lattice import cls, gen
from relgw.scenario import Scenario, ScenarioError, parse_scenario
from relgw.spaces import CatalogError, builtin
from relgw.vanishing import decide
from test_shipped_outputs import BRACKETS, bracket_text

P3 = builtin("p3")
PT, LAM, PI = P3.point, P3.gen("lambda"), P3.gen("pi")


def plain(*classes):
    return tuple(Insertion(c) for c in classes)


def absolute(space, beta, *classes, genus=0):
    return InvariantSpec(space, genus, beta, plain(*classes), ())


def value_of(result):
    assert isinstance(result, Value), result
    return result.value


def seeds_without(key):
    """The seed table less one entry."""
    kb = KnowledgeBase()
    for e in seed_table().entries():
        if e.key != key:
            kb.add(e.key, e.value, e.provenance)
    return kb


FOUR_LINES = absolute(P3, LAM, LAM, LAM, LAM, LAM)
CONICS = absolute(P3, LAM.scale(2), PT, PT, LAM, LAM, LAM, LAM)


# -- knowledge base ----------------------------------------------------------


def loaded(text):
    kb = KnowledgeBase()
    kb.load(text)
    return kb


def test_seed_table_round_trips():
    kb = seed_table()
    assert len(kb) == 11
    text = kb.dump()
    again = loaded(text)
    assert again.dump() == text
    # sorted by key, one tab-separated line each
    keys = [line.split("\t")[0] for line in text.splitlines()]
    assert keys == sorted(keys)


SEED_DUMP = """\
pair:p4blow2_hyperplane;g=0;b=eps1;abs=sig1,sig1;rel=(1,eps1)\t1/1\tseed(exceptional-plane)
pair:p4blow2_hyperplane;g=0;b=eps2;abs=sig2,sig2;rel=(1,eps2)\t1/1\tseed(exceptional-plane)
pair:t2_ruled_section;g=1;b=f+s;abs=pt;rel=\t1/1\tseed(torus-sections)
pair:y_of:t2_ruled_section;g=1;b=f+fund_0;abs=;rel=(1,pt)\t1/1\tseed(torus-sections)
pair:y_of:t2_ruled_section;g=1;b=f+fund_0;abs=pt;rel=(1,fund)\t2/1\tseed(torus-sections)
space:p3;g=0;b=lambda;abs=lambda,lambda,lambda,lambda\t2/1\tseed(four-lines)
space:p3;g=0;b=lambda;abs=pt,lambda,lambda\t1/1\tseed(point-two-lines)
space:p3;g=0;b=lambda;abs=pt,pt,pi\t1/1\tseed(two-points-plane)
space:p3blow2;g=0;b=2*lambda-2*eps1-2*eps2;abs=\t1/8\tseed(double-cover)
space:s2xs2;g=0;b=a1;abs=pt\t1/1\tseed(product-ruling)
space:t2_ruled;g=1;b=f+s;abs=pt\t2/1\tseed(torus-sections)
"""


def test_seed_tables_are_independent():
    # the entries are built once; each base holds its own copy of them
    first = seed_table()
    extra = absolute(P3, LAM, PT, PT).key()
    first.add(extra, Fraction(5), "test")
    assert value_of(Evaluator(first).evaluate(CONICS)) == 4
    assert first.get(CONICS.key()).provenance.startswith("derived(splitting")
    second = seed_table()
    assert len(second) == 11
    assert extra not in second and CONICS.key() not in second
    assert second.dump() == SEED_DUMP


def test_later_seed_tables_are_independent():
    # bases after the first come from a copy of the seeded entries; what a
    # solver or a loaded file writes into one never reaches a later one
    first = seed_table().entries()
    extra = absolute(P3, LAM, PT, PT).key()
    for _ in range(2):
        kb = seed_table()
        assert value_of(Evaluator(kb).evaluate(CONICS)) == 4
        kb.load(f"{extra}\t5/1\tuser\n")
        assert CONICS.key() in kb and extra in kb
        later = seed_table()
        assert later.entries() == first and later.dump() == SEED_DUMP
        assert extra not in later and CONICS.key() not in later
    seeded = "space:s2xs2;g=0;b=a1;abs=pt"
    with pytest.raises(ScenarioError) as err:
        seed_table().load(f"{seeded}\t2/1\tuser\n")
    assert (err.value.line, err.value.col) == (1, len(seeded) + 2)
    assert err.value.message == f"conflicting values for {seeded}: 1 vs 2"
    assert seed_table().get(seeded).value == 1


def test_kb_rejects_conflicting_values():
    kb = KnowledgeBase()
    kb.add("k", Fraction(1), "seed(a)")
    assert not kb.add("k", Fraction(1), "seed(b)")  # same value: kept once
    with pytest.raises(EvalError):
        kb.add("k", Fraction(2), "seed(c)")


def test_kb_merge():
    """A text form loads into a base that already holds entries: a value
    it already holds is kept once, and a conflicting one is an error at
    its line's value field."""
    x, y = absolute(P3, LAM, PT, PT).key(), FOUR_LINES.key()
    a = KnowledgeBase()
    a.add(x, Fraction(1), "seed(a)")
    a.load(f"{x}\t1/1\tseed(a)\n{y}\t2/1\tseed(b)\n")
    assert len(a) == 2
    assert a.get(x).provenance == "seed(a)" and a.get(y).value == 2
    with pytest.raises(ScenarioError) as err:
        a.load(f"{x}\t3/1\tseed(c)\n")
    assert (err.value.line, err.value.col) == (1, len(x) + 2)
    assert err.value.message == f"conflicting values for {x}: 1 vs 3"


# line -> (column, message) of the positioned error
MALFORMED_LINES = {
    "only-two\tfields": (9, "expected 3 tab fields"),
    "key\tnot-a-fraction\tseed(x)": (5, "bad value 'not-a-fraction'"),
    "key\t1.5\tseed(x)": (5, "bad value '1.5'"),
    # no tab at all: the end of the line
    "space:p3;g=0;b=lambda;abs=pt,pt": (32, "expected 3 tab fields"),
    "a\tb\tc\td": (2, "expected 3 tab fields"),
    "space:p3;g=0;b=lambda;abs=pt,pt\t1/0\tuser": (33, "bad value '1/0'"),
}


@pytest.mark.parametrize("line", MALFORMED_LINES)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(ScenarioError) as err:
        loaded(f"# header\n{line}\n")
    assert (err.value.line, err.value.col, err.value.message) == \
        (2, *MALFORMED_LINES[line])


def test_parse_positions_a_conflicting_value_at_its_value_field():
    key = absolute(P3, LAM, PT, PT).key()
    with pytest.raises(ScenarioError) as err:
        loaded(f"{key}\t1/1\tuser\n{key}\t2/1\tuser\n")
    assert (err.value.line, err.value.col) == (2, len(key) + 2)
    assert err.value.message.startswith(f"conflicting values for {key}")


def test_parse_skips_blanks_and_comments():
    key = absolute(P3, LAM, PT, PT).key()
    kb = loaded(f"# header\n\n{key}\t2/1\tseed(x)\n")
    assert kb.get(key).value == 2


@pytest.mark.parametrize("text,message", [
    ("space:p3;g=0;b=lambda;abs=lambda,pt,lambda",
     "line 2, col 27: key space:p3;g=0;b=lambda;abs=lambda,pt,lambda is not "
     "canonical; write space:p3;g=0;b=lambda;abs=pt,lambda,lambda"),
    ("space:p3;g=0;b=2*lambda-lambda;abs=pt,pt",
     "line 2, col 16: key space:p3;g=0;b=2*lambda-lambda;abs=pt,pt is not "
     "canonical"),
    ("k", "line 2, col 1: keys look like"),
    ("space:p9;g=0;b=lambda;abs=", "line 2, col 7: unknown space id 'p9'"),
    ("space:p3;g=0;b=lambda;abs=pt,pt;rel=", "line 2, col 1: pair keys"),
    ("pair:p3;g=0;b=lambda;abs=;rel=", "line 2, col 6: 'p3' is not a pair"),
    ("space:p3;g=0;b=lambda;abs=pt,foo",
     "line 2, col 30: unknown generator 'foo' in basis p3"),
    ("space:p2;g=0;b=lambda;abs=tau1:pt",
     "line 2, col 27: unknown generator 'tau1' in basis p2"),
    # a spec-level error points at the entry at fault
    ("space:p2;g=0;b=lambda;abs=pb:pt,pt",
     "line 2, col 27: pulled-back constraint pb:pt needs a pair whose "
     "ambient is ruled"),
    ("pair:p2_hyperplane;g=0;b=lambda;abs=pt,pb:pt;rel=(1,pt)",
     "line 2, col 40: pulled-back constraint pb:pt needs a pair whose "
     "ambient is ruled"),
    # a key longer than its canonical form differs where the form ends
    ("space:p3;g=0;b=lambda;abs=pt,pt ",
     "line 2, col 32: key space:p3;g=0;b=lambda;abs=pt,pt  is not "
     "canonical"),
    # an empty list entry is an error of its own, as in a scenario file
    ("space:p3;g=0;b=lambda;abs=pt,pt,",
     "line 2, col 33: empty list entry"),
    # and so is an unclosed parenthesis, at its column
    ("pair:p2_hyperplane;g=0;b=lambda;abs=;rel=(1,pt",
     "line 2, col 42: unbalanced parenthesis"),
], ids=["order", "class-text", "no-key", "unknown-id", "space-with-rel",
        "space-as-pair", "unknown-generator", "psi-power",
        "pulled-back-on-a-space", "pulled-back-on-a-flat-pair",
        "trailing-space", "trailing-comma", "unclosed-paren"])
def test_parse_rejects_keys_that_are_not_canonical(text, message):
    with pytest.raises(ScenarioError) as err:
        loaded(f"# header\n{text}\t1/1\tuser\n")
    assert str(err.value).startswith(message)


def test_parse_reads_back_every_kind_of_insertion():
    yp = builtin("y_of:t2_ruled_section").infinity_pair
    D = yp.divisor
    relative = InvariantSpec(yp, 1, yp.ambient.gen("f"),
                             (Insertion(D.point, pulled_back=True),),
                             (Insertion(D.point, order=1),))
    assert "abs=pb:pt;" in relative.key()
    primary = absolute(P3, LAM.scale(2), PT, LAM)
    # both counts are zero by their verdict, so 0/1 is their one value
    text = "".join(f"{spec.key()}\t0/1\tuser\n" for spec in (relative, primary))
    assert loaded(text).dump() == text


def test_the_verdict_outranks_a_held_value():
    # a base that holds a nonzero value for a structurally zero count,
    # written through `add`, which checks no verdict: the value is never read
    spec = absolute(P3, LAM, PT, PT, PT)
    kb = seed_table()
    kb.add(spec.key(), Fraction(5), "user")
    assert Evaluator(kb).evaluate(spec) == Value(
        Fraction(0), ("vanishing: dimension-mismatch",))


# -- single rules ------------------------------------------------------------


@pytest.mark.parametrize("classes,expected", [
    ((PI, PI, PI), 1),
    ((P3.fundamental, LAM, PI), 1),
    ((P3.fundamental, P3.fundamental, PT), 1),
    ((P3.fundamental, LAM, PI, PI), 0),  # more than three points
])
def test_degree_zero_brackets(classes, expected):
    ev = Evaluator(seed_table())
    spec = absolute(P3, P3.zero(), *classes)
    assert value_of(ev.evaluate(spec)) == expected


def test_fundamental_insertion_vanishes_in_positive_degree():
    ev = Evaluator(seed_table())
    spec = absolute(P3, LAM, PT, PT, LAM, P3.fundamental)
    r = ev.evaluate(spec)
    assert value_of(r) == 0
    assert any("fundamental" in t for t in r.trace)


def test_zero_child_short_circuits():
    # divisor removal leads to a fundamental insertion, so the product is 0
    ev = Evaluator(seed_table())
    spec = absolute(P3, LAM, PT, PT, LAM, PI, P3.fundamental)
    r = ev.evaluate(spec)
    assert value_of(r) == 0


def test_divisor_axiom_chain():
    ev = Evaluator(seed_table())
    spec = absolute(P3, LAM, PT, LAM, LAM, PI, PI)
    # two plane conditions drop off with factor lambda.pi = 1 each
    assert value_of(ev.evaluate(spec)) == 1


def test_divisor_axiom_is_confluent():
    # remove the two divisor-type insertions in either order
    ev = Evaluator(seed_table())
    both = absolute(P3, LAM, LAM, LAM, LAM, LAM, PI, PI.scale(2))
    after_single = absolute(P3, LAM, LAM, LAM, LAM, LAM, PI.scale(2))
    after_double = absolute(P3, LAM, LAM, LAM, LAM, LAM, PI)
    assert value_of(ev.evaluate(both)) == 4
    assert 1 * value_of(ev.evaluate(after_single)) == 4
    assert 2 * value_of(ev.evaluate(after_double)) == 4


def test_isolated_locus_rule():
    p4b = builtin("p4blow2")
    line = cls(p4b.basis, {"lambda": 1, "eps1": -1, "eps2": -1})
    ev = Evaluator(seed_table())
    r = ev.evaluate(absolute(p4b, line, p4b.gen("h")))
    assert value_of(r) == 0
    assert any("isolated" in t for t in r.trace)


def test_exceptional_tail_rule():
    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    spec = InvariantSpec(pair, 0, X.gen("lambda", 2),
                         plain(X.point, X.point, X.point),
                         (Insertion(gen(D.basis, "eps1"), order=1),
                          Insertion(D.fundamental, order=1)))
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 0
    assert any("exceptional-tail" in t for t in r.trace)


def test_fiber_rule_replays_its_seeds():
    pair = builtin("t2_ruled_section")
    T, TD = pair.ambient, pair.divisor
    through_point = InvariantSpec(pair, 0, T.gen("f"), plain(T.point),
                                  (Insertion(TD.fundamental, order=1),))
    at_point = InvariantSpec(pair, 0, T.gen("f"), (),
                             (Insertion(TD.point, order=1),))
    ev = Evaluator(seed_table())
    for spec in (through_point, at_point):
        r = ev.evaluate(spec)
        assert value_of(r) == 1
        assert r.trace == ("fiber-count",)


def test_distinct_fibers_never_meet():
    pair = builtin("t2_ruled_section")
    T, TD = pair.ambient, pair.divisor
    spec = InvariantSpec(pair, 0, T.gen("f"),
                         (Insertion(TD.point, pulled_back=True),
                          Insertion(TD.point, pulled_back=True)),
                         (Insertion(TD.point, order=1),))
    assert value_of(Evaluator(seed_table()).evaluate(spec)) == 0


def test_pulled_back_fundamental_class_is_the_fundamental_class():
    # pi^-1(D) is the whole bundle, so the bracket vanishes as one with the
    # bundle's fundamental class would
    pair = builtin("y_of:p3_hyperplane").infinity_pair
    Y, D = pair.ambient, pair.divisor
    spec = InvariantSpec(pair, 0, Y.gen("f"),
                         (Insertion(D.point, pulled_back=True),
                          Insertion(D.fundamental, pulled_back=True)),
                         (Insertion(D.point, order=1),))
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 0
    assert r.trace == ("fundamental-class insertion", "factor 0")


@pytest.mark.parametrize("pulled, plain_names", [
    (("fund",), ()),
    (("pt", "fund"), ()),
    (("pt",), ("fund",)),
    (("fund",), ("f",)),
    (("fund",), ("s",)),
], ids=["fund", "pt-fund", "pt-plain-fund", "fund-f", "fund-s"])
def test_degree_zero_brackets_with_pulled_back_classes(pulled, plain_names):
    # the tail rule moves pulled-back classes to their preimages, and a
    # genus-0 degree-zero bracket with fewer than three points vanishes
    pair = builtin("t2_ruled_section")
    T, TD = pair.ambient, pair.divisor
    absolutes = tuple(Insertion(TD.gen(h), pulled_back=True) for h in pulled)
    absolutes += tuple(Insertion(T.gen(h)) for h in plain_names)
    spec = InvariantSpec(pair, 0, cls(T.basis, {}), absolutes, ())
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 0
    assert r.trace == ("drop-fundamental-tails",
                       "degree-zero: not a three-point bracket", "factor 0")


def eq5_spec(rho):
    y = builtin("y_of:p4blow2_hyperplane")
    D = y.base.divisor
    alpha = cls(D.basis, {"lambda": 1, "eps1": -1, "eps2": -1})
    beta = y.class_of(alpha.scale(2), 1)
    return InvariantSpec(y.infinity_pair, 0, beta, (),
                         (Insertion(rho, order=1),))


def test_section_double_cover_values():
    D = builtin("p4blow2_hyperplane").divisor
    ev = Evaluator(seed_table())
    assert value_of(ev.evaluate(eq5_spec(gen(D.basis, "pi")))) == Fraction(1, 4)
    assert value_of(ev.evaluate(eq5_spec(gen(D.basis, "eps1s")))) == Fraction(-1, 4)
    # linearity in the contact constraint
    mixed = gen(D.basis, "pi") + gen(D.basis, "eps1s")
    assert value_of(ev.evaluate(eq5_spec(mixed))) == 0


def test_section_double_cover_needs_its_seed():
    D = builtin("p4blow2_hyperplane").divisor
    kb = seeds_without(InvariantSpec(
        builtin("p3blow2"), 0,
        cls(D.basis, {"lambda": 2, "eps1": -2, "eps2": -2}), (), ()).key())
    r = Evaluator(kb).evaluate(eq5_spec(gen(D.basis, "pi")))
    assert isinstance(r, Unknown)


def test_push_tails_inward_chain():
    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    spec = InvariantSpec(pair, 0, X.gen("lambda"),
                         plain(X.point, X.gen("pi"), X.gen("pi")),
                         (Insertion(gen(D.basis, "pi"), order=1),))
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 1
    assert any("push-tails" in t for t in r.trace)


def test_blowup_comparison_adds_point_conditions():
    p4b = builtin("p4blow2")
    line = cls(p4b.basis, {"lambda": 1, "eps1": -1})
    spec = absolute(p4b, line, p4b.gen("pi"), p4b.gen("pi"), p4b.gen("pi"))
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 1
    assert any("blowup-comparison: +1" in t for t in r.trace)


def test_blowup_comparison_is_genus_zero():
    # expected dimension 0 in genus 1; a genus-0 P4 child would have 1
    p4b = builtin("p4blow2")
    spec = absolute(p4b, p4b.gen("lambda"), p4b.point, p4b.gen("pi"),
                    p4b.gen("pi"), genus=1)
    r = Evaluator(seed_table()).evaluate(spec)
    assert not isinstance(r, Value)
    assert not any("blowup-comparison" in b for b in r.blockers)


def test_blowup_comparison_on_the_plane_and_the_three_fold():
    kb = seed_table()
    p2 = builtin("p2")
    kb.add(absolute(p2, p2.gen("lambda"), p2.point, p2.point).key(),
           Fraction(1), "seed(line-through-two-points)")
    ev = Evaluator(kb)
    p2b = builtin("p2blow1")
    line = p2b.cls({"lambda": 1, "eps": -1})  # lines through the blown-up point
    r = ev.evaluate(absolute(p2b, line, p2b.point))
    assert value_of(r) == 1
    assert "blowup-comparison: +1 point conditions" in r.trace
    p3b = builtin("p3blow2")
    line = p3b.cls({"lambda": 1, "eps2": -1})
    r = ev.evaluate(absolute(p3b, line, p3b.gen("lambda"), p3b.gen("lambda")))
    assert value_of(r) == 1  # the seeded P3 count <pt, lambda, lambda>
    assert "blowup-comparison: +1 point conditions" in r.trace


def test_relative_conic_bracket_evaluates_to_eight():
    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    spec = InvariantSpec(pair, 0, X.gen("lambda", 2),
                         plain(X.point, X.point, X.gen("pi"), X.gen("pi"),
                               X.gen("pi")),
                         (Insertion(gen(D.basis, "lambda"), order=1),
                          Insertion(D.fundamental, order=1)))
    r = Evaluator(seed_table()).evaluate(spec)
    assert value_of(r) == 8
    joined = " ".join(r.trace)
    for step in ("push-tails-inward", "divisor-axiom", "blowup-comparison",
                 "hyperplane-restriction", "splitting"):
        assert step in joined


# -- splitting identities ----------------------------------------------------


def test_conics_identity_group_sums():
    si = standard_identities()[0]
    ev = Evaluator(seed_table())
    a, b, c, d = si.four
    constA, coeffsA, missA = _grouping_sum(ev, si, (a, b), (c, d))
    constB, coeffsB, missB = _grouping_sum(ev, si, (a, c), (b, d))
    assert (missA, missB) == ([], [])
    assert constA == 2 and coeffsA == {CONICS.key(): 1}
    assert constB == 6 and coeffsB == {}


def test_conics_identity_equation():
    si = standard_identities()[0]
    eq, missing = splitting_identity(si, Evaluator(seed_table()))
    assert missing == ()
    assert eq.coeffs == ((CONICS.key(), Fraction(1)),)
    assert eq.rhs == 4


def test_solver_derives_conic_count():
    kb = seed_table()
    r = Evaluator(kb).evaluate(CONICS)
    assert value_of(r) == 4
    assert kb.get(CONICS.key()).provenance.startswith("derived(splitting")


def test_solver_rederives_four_line_seed():
    # independent check: drop the seed and recover it from the line identity
    kb = seeds_without(FOUR_LINES.key())
    assert FOUR_LINES.key() not in kb
    ev = Evaluator(kb)
    assert value_of(ev.evaluate(FOUR_LINES)) == 2
    assert kb.get(FOUR_LINES.key()).provenance.startswith("derived(splitting")
    # entries memoized while the system was open must not stay stale
    six = absolute(P3, LAM, LAM, LAM, LAM, LAM, PI, PI)
    assert value_of(ev.evaluate(six)) == 2


def counted_solves(monkeypatch) -> list[str]:
    """The names of the identities the solver runs, in call order."""
    calls = []
    real = kbeval.splitting_identity

    def counted(si, ev):
        calls.append(si.name)
        return real(si, ev)

    monkeypatch.setattr(kbeval, "splitting_identity", counted)
    return calls


def counted_evaluations(monkeypatch) -> list[str]:
    """The keys `Evaluator.evaluate` is called on, in call order."""
    calls = []
    real = Evaluator.evaluate

    def counted(ev, spec):
        calls.append(spec.key())
        return real(ev, spec)

    monkeypatch.setattr(Evaluator, "evaluate", counted)
    return calls


def test_conic_bracket_evaluates_only_live_sides(monkeypatch):
    # the conic count and the sides of the 8 live terms of
    # conics-two-points, with what they reduce to; the walk over all 96
    # terms made 197 calls
    calls = counted_evaluations(monkeypatch)
    assert value_of(Evaluator(seed_table()).evaluate(CONICS)) == 4
    assert len(calls) <= 21


@pytest.mark.parametrize("spec", [
    absolute(P3, LAM.scale(2), PT, PT, PT, PT, genus=1),
    absolute(P3, LAM.scale(4), *[PT] * 8),
], ids=["genus-one", "quartic-curves"])
def test_solver_skips_targets_no_identity_contains(monkeypatch, spec):
    calls = counted_solves(monkeypatch)
    r = Evaluator(seed_table()).evaluate(spec)
    assert calls == []
    assert r == Unknown((f"no-rule: {spec.key()}",))


def test_solver_runs_only_the_identities_holding_the_target(monkeypatch):
    calls = counted_solves(monkeypatch)
    r = Evaluator(seed_table()).evaluate(CONICS)
    assert calls == ["conics-two-points"]
    assert r == Value(Fraction(4), (
        f"kb: {CONICS.key()} [derived(splitting:conics-two-points)]",))


class _Recorder:
    """Stands in for an evaluator: records each side a boundary sum asks
    for, by key, and knows none of them."""

    _solver_on = True

    def __init__(self):
        self.sides = {}

    def evaluate(self, spec):
        self.sides[spec.key()] = spec
        return Unknown(())


def every_term(si):
    """(weight, side1, side2) of every term of both groupings, live or
    not."""
    return [term for left, right in si.groupings()
            for term in kbeval._sides(si, left, right)]


def every_side(si):
    """Key -> spec of every side of every term of both
    groupings, live or not."""
    return {side.key(): side for _, *pair in every_term(si) for side in pair}


def live_and_vanishing(si):
    """(keys of the sides of the live terms, keys of the zero sides)."""
    live = {side.key() for terms in si.sides.values()
            for _, *pair in terms for side in pair}
    return live, {side.key() for _, *pair in every_term(si) for side in pair
                  if decide(side).is_zero}


@pytest.mark.parametrize("si", standard_identities(), ids=lambda si: si.name)
def test_side_keys_are_the_sides_the_sums_evaluate(si):
    rec = _Recorder()
    eq, missing = splitting_identity(si, rec)
    assert eq is None and missing
    live, vanishing = live_and_vanishing(si)
    # the sums evaluate exactly the sides of the live terms
    assert set(rec.sides) == live
    assert si.side_keys == live
    # no live side is zero, and today every side of a term that is not
    # live is zero or a side of a live term, so the two are every side of
    # the full walk
    assert not live & vanishing
    assert live | vanishing == set(every_side(si))


def test_identities_share_only_sides_the_rules_determine():
    # the solver runs only the identities holding its target; that loses
    # nothing while no unknown side links one identity to another
    sides = {}
    for si in standard_identities():
        sides.update(every_side(si))
    ev = Evaluator(seed_table())
    ev._solver_on = False
    for a, b in itertools.combinations(standard_identities(), 2):
        for key in a.side_keys & b.side_keys:
            assert isinstance(ev.evaluate(sides[key]), Value), key


# -- grouped sides against the per-subset walk -------------------------------

P2 = builtin("p2")


def p2_identity(d):
    """The P2 identity of degree d: lines, lines, point, point and 3d - 4
    more points."""
    lam = P2.gen("lambda")
    return SplitIdentity(P2, lam.scale(d), (lam, lam, P2.point, P2.point),
                         (P2.point,) * (3 * d - 4), f"p2-degree-{d}")


def subset_sides(si, left, right):
    """The walk `_sides` replaced: one (side1, side2) pair per subset of the
    labeled extras, per splitting and dual."""
    space, extras = si.space, si.extras
    duals = [(space.gen(e), d) for e, d in space.duals.items()]
    out = []
    for b1, b2 in kbeval._splittings(space, si.beta):
        for r in range(len(extras) + 1):
            for picked in itertools.combinations(range(len(extras)), r):
                s_left = [extras[i] for i in picked]
                s_right = [c for i, c in enumerate(extras) if i not in picked]
                for e, edual in duals:
                    out.append((
                        absolute(space, b1, left[0], left[1], *s_left, e),
                        absolute(space, b2, edual, right[0], right[1],
                                 *s_right)))
    return out


def subset_sum(ev, si, left, right):
    """The boundary sum over `subset_sides`, each pair counted once."""
    ev._solver_on = False
    const, coeffs, missing = Fraction(0), {}, []
    for side1, side2 in subset_sides(si, left, right):
        v1, v2 = ev.evaluate(side1), ev.evaluate(side2)
        if isinstance(v1, Value) and isinstance(v2, Value):
            const += v1.value * v2.value
        elif isinstance(v1, Value) or isinstance(v2, Value):
            known, other = (v1, side2) if isinstance(v1, Value) else (v2, side1)
            if known.value != 0:
                k = other.key()
                coeffs[k] = coeffs.get(k, Fraction(0)) + known.value
        else:
            missing.append(f"{side1.key()} x {side2.key()}")
    return const, coeffs, missing


def subset_equation(ev, si):
    """What `splitting_identity` gives, from the two `subset_sum`s, with
    the terms that have two unknown factors sorted, and an inconsistent
    identity as its error text."""
    (const_a, coeff_a, miss_a), (const_b, coeff_b, miss_b) = (
        subset_sum(ev, si, left, right) for left, right in si.groupings())
    if miss_a or miss_b:
        return None, tuple(sorted([*set(miss_a), *set(miss_b)]))
    coeffs = dict(coeff_a)
    for k, v in coeff_b.items():
        coeffs[k] = coeffs.get(k, Fraction(0)) - v
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    rhs = const_b - const_a
    if not coeffs:
        if rhs != 0:
            return f"identity {si.name} is inconsistent: 0 = {rhs}"
        return None, ()
    return LinearEquation(tuple(sorted(coeffs.items())), rhs, si.name), ()


def solved(si, ev):
    """`splitting_identity` in the form `subset_equation` gives."""
    try:
        eq, missing = splitting_identity(si, ev)
    except EvalError as err:
        return str(err)
    return eq, tuple(sorted(missing))


ORACLE_IDENTITIES = standard_identities() + tuple(p2_identity(d)
                                                  for d in (2, 3, 4))
LINES_P2 = absolute(P2, P2.gen("lambda"), P2.point, P2.point)


def held_term(si):
    """Both sides of the first term of the first grouping that is not
    live.  Every such term here has two zero sides; had the base
    outranked the verdict, values held for both would add the term's
    weight to the sum."""
    left, right = si.groupings()[0]
    live = si.sides[(left, right)]
    _, side1, side2 = next(t for t in kbeval._sides(si, left, right)
                           if t not in live)
    assert decide(side1).is_zero and decide(side2).is_zero
    return side1.key(), side2.key()


def oracle_base(si, kind):
    kb = seed_table()
    if kind == "n1":  # one line through two points: known P2 sides
        kb.add(LINES_P2.key(), Fraction(1), "test")
    elif kind == "held-zero-sides":  # values the verdict outranks
        for key in held_term(si):
            kb.add(key, Fraction(1), "test")
    return kb


@pytest.mark.parametrize("kind", ["seeds", "n1", "held-zero-sides"])
@pytest.mark.parametrize("si", ORACLE_IDENTITIES, ids=lambda si: si.name)
def test_grouped_sums_equal_the_subset_walk(si, kind):
    for left, right in si.groupings():
        const, coeffs, missing = _grouping_sum(
            Evaluator(oracle_base(si, kind)), si, left, right)
        o_const, o_coeffs, o_missing = subset_sum(
            Evaluator(oracle_base(si, kind)), si, left, right)
        assert (const, coeffs) == (o_const, o_coeffs)
        # a term stands for many labeled subsets, and names itself once
        assert len(set(missing)) == len(missing)
        assert sorted(missing) == sorted(set(o_missing))
    assert solved(si, Evaluator(oracle_base(si, kind))) \
        == subset_equation(Evaluator(oracle_base(si, kind)), si)


@pytest.mark.parametrize("si", ORACLE_IDENTITIES, ids=lambda si: si.name)
def test_a_held_zero_side_is_read(si):
    # the evaluator reads a zero side's verdict before its base, so the
    # values held for zero sides leave every grouping sum as it is
    for left, right in si.groupings():
        fresh = _grouping_sum(Evaluator(seed_table()), si, left, right)
        held = _grouping_sum(Evaluator(oracle_base(si, "held-zero-sides")),
                             si, left, right)
        assert held == fresh


@pytest.mark.parametrize("si,live,terms", [
    (standard_identities()[0], 8, 96),
    (standard_identities()[1], 4, 32),
    (p2_identity(2), 6, 54),
    (p2_identity(3), 12, 144),
    (p2_identity(4), 18, 270),
    (p2_identity(5), 24, 432),
    (p2_identity(6), 30, 630),
], ids=["conics-two-points", "lines-four-lines", "p2-d2", "p2-d3", "p2-d4",
        "p2-d5", "p2-d6"])
def test_live_term_counts(si, live, terms):
    # over both groupings: the terms the sums evaluate, of all the terms
    assert sum(len(kept) for kept in si.sides.values()) == live
    assert len(every_term(si)) == terms


@pytest.mark.parametrize("si,grouped,walked,keys", [
    (standard_identities()[0], 48, 96, 10),
    (standard_identities()[1], 16, 16, 6),
    (p2_identity(2), 27, 36, 7),
    (p2_identity(3), 72, 384, 14),
    (p2_identity(4), 135, 3840, 21),
    (p2_identity(5), 216, None, None),
], ids=["conics-two-points", "lines-four-lines", "p2-d2", "p2-d3", "p2-d4",
        "p2-d5"])
def test_grouped_side_counts(si, grouped, walked, keys):
    for left, right in si.groupings():
        terms = kbeval._sides(si, left, right)
        assert len(terms) == grouped
        if walked is not None:
            walk = subset_sides(si, left, right)
            assert len(walk) == walked
            # every labeled distribution is one unit of some term's weight
            assert sum(weight for weight, _, _ in terms) == walked
            assert {side.key() for pair in walk for side in pair} \
                == {side.key() for _, *pair in terms for side in pair}
    if keys is not None:
        assert len(si.side_keys) == keys


# -- keys and the solver path ------------------------------------------------


def test_key_is_built_once_per_spec(monkeypatch):
    builds = []
    real = Insertion.token

    def counted(ins):
        builds.append(ins)
        return real(ins)

    monkeypatch.setattr(Insertion, "token", counted)
    spec = absolute(P3, LAM.scale(2), PT, PT, LAM, LAM, LAM, LAM)
    assert len(builds) == 6  # one token per insertion, at construction
    first = spec.key()
    assert spec.key() is first
    assert len(builds) == 6  # `key()` reads none
    fresh = absolute(P3, LAM.scale(2), PT, PT, LAM, LAM, LAM, LAM)
    assert len(builds) == 12
    assert fresh == spec and hash(fresh) == hash(spec)
    assert repr(fresh) == repr(spec)
    assert fresh.key() == first and len(builds) == 12


def bracket(header, lines):
    return parse_scenario("\n".join(header + ["[invariant b]", "genus = 0"]
                                     + lines) + "\n")


CONIC_KEY = "space:p3;g=0;b=2*lambda;abs=pt,pt,lambda,lambda,lambda,lambda"
SOLVED = f"trace kb: {CONIC_KEY} [derived(splitting:conics-two-points)]"


@pytest.mark.parametrize("header,lines,report", [
    (["[space p3]"], ["space = p3", "class = 2*lambda",
      "abs = pt, pt, lambda, lambda, lambda, lambda"],
     ["invariant b", f"key {CONIC_KEY}", "value 4", SOLVED]),
    (["[space p4]"], ["space = p4", "class = 2*lambda", "abs = pt, pt, lambda, pi, pi, pi"],
     ["invariant b", "key space:p4;g=0;b=2*lambda;abs=pt,pt,lambda,pi,pi,pi",
      "value 4",
      "trace hyperplane-restriction: conics meeting three planes sit in one",
      SOLVED]),
    (["[space p4]", "[divisor p4_hyperplane in p4]"],
     ["pair = p4_hyperplane", "class = 2*lambda",
      "abs = pt, pt, lambda, pi, h3", "rel = (1,pi), (1,pi)"],
     ["invariant b",
      "key pair:p4_hyperplane;g=0;b=2*lambda;abs=pt,pt,lambda,pi,h3;"
      "rel=(1,pi),(1,pi)",
      "value 8", "trace push-tails-inward",
      "trace divisor-axiom: h3 gives factor 2",
      "trace hyperplane-restriction: conics meeting three planes sit in one",
      SOLVED]),
], ids=["p3-conics", "p4-conics", "p4-hyperplane-conics"])
def test_solver_path_eval_reports(monkeypatch, header, lines, report):
    calls = counted_solves(monkeypatch)
    assert cli.run("eval", bracket(header, lines), ("b",)) == (
        "".join(line + "\n" for line in report), 0)
    assert calls == ["conics-two-points"]


def test_solver_leaves_underdetermined_brackets_unknown():
    ev = Evaluator(seed_table())
    r = ev.evaluate(absolute(P3, LAM, PT, PT))
    assert isinstance(r, Unknown)
    assert any("no-rule" in b for b in r.blockers)


def test_cycle_guard_is_not_memoized():
    ev = Evaluator(seed_table())
    key = CONICS.key()
    ev._active.append(key)
    r = ev.evaluate(CONICS)
    assert isinstance(r, Unknown) and any("cycle" in b for b in r.blockers)
    ev._active.pop()
    assert value_of(ev.evaluate(CONICS)) == 4


def test_solve_unknowns():
    one = LinearEquation((("x", Fraction(1)),), Fraction(4), "a")
    assert solve_unknowns([one]) == {"x": Fraction(4)}
    assert solve_unknowns([one, one]) == {"x": Fraction(4)}

    pair_sum = LinearEquation((("x", Fraction(1)), ("y", Fraction(1))),
                              Fraction(6), "b")
    pair_diff = LinearEquation((("x", Fraction(1)), ("y", Fraction(-1))),
                               Fraction(2), "c")
    assert solve_unknowns([pair_sum, pair_diff]) == {"x": Fraction(4),
                                                     "y": Fraction(2)}
    # x + y = 6 alone pins neither; both stay out of the solutions
    assert solve_unknowns([pair_sum]) == {}
    # a determined unknown is solved beside underdetermined ones
    assert solve_unknowns([pair_sum, one]) == {"x": Fraction(4),
                                               "y": Fraction(2)}
    z_free = LinearEquation((("y", Fraction(1)), ("z", Fraction(1))),
                            Fraction(1), "e")
    assert solve_unknowns([one, z_free]) == {"x": Fraction(4)}

    clash = LinearEquation((("x", Fraction(1)),), Fraction(5), "d")
    with pytest.raises(EvalError):
        solve_unknowns([one, clash])


def test_duals_follow_the_intersection_form():
    got = {e: d.encode() for e, d in P3.duals.items()}
    assert got == {"pt": "fund", "lambda": "pi", "pi": "lambda", "fund": "pt"}
    assert builtin("p4blow2").duals["sig1"].encode() == "-sig1"
    with pytest.raises(CatalogError):
        builtin("t2_ruled").duals  # s pairs with both f and itself


# -- seeds -------------------------------------------------------------------


def test_genus_one_section_seeds():
    ev = Evaluator(seed_table())
    T = builtin("t2_ruled")
    section = cls(T.basis, {"s": 1, "f": 1})
    assert value_of(ev.evaluate(absolute(T, section, T.point, genus=1))) == 2
    pair = builtin("t2_ruled_section")
    rel = InvariantSpec(pair, 1, section, plain(T.point), ())
    assert value_of(ev.evaluate(rel)) == 1


def test_normalization_makes_order_irrelevant():
    a = absolute(P3, LAM.scale(2), PT, LAM, PT, LAM, LAM, LAM)
    assert a.key() == CONICS.key()
    assert value_of(Evaluator(seed_table()).evaluate(a)) == 4


def test_derived_entries_replay_from_seeds():
    kb = seed_table()
    ev = Evaluator(kb)
    ev.evaluate(CONICS)
    derived = [e for e in kb.entries() if e.provenance.startswith("derived")]
    fresh = Evaluator(seed_table())
    for entry in derived:
        if entry.key == CONICS.key():
            assert value_of(fresh.evaluate(CONICS)) == entry.value


# -- the work of a link ------------------------------------------------------


def evaluated_brackets():
    """Every reference bracket parsed, with `dim` and `vanish` run on it,
    as the benchmark runs them before `eval`."""
    out = []
    for row in BRACKETS:
        sc = parse_scenario(bracket_text(row))
        cli.run("dim", sc, ("b",))
        cli.run("vanish", sc, ("b",))
        out.append(sc)
    return out


def in_key_order(spec) -> bool:
    return all(tuple(sorted(tuple_, key=_sort_key)) == tuple_
               for tuple_ in (spec.absolutes, spec.relatives))


def count_link_work(monkeypatch) -> Counter:
    """Wrap the evaluator so the returned counter tallies `evaluate`
    calls, hypothesis checks, `Fraction`s and `Verdict`s built, and rule
    children that are not in key order."""
    counts = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(Evaluator, "evaluate",
                        counting("evaluate", Evaluator.evaluate))
    monkeypatch.setattr(kbeval, "check_degeneration_hypothesis", counting(
        "hypothesis", kbeval.check_degeneration_hypothesis))
    monkeypatch.setattr(vanishing.Verdict, "__init__",
                        counting("Verdict", vanishing.Verdict.__init__))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        counting("Fraction", Fraction.__new__)))

    def checked(rule):
        def run(ev, spec):
            out = rule(ev, spec)
            if out is not None:
                counts["unsorted children"] += sum(
                    not in_key_order(child) for child in out[1])
            return out
        return run

    for kind in ("_SPACE_RULES", "_PAIR_RULES"):
        monkeypatch.setattr(kbeval, kind, tuple(
            checked(rule) for rule in getattr(kbeval, kind)))
    return counts


def test_a_bracket_pass_does_bounded_link_work(monkeypatch):
    """`eval` over the 1,870 reference brackets after `dim` and `vanish`:
    the links stay 3,445; every rule child arrives in key order; at most
    16 `Verdict`s are built, the zero verdicts of rule children; and at
    most 2,100 `Fraction`s are built, since a link builds at most the one
    of its value.  A first pass builds the tables that live for the
    process."""
    for sc in evaluated_brackets():
        cli.run("eval", sc, ("b",))
    brackets = evaluated_brackets()
    counts = count_link_work(monkeypatch)
    for sc in brackets:
        assert cli.run("eval", sc, ("b",))[1] == 0
    assert counts["evaluate"] == 3445
    assert counts["unsorted children"] == 0
    assert counts["Verdict"] <= 16
    assert counts["Fraction"] <= 2100


def test_a_blown_up_exceptional_chain_is_pinned(monkeypatch):
    """push-tails-inward, six divisor-axiom links and the blowup comparison
    on `p2blow1_exc`: 9 links and 1 hypothesis check."""
    [row] = [row for row in BRACKETS if row["pair"] == "p2blow1_exc"
             and row["class"] == "lambda-eps" and row["rel"] == "(1,pt)"
             and row["abs"] == "lambda, lambda, lambda, eps, eps, eps"]
    sc = parse_scenario(bracket_text(row))
    counts = count_link_work(monkeypatch)
    out, status = cli.run("eval", sc, ("b",))
    assert status == 0 and "blocker push-tails-inward" in out
    assert (counts["evaluate"], counts["hypothesis"]) == (9, 1)
    assert counts["unsorted children"] == 0


def reversed_entries(text: str) -> str:
    return ", ".join(reversed(text.split(", "))) if text != "-" else text


def test_eval_reports_do_not_depend_on_insertion_order():
    """Each reference bracket with its `abs` and `rel` lists reversed gives
    the `eval` and the `vanish` report of the bracket as written, byte for
    byte: keys are canonical, and neither report holds anything else of
    the order."""
    moved = []
    for row in BRACKETS:
        turned = dict(row, abs=reversed_entries(row["abs"]),
                      rel=reversed_entries(row["rel"]))
        for command in ("eval", "vanish"):
            reports = [cli.run(command, parse_scenario(bracket_text(r)),
                               ("b",)) for r in (row, turned)]
            if reports[0] != reports[1]:
                moved.append(f"{command}: {bracket_text(row)}")
    assert moved == []


def test_dim_prints_constraints_as_written():
    """`dim` lists the constraints in the order the file gives them, under
    the canonical key; a spec in a scenario the parser did not build has
    no written order, and its constraints come in key order."""
    text = ("[space p3]\n[invariant x]\nspace = p3\ngenus = 0\n"
            "class = lambda\nabs = pi, pt, lambda\n")
    sc = parse_scenario(text)
    head = ["invariant x", "key space:p3;g=0;b=lambda;abs=pt,lambda,pi",
            "raw 7"]
    written = ["constraint pi codim 1", "constraint pt codim 3",
               "constraint lambda codim 2"]
    keyed = [written[1], written[2], written[0]]
    for scenario, constraints in (
            (sc, written),
            (Scenario(invariants={"x": sc.invariants["x"]}), keyed)):
        assert cli.run("dim", scenario, ("x",)) == (
            "\n".join(head + constraints + ["expected 1"]) + "\n", 0)
