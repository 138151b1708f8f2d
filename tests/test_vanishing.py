"""Vanishing verdicts, the positivity hypothesis, and the tail reduction."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from relgw.dimension import Insertion, InvariantSpec, expected_dimension
from relgw.kbeval import (
    _SPACE_RULES,
    Evaluator,
    _rule_drop_fundamental_tails,
    seed_table,
)
from relgw.lattice import HomologyClass, cls, gen
from relgw.spaces import builtin
from relgw.strata import _partitions
from relgw.vanishing import (
    ADMISSIBLE,
    DIMENSION_MISMATCH,
    FIBER_MULTIPLE,
    NEGATIVE_AREA,
    NEGATIVE_INTERSECTION,
    RULED_PULLED_BACK,
    ZERO,
    check_degeneration_hypothesis,
    decide,
)


def antidiag_point_spec():
    pair = builtin("s2xs2_antidiag")
    X = pair.ambient
    return InvariantSpec(pair, 0, X.gen("a1"), (Insertion(X.point),), ())


def test_negative_contact_degree_is_zero():
    v = decide(antidiag_point_spec())
    assert v.kind == ZERO and v.reason == NEGATIVE_INTERSECTION


def test_dimension_gate():
    p2 = builtin("p2")
    lam = p2.gen("lambda")
    short = InvariantSpec(p2, 0, lam, (Insertion(p2.point),), ())
    v = decide(short)
    assert v.kind == ZERO and v.reason == DIMENSION_MISMATCH
    two_points = InvariantSpec(p2, 0, lam, (Insertion(p2.point),) * 2, ())
    assert decide(two_points).kind == ADMISSIBLE


def test_admissible_specs_share_one_verdict():
    """Every admissible spec gets the same frozen verdict object, which
    carries no trace; a zero verdict is built per spec, with its trace."""
    p2 = builtin("p2")
    lam = p2.gen("lambda")
    lines = InvariantSpec(p2, 0, lam, (Insertion(p2.point),) * 2, ())
    conics = InvariantSpec(p2, 0, lam.scale(2), (Insertion(p2.point),) * 5, ())
    shared = decide(lines)
    assert decide(conics) is shared
    assert shared.kind == ADMISSIBLE and shared.trace == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.kind = ZERO
    short = [InvariantSpec(p2, 0, lam, (Insertion(p2.point),), ())
             for _ in range(2)]
    first, second = (decide(spec) for spec in short)
    assert first == second and first is not second
    assert first.reason == DIMENSION_MISMATCH
    assert first.trace == ("expected dimension 1",)


def test_negative_area_is_zero_after_the_dimension_gate():
    p2 = builtin("p2")
    lam = p2.gen("lambda")
    spec = InvariantSpec(p2, 4, lam.scale(-1), (Insertion(lam),), ())
    assert expected_dimension(spec) == 0
    v = decide(spec)
    assert v.kind == ZERO and v.reason == NEGATIVE_AREA
    assert Evaluator(seed_table()).evaluate(spec).value == 0
    # the dimension gate still reports a count of the wrong dimension
    short = InvariantSpec(p2, 3, lam.scale(-1), (Insertion(lam),), ())
    assert decide(short).reason == DIMENSION_MISMATCH
    # area 0 is not negative: a1 - a2 on S2xS2 stays admissible
    s2xs2 = builtin("s2xs2")
    flat = InvariantSpec(s2xs2, 1, s2xs2.cls({"a1": 1, "a2": -1}), (), ())
    assert s2xs2.area(flat.beta) == 0 and expected_dimension(flat) == 0
    assert decide(flat).kind == ADMISSIBLE


def test_exceptional_support_answers_what_decide_admits():
    # eps1+eps2 on p3blow2 has area 2 and lies on no branch; decide finds
    # two points admissible, and only the exceptional-support clause of
    # is_isolated sends the count to 0, so the clause stays
    X = builtin("p3blow2")
    model = X.effective
    both = X.cls({"eps1": 1, "eps2": 1})
    assert model.is_isolated(both)
    assert model.is_isolated(X.cls({"eps1": 2, "eps2": -1}))
    spec = InvariantSpec(X, 0, both, (Insertion(X.point),) * 2, ())
    assert X.area(both) == 2 and expected_dimension(spec) == 0
    assert decide(spec).kind == ADMISSIBLE
    r = Evaluator(seed_table()).evaluate(spec)
    assert r.value == 0
    assert r.trace == ("isolated-locus: generic pt misses it", "factor 0")
    # exceptional-only curve classes with coefficients in [-2, 2] that reach
    # the clause: 6 of positive area and 4 of area 0 on each blow-up
    for name in ("p3blow2", "p4blow2"):
        X = builtin(name)
        areas = []
        for a, b in itertools.product(range(-2, 3), repeat=2):
            c = X.cls({e: k for e, k in (("eps1", a), ("eps2", b)) if k})
            if not c.is_zero and X.effective.is_isolated(c) \
                    and not X.effective.is_effective(c):
                areas.append(X.area(c))
        assert sum(a > 0 for a in areas) == 6, name
        assert areas.count(0) == 4, name


def test_hyperplane_family_census():
    # every relative count of lines against the hyperplane dies except the
    # single point condition on the line itself
    pairs = ["p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane"]
    admissible = []
    total = 0
    for name in pairs:
        pair = builtin(name)
        X, D = pair.ambient, pair.divisor
        line = [e for e, g in X.basis.elements if g == 1][0]
        constraints = [gen(D.basis, e) for e, _ in D.basis.elements]
        for d in range(1, 6):
            beta = X.gen(line, d)
            for mu in _partitions(d):
                for combo in itertools.product(constraints, repeat=len(mu)):
                    rel = tuple(Insertion(c, order=m) for m, c in zip(mu, combo))
                    spec = InvariantSpec(pair, 0, beta, (), rel)
                    verdict = decide(spec)
                    total += 1
                    assert verdict.kind in (ZERO, ADMISSIBLE)
                    if verdict.kind == ADMISSIBLE:
                        admissible.append((name, d, mu))
    assert total > 2000
    assert admissible == [("p1_point", 1, (1,))]


def test_fiber_triple_is_admissible():
    pair = builtin("t2_ruled_section")
    X, D = pair.ambient, pair.divisor
    f = X.gen("f")
    tail = (Insertion(D.point, order=1),)
    bare = InvariantSpec(pair, 0, f, (), tail)
    assert decide(bare).kind == ADMISSIBLE
    pulled = Insertion(D.point, pulled_back=True)
    triple = InvariantSpec(pair, 0, f, (pulled, pulled), tail)
    assert decide(triple).kind == ADMISSIBLE


def test_fiber_class_insertion_bound():
    pair = builtin("t2_ruled_section")
    X, D = pair.ambient, pair.divisor
    f = X.gen("f")
    pulled = Insertion(D.point, pulled_back=True)
    spec = InvariantSpec(pair, 0, f, (pulled,) * 3, (Insertion(D.point, order=1),))
    v = decide(spec)
    assert v.kind == ZERO and v.reason == FIBER_MULTIPLE


def test_translation_vanishing():
    pair = builtin("t2_ruled_section")
    X = pair.ambient
    section = cls(X.basis, {"s": 1, "f": 1})
    pulled = Insertion(pair.divisor.point, pulled_back=True)
    spec = InvariantSpec(pair, 0, section, (pulled, pulled), ())
    v = decide(spec)
    assert v.kind == ZERO and v.reason == RULED_PULLED_BACK


def test_translation_needs_all_pulled_back():
    pair = builtin("t2_ruled_section")
    X = pair.ambient
    section = cls(X.basis, {"s": 1, "f": 1})
    plain = Insertion(X.gen("f"))
    spec = InvariantSpec(pair, 0, section, (plain, plain), ())
    assert decide(spec).kind == ADMISSIBLE


def test_hypothesis_blowup_classes():
    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    ok, witness = check_degeneration_hypothesis(pair, X.gen("lambda", 2))
    assert ok and witness is None
    deep = cls(X.basis, {"lambda": 4, "eps1": -2, "eps2": -2})
    ok, witness = check_degeneration_hypothesis(pair, deep)
    assert not ok
    assert witness == cls(D.basis, {"lambda": 2, "eps1": -2, "eps2": -2})


def test_hypothesis_antidiagonal():
    pair = builtin("s2xs2_antidiag")
    X, D = pair.ambient, pair.divisor
    ok, witness = check_degeneration_hypothesis(pair, X.gen("a1"))
    assert not ok
    assert witness == D.gen("fund")


def full_walk_hypothesis(pair, beta):
    """The check over every class of the divisor's cone, each branch
    walked whatever its normal degrees: the oracle for the walk over the
    branches that can reach normal degree -2."""
    X, D = pair.ambient, pair.divisor
    n = X.n
    for alpha in D.effective.classes(2 * int(X.area(beta)) + 2):
        k = -pair.normal_degree(alpha)
        if k < 2:
            continue
        image = pair.inclusion(alpha)
        remainder = beta - image
        if remainder.is_zero or not X.effective.is_effective(remainder):
            continue
        bound = (n - 3) * (k - 2) if n >= 3 else 0
        if X.c1(image) <= bound:
            return False, alpha
    return True, None


# every catalog pair with an effective model on both sides: a point, the
# divisor of p1_point, has none, nor has the ambient of a bundle pair
MODELED_PAIRS = ("p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
                 "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
                 "s2xs2_antidiag")


@pytest.mark.parametrize("name", MODELED_PAIRS)
def test_hypothesis_matches_the_full_walk(name):
    pair = builtin(name)
    for beta in pair.ambient.effective.classes(8):
        assert check_degeneration_hypothesis(pair, beta) \
            == full_walk_hypothesis(pair, beta), beta.encode()


@pytest.mark.parametrize("name", ["p2_hyperplane", "p3_hyperplane",
                                  "p4_hyperplane"])
def test_hyperplane_hypothesis_builds_no_class(monkeypatch, name):
    # the normal degree is the degree, positive on every divisor class
    pair = builtin(name)
    classes = pair.ambient.effective.classes(8)
    built = []
    post = HomologyClass.__post_init__

    def counted(self):
        built.append(self)
        post(self)

    monkeypatch.setattr(HomologyClass, "__post_init__", counted)
    assert all(check_degeneration_hypothesis(pair, beta) == (True, None)
               for beta in classes)
    assert built == []


# -- divisor classes pulled back to the bundle side ------------------------
#
# On the bundle over the hyperplane of the two-point blowup of P4 the
# preimage of the line class `lambda` of the divisor has no class in the
# bundle's basis; a splitting carries it as a pulled-back insertion.


def bundle_spec(coeffs, *tails, pulled=0):
    """(count, divisor): a genus-0 count on the bundle carrying `pulled`
    copies of the pulled-back line class."""
    pair = builtin("y_of:p4blow2_hyperplane").infinity_pair
    Y, D = pair.ambient, pair.divisor
    rel = tuple(Insertion(gen(D.basis, name), order=order)
                for order, name in tails)
    line = Insertion(gen(D.basis, "lambda"), pulled_back=True)
    return InvariantSpec(pair, 0, cls(Y.basis, coeffs), (line,) * pulled,
                         rel), D


def test_dimension_gate_counts_markers():
    # each pulled-back class is one more insertion of codimension
    # n - 1 - grade
    dims = [expected_dimension(bundle_spec({"f": 1}, (1, "eps1"),
                                           pulled=k)[0]) for k in range(3)]
    assert dims == [1, 0, -1]
    for k, kind in ((0, ZERO), (1, ADMISSIBLE), (2, ZERO)):
        v = decide(bundle_spec({"f": 1}, (1, "eps1"), pulled=k)[0])
        assert v.kind == kind
        if kind == ZERO:
            assert v.reason == DIMENSION_MISMATCH


def test_fiber_multiple_counts_markers():
    spec, _ = bundle_spec({"f": 1}, (1, "fund"), pulled=3)
    # three pulled-back classes and one contact: four insertions on a fiber
    v = decide(spec)
    assert v.kind == ZERO and v.reason == FIBER_MULTIPLE
    assert "3 absolute and 1 relative" in v.trace[0]
    # two against a contact of one grade lower: three insertions
    fewer, _ = bundle_spec({"f": 1}, (1, "pi"), pulled=2)
    assert expected_dimension(fewer) == 0
    assert decide(fewer).kind == ADMISSIBLE


def test_ruled_pulled_back_holds_with_markers():
    coeffs = {"f": 1, "lambda_0": 1, "eps1_0": -1, "eps2_0": -1}
    spec, _ = bundle_spec(coeffs, (1, "pi"), pulled=1)
    v = decide(spec)
    assert v.kind == ZERO and v.reason == RULED_PULLED_BACK
    # without the pulled-back class the dimension gate speaks first
    bare, _ = bundle_spec(coeffs, (1, "pi"))
    assert decide(bare).reason == DIMENSION_MISMATCH


# -- the genus-0 reduction of relative counts to absolute ones -------------


def drop_tails(spec):
    return _rule_drop_fundamental_tails(Evaluator(seed_table()), spec)


def test_drop_tails_fires_on_fundamental_tails():
    pair = builtin("p2_hyperplane")
    X, D = pair.ambient, pair.divisor
    points = (Insertion(X.point),) * 2
    tails = (Insertion(D.fundamental, order=1),) * 2
    conics = InvariantSpec(pair, 0, X.gen("lambda", 2), points, tails)
    factor, (child,), note = drop_tails(conics)
    assert factor == Fraction(1) and note == "drop-fundamental-tails"
    assert child == InvariantSpec(X, 0, X.gen("lambda", 2), points, ())


def test_drop_tails_with_no_contacts():
    pair = builtin("p2blow1_exc")
    X = pair.ambient
    points = (Insertion(X.point),) * 2
    lines = InvariantSpec(pair, 0, X.gen("lambda"), points, ())
    factor, (child,), _ = drop_tails(lines)
    assert factor == Fraction(1)
    assert child == InvariantSpec(X, 0, X.gen("lambda"), points, ())


def test_drop_tails_blocked_by_witness():
    pair = builtin("s2xs2_antidiag")
    X = pair.ambient
    ok, _ = check_degeneration_hypothesis(pair, X.gen("a1"))
    assert not ok
    spec = InvariantSpec(pair, 0, X.gen("a1"), (Insertion(X.point),), ())
    assert drop_tails(spec) is None


def test_drop_tails_needs_a_relative_count():
    # an absolute count never tries the rule: it is not a Space rule
    assert _rule_drop_fundamental_tails not in _SPACE_RULES
    X = builtin("p2")
    spec = InvariantSpec(X, 0, X.gen("lambda"), (Insertion(X.point),) * 2, ())
    result = Evaluator(seed_table()).evaluate(spec)
    labels = result.trace if result.known else result.blockers
    assert labels
    assert not any("drop-fundamental-tails" in label for label in labels)


def test_drop_tails_skips_genus_one():
    # the paper's genus-1 contrast: sections of the ruled torus through a
    # point count 2 absolutely and 1 relative to the section, although
    # the positivity hypothesis holds for their class
    pair = builtin("t2_ruled_section")
    X = pair.ambient
    section = cls(X.basis, {"s": 1, "f": 1})
    ok, _ = check_degeneration_hypothesis(pair, section)
    assert ok
    point = (Insertion(X.point),)
    relative = InvariantSpec(pair, 1, section, point, ())
    assert drop_tails(relative) is None
    ev = Evaluator(seed_table())
    assert ev.evaluate(relative).value == 1
    assert ev.evaluate(InvariantSpec(X, 1, section, point, ())).value == 2
