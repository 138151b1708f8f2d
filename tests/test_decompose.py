import itertools
from collections import Counter
from fractions import Fraction

import pytest

from relgw import decompose
from relgw.decompose import (Bounds, BoundError, DecompositionError,
                             PulledBack, compare_abs_rel, dual_classes,
                             enumerate_terms, evaluate_decomposition,
                             split_form, term_multiplicity, total_genus)
from relgw.dimension import Insertion, InvariantSpec, expected_dimension
from relgw.spaces import builtin


def section_case(place=None):
    setup = builtin("fibersum_of:t2_ruled_section")
    X = setup.total
    spec = InvariantSpec(X, 1, X.cls({"s": 1, "f": 1}),
                         (Insertion(X.point, place=place),))
    return setup, spec


def quartic_case():
    setup = builtin("fibersum_of:p4blow2_hyperplane")
    P = setup.total
    beta = P.cls({"lambda": 4, "eps1": -2, "eps2": -2})
    spec = InvariantSpec(P, 0, beta, (
        Insertion(P.point), Insertion(P.point),
        Insertion(P.gen("pi"), place="split"),
        Insertion(P.gen("pi"), place="split"),
        Insertion(P.gen("pi"), place="split"),
    ))
    return setup, spec


@pytest.fixture(scope="module")
def quartic():
    """The quartic comparison, enumerated once for every test reading it."""
    setup, spec = quartic_case()
    difference, ledger = compare_abs_rel(setup, spec)
    return setup, spec, difference, ledger


def brute_automorphisms(term):
    """Count label-preserving component permutations fixing the edge list."""
    lab1 = [c.token() for c in term.gamma1]
    lab2 = [c.token() for c in term.gamma2]
    edges = sorted((t.order, t.cls.encode(), t.left, t.right)
                   for t in term.tails)
    count = 0
    for s in itertools.permutations(range(len(lab1))):
        if any(lab1[i] != lab1[s[i]] for i in range(len(lab1))):
            continue
        for t in itertools.permutations(range(len(lab2))):
            if any(lab2[i] != lab2[t[i]] for i in range(len(lab2))):
                continue
            mapped = sorted((o, c, s[j], t[i]) for o, c, j, i in edges)
            if mapped == edges:
                count += 1
    return count


# -- torus section ------------------------------------------------------


def test_section_census():
    setup, spec = section_case()
    terms = enumerate_terms(setup, spec)
    assert [t.encode() for t in terms] == [
        "g1=[f+s;g1;pt]|g2=|tails=",
        "g1=[f;g0;pt]|g2=[f+fund_0;g1;]|tails=(1,fund)@0:0",
    ]
    assert all(t.multiplicity == 1 for t in terms)
    assert all(total_genus(t) == 1 for t in terms)


def test_section_evaluation():
    setup, spec = section_case()
    ledger = evaluate_decomposition(setup, spec)
    assert [r.status for r in ledger.reports] == ["ok", "ok"]
    assert ledger.total == 2
    assert not ledger.unresolved


def test_section_compare():
    setup, spec = section_case()
    difference, ledger = compare_abs_rel(setup, spec)
    assert difference == 1
    assert not ledger.partial
    assert ledger.distinguished is not None
    assert ledger.distinguished.contribution == 1
    assert not ledger.distinguished.term.gamma2


def test_section_point_on_bundle_side():
    setup, spec = section_case(place="Y")
    ledger = evaluate_decomposition(setup, spec)
    assert len(ledger.reports) == 1
    report = ledger.reports[0]
    assert report.term.encode() == \
        "g1=[f;g0;]|g2=[f+fund_0;g1;pt]|tails=(1,pt)@0:0"
    assert report.contribution == 2
    assert ledger.total == 2


# -- two-point blowup of the four-fold ----------------------------------


def test_quartic_compare(quartic):
    _, _, difference, ledger = quartic
    assert difference == 2
    assert not ledger.partial
    assert len(ledger.reports) == 112
    assert Counter(r.status for r in ledger.reports) == {
        "pruned": 90, "ok": 21, "unresolved": 1}
    assert Counter(r.reason for r in ledger.reports
                   if r.status == "pruned") == {
        "ruled-pulled-back": 80, "pulled-back-miss": 7, "fiber-multiple": 3}
    assert ledger.excluded == {
        "area-exhausted": 44, "disconnected": 136,
        "ineffective-remainder": 14, "missable-insertion": 9716,
        "negative-contact": 160, "no-neck-contact": 7, "unplaceable": 1}


def test_quartic_surviving_row(quartic):
    ledger = quartic[3]
    live = [r for r in ledger.reports
            if r.status == "ok" and r.contribution != 0]
    assert len(live) == 1
    row = live[0]
    assert row.factors == ("L0=8", "R0=1/4", "R1=1")
    assert row.contribution == 2
    assert row.term.multiplicity == 1
    assert row.term.encode() == (
        "g1=[2*lambda;g0;pi,pi,pi,pt,pt]"
        "|g2=[f+2*lambda_0-2*eps1_0-2*eps2_0;g0;],[f;g0;]"
        "|tails=(1,fund)@0:1,(1,lambda)@0:0")


def test_quartic_distinguished_term(quartic):
    ledger = quartic[3]
    dist = ledger.distinguished
    assert dist is not None
    assert dist.status == "unresolved"
    assert dist.term.encode() == \
        "g1=[4*lambda-2*eps1-2*eps2;g0;pi,pi,pi,pt,pt]|g2=|tails="


def test_quartic_prune_rows(quartic):
    ledger = quartic[3]
    by_encode = {r.term.encode(): r for r in ledger.reports}

    # a pulled-back constraint stuck on a section-type bundle component
    miss = by_encode[
        "g1=[2*lambda;g0;pi,pi,pt,pt]"
        "|g2=[f+2*lambda_0-2*eps1_0-2*eps2_0;g0;pb:lambda],[f;g0;]"
        "|tails=(1,fund)@0:1,(1,pt)@0:0"]
    assert miss.status == "pruned"
    assert miss.reason == "pulled-back-miss"
    assert miss.term.multiplicity == 3

    # two identical section halves: automorphism halves the weight
    half = by_encode[
        "g1=[2*lambda;g0;pi,pi,pi,pt,pt]"
        "|g2=[f+lambda_0-eps1_0-eps2_0;g0;],[f+lambda_0-eps1_0-eps2_0;g0;]"
        "|tails=(1,pi)@0:0,(1,pi)@0:1"]
    assert half.status == "pruned"
    assert half.term.multiplicity == Fraction(1, 2)

    # exceptional contact classes kill the main factor, not the term list
    exc = [r for r in ledger.reports
           if r.status == "ok" and r.reason.startswith("exceptional-tail")]
    assert exc
    assert all(r.contribution == 0 for r in exc)


def test_quartic_dump_stable(quartic):
    lines = quartic[3].dump().splitlines()
    assert lines[0].startswith("status\tmult\tbeta1")
    assert "# total\t2" in lines
    assert "# unresolved\t1" in lines


def test_quartic_multiplicity_recomputation(quartic):
    setup, _, _, ledger = quartic
    for report in ledger.reports:
        assert term_multiplicity(setup, report.term) == report.term.multiplicity


def test_cone_enumerated_once_per_enumeration(monkeypatch):
    calls = []
    original = decompose._cone_members

    def counting(model, budget):
        calls.append(budget)
        return original(model, budget)

    monkeypatch.setattr(decompose, "_cone_members", counting)
    enumerate_terms(*quartic_case())
    assert len(calls) == 1


# -- weights and automorphisms ------------------------------------------


def test_two_identical_fibers_weigh_half():
    setup = builtin("fibersum_of:t2_ruled_section")
    X = setup.total
    spec = InvariantSpec(X, 1, X.cls({"s": 1, "f": 3}),
                         tuple(Insertion(X.point) for _ in range(5)))
    ledger = evaluate_decomposition(setup, spec)
    assert len(ledger.reports) == 2
    dist = [r for r in ledger.reports if len(r.term.gamma2) == 2]
    assert len(dist) == 1
    term = dist[0].term
    assert term.multiplicity == Fraction(1, 2)
    assert brute_automorphisms(term) == 2
    assert term in [r.term for r in ledger.flagged]


def term_cases(quartic):
    """(setup, spec, terms) for the section case and the shared quartic."""
    setup, spec = section_case()
    q_setup, q_spec, _, ledger = quartic
    return [(setup, spec, enumerate_terms(setup, spec)),
            (q_setup, q_spec, [r.term for r in ledger.reports])]


def test_brute_automorphisms_agree(quartic):
    for setup, _, terms in term_cases(quartic):
        for term in terms:
            aut = brute_automorphisms(term)
            recomputed = term_multiplicity(setup, term)
            assert recomputed == term.multiplicity
            # weight times |Aut| clears the automorphism denominator
            assert (term.multiplicity * aut).denominator == 1


# -- structural invariants of every emitted term -------------------------


def check_term_shape(setup, spec, term):
    X, D = setup.total, setup.left.divisor
    assert total_genus(term) == spec.genus
    combined = X.zero()
    for comp in term.gamma1:
        combined = combined + comp.cls
    assert combined == term.beta1
    assert spec.beta == term.beta1 + setup.left.inclusion(
        setup.ruled.projection(term.beta2))

    # matching contact orders on both sides of the neck
    for j, comp in enumerate(term.gamma1):
        orders = sum(t.order for t in term.tails if t.left == j)
        assert orders == setup.left.contact_count(comp.cls)
    for i, comp in enumerate(term.gamma2):
        orders = sum(t.order for t in term.tails if t.right == i)
        assert orders == setup.right.contact_count(comp.cls)

    # every tail pairs a class with its intersection dual
    duals = dual_classes(D)
    for tail in term.tails:
        name, c = tail.cls.coeffs[0]
        assert c == 1
        assert tail.dual == duals[name]

    # left components carry zero-dimensional problems
    for j, comp in enumerate(term.gamma1):
        rels = tuple(Insertion(t.cls, order=t.order)
                     for t in term.tails if t.left == j)
        rebuilt = InvariantSpec(setup.left, comp.genus, comp.cls,
                                tuple(comp.insertions), rels)
        assert expected_dimension(rebuilt) == 0

    # connectedness through the tails
    nodes = len(term.gamma1) + len(term.gamma2)
    if nodes:
        parent = list(range(nodes))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for t in term.tails:
            ra, rb = find(t.left), find(len(term.gamma1) + t.right)
            parent[ra] = rb
        assert len({find(v) for v in range(nodes)}) == 1


def test_term_structure(quartic):
    for setup, spec, terms in term_cases(quartic):
        assert len(set(t.encode() for t in terms)) == len(terms)
        for term in terms:
            check_term_shape(setup, spec, term)


# -- blown-up plane ------------------------------------------------------


def test_blowup_line_compare():
    setup = builtin("fibersum_of:p2blow1_exc")
    X = setup.total
    spec = InvariantSpec(X, 0, X.cls({"lambda": 1}),
                         (Insertion(X.point), Insertion(X.point)))
    difference, ledger = compare_abs_rel(setup, spec)
    assert difference == 0
    assert not ledger.partial
    assert len(ledger.reports) == 1
    assert ledger.distinguished is ledger.reports[0]
    assert ledger.distinguished.status == "unresolved"
    assert ledger.distinguished.term.encode() == \
        "g1=[lambda;g0;pt,pt]|g2=|tails="
    assert ledger.excluded == {
        "area-exhausted": 1, "disconnected": 1, "ineffective-remainder": 1}


def test_class_inside_divisor():
    """A class with negative contact pushes everything to the bundle side."""
    setup = builtin("fibersum_of:p2blow1_exc")
    X = setup.total
    spec = InvariantSpec(X, 0, X.cls({"eps": 1}), ())
    ledger = evaluate_decomposition(setup, spec)
    assert len(ledger.reports) == 1
    report = ledger.reports[0]
    assert report.term.encode() == "g1=|g2=[fund_0;g0;]|tails="
    assert report.status == "unresolved"
    assert ledger.excluded == {"negative-contact": 1}
    difference, compared = compare_abs_rel(setup, spec)
    assert difference == 0
    assert compared.partial
    assert compared.distinguished is None


# -- guards --------------------------------------------------------------


def test_bound_overflow_raises():
    setup, spec = quartic_case()
    with pytest.raises(BoundError):
        enumerate_terms(setup, spec, Bounds(max_terms=5))


def test_relative_input_rejected():
    setup, _ = section_case()
    X = setup.total
    rel = InvariantSpec(setup.left, 0, X.cls({"f": 1}), (),
                        (Insertion(setup.left.divisor.fundamental, order=1),))
    with pytest.raises(DecompositionError):
        enumerate_terms(setup, rel)


def test_compare_rejects_bundle_side_points():
    setup, spec = section_case(place="Y")
    with pytest.raises(DecompositionError):
        compare_abs_rel(setup, spec)


def test_split_form_table():
    setup, _ = quartic_case()
    P = setup.total
    assert split_form(setup.left, P.gen("pi")).encode() == "lambda"
    with pytest.raises(DecompositionError):
        split_form(setup.left, P.gen("lambda"))


def test_dual_classes_pairing():
    for name in ("fibersum_of:p4blow2_hyperplane", "fibersum_of:t2_ruled_section"):
        setup = builtin(name)
        D = setup.left.divisor
        duals = dual_classes(D)
        from relgw.lattice import gen
        for ename, dual in duals.items():
            assert D.intersect(gen(D.basis, ename), dual) == 1


def test_pulled_back_marker_token():
    setup, _ = quartic_case()
    D = setup.left.divisor
    marker = PulledBack(D.gen("lambda"))
    assert marker.token() == "pb:lambda"
