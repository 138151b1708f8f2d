import gc
import hashlib
import itertools
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from relgw import cli, decompose, strata
from relgw.decompose import (Bounds, BoundError, DecompositionError,
                             compare_abs_rel, enumerate_terms,
                             evaluate_decomposition, split_form)
from relgw.dimension import (Insertion, InvariantError, InvariantSpec,
                             expected_dimension)
from relgw.lattice import HomologyClass
from relgw.scenario import parse_scenario
from relgw.spaces import builtin
from relgw.strata import (_compositions, _ExactSums, _relabelings,
                          graph_genus)

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def section_case(place="X"):
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


def brute_multiplicity(setup, spec, term):
    """The labelled maps from the count's constraints to the components
    that give every component exactly its insertions, over
    `brute_automorphisms(term)`.

    A constraint placed on X may go to any divisor-side component, one on
    Y to any bundle-side component as the bundle's point or fundamental
    class, and a split one to either, on the bundle side as its declared
    divisor half pulled back.
    """
    bundle = setup.ruled.total
    halves = {source: half for source, half in setup.left.splits}
    left = [("L", j) for j in range(len(term.gamma1))]
    right = [("R", i) for i in range(len(term.gamma2))]
    options = []
    for ins in spec.absolutes:
        if ins.cls.grade == 0:
            neck = bundle.point.encode()
        elif ins.cls.grade == bundle.n:
            neck = bundle.fundamental.encode()
        else:
            neck = None
        split = halves.get(ins.cls)
        choices = []
        if ins.place in ("X", "split"):
            choices += [(slot, ins.token()) for slot in left]
        if ins.place == "Y":
            choices += [(slot, neck) for slot in right]
        if ins.place == "split":
            choices += [(slot, f"pb:{split.encode()}") for slot in right]
        options.append(choices)
    want = {slot: sorted(i.token() for i in comp.insertions)
            for slots, comps in ((left, term.gamma1), (right, term.gamma2))
            for slot, comp in zip(slots, comps)}
    count = 0
    for choice in itertools.product(*options):
        got = {slot: [] for slot in want}
        for slot, token in choice:
            got[slot].append(token)
        if all(sorted(got[slot]) == want[slot] for slot in want):
            count += 1
    return Fraction(count, brute_automorphisms(term))


# -- torus section ------------------------------------------------------


def test_section_census():
    setup, spec = section_case()
    terms = enumerate_terms(setup, spec)
    assert [t.encode() for t in terms] == [
        "g1=[f+s;g1;pt]|g2=|tails=",
        "g1=[f;g0;pt]|g2=[f+fund_0;g1;]|tails=(1,fund)@0:0",
    ]
    assert all(t.multiplicity == 1 for t in terms)
    assert all(term_genus(t) == 1 for t in terms)


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
    setup, spec, _, ledger = quartic
    for report in ledger.reports:
        assert (brute_multiplicity(setup, spec, report.term)
                == report.term.multiplicity)


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


def term_cases(quartic):
    """(setup, spec, terms) for the section case and the shared quartic."""
    setup, spec = section_case()
    q_setup, q_spec, _, ledger = quartic
    return [(setup, spec, enumerate_terms(setup, spec)),
            (q_setup, q_spec, [r.term for r in ledger.reports])]


def test_brute_automorphisms_agree(quartic):
    for setup, spec, terms in term_cases(quartic):
        for term in terms:
            aut = brute_automorphisms(term)
            assert brute_multiplicity(setup, spec, term) == term.multiplicity
            # weight times |Aut| clears the automorphism denominator
            assert (term.multiplicity * aut).denominator == 1


def test_section_cases_match_brute_multiplicity():
    for place in ("X", "Y"):
        setup, spec = section_case(place)
        for term in enumerate_terms(setup, spec):
            assert brute_multiplicity(setup, spec, term) == term.multiplicity


def test_plain_and_split_constraints_of_one_class(tmp_path, capsys):
    """One plain and two split pi constraints: assignments that put the
    same insertions on every component are one configuration, so their
    weights add instead of clashing."""
    text = (SCENARIOS / "quartic_difference.gw").read_text(encoding="utf-8")
    mixed = text.replace("abs = pt, pt, pi@split, pi@split, pi@split",
                         "abs = pt, pt, pi, pi@split, pi@split")
    assert mixed != text
    path = tmp_path / "mixed.gw"
    path.write_text(mixed, encoding="utf-8")
    assert cli.main(["decompose", str(path),
                     "p4blow2_hyperplane", "main"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines[1:]
                if not line.startswith("#")]) == 95
    assert "# total\t2" in lines
    assert "# unresolved\t1" in lines

    setup = builtin("fibersum_of:p4blow2_hyperplane")
    spec = parse_scenario(mixed).invariants["main"]
    terms = enumerate_terms(setup, spec)
    assert len(terms) == 95
    for term in terms:
        assert brute_multiplicity(setup, spec, term) == term.multiplicity
    by_encode = {t.encode(): t for t in terms}
    # a plain pi on the left may sit beside either split pi
    assert by_encode[
        "g1=[2*lambda-eps1;g0;pi,pi,pt,pt]"
        "|g2=[f+2*lambda_0-eps1_0-2*eps2_0;g0;pb:lambda]"
        "|tails=(1,fund)@0:0"].multiplicity == 2


# -- the missable rule is counted, not built -----------------------------


def old_missable_loop(setup, groups, parts1, parts2):
    """The missable rule as a build-then-test loop: place the insertions of
    every assignment of the groups' composition vectors on the components
    and test each component.  Returns the surviving assignments, as tuples
    of vectors, and the number rejected."""
    xmodel = setup.total.effective
    dmodel = setup.left.divisor.effective
    p, q = len(parts1), len(parts2)
    per_group = []
    for side, ins, count in groups:
        slots = ([("L", j) for j in range(p)] if side != "Y" else []) + \
                ([("R", i) for i in range(q)] if side != "X" else [])
        per_group.append((side, ins, slots, list(
            decompose._compositions(count, [0] * len(slots)))))
    survivors, rejected = [], 0
    for vecs in itertools.product(*(v for _, _, _, v in per_group)):
        left = [[] for _ in range(p)]
        right = [[] for _ in range(q)]
        for (side, ins, slots, _), vec in zip(per_group, vecs):
            for (where, k), n in zip(slots, vec):
                if where == "L":
                    left[k] += [ins] * n
                elif side == "Y":
                    right[k] += [decompose._convert_neck(setup, ins)] * n
                else:
                    right[k] += [Insertion(split_form(setup.left, ins.cls),
                                           pulled_back=True)] * n
        alphas = [setup.ruled.projection(c) for c in parts2]
        if any(xmodel.is_isolated(c)
               and any(xmodel.in_missable(a.cls) for a in placed)
               for c, placed in zip(parts1, left)) or any(
                not a.is_zero and dmodel.is_isolated(a)
                and any(not b.pulled_back and b.cls.grade == 0
                        for b in placed)
                for a, placed in zip(alphas, right)):
            rejected += 1
        else:
            survivors.append(vecs)
    return survivors, rejected


QUARTIC_EXCLUDED = {
    "area-exhausted": 44, "disconnected": 136, "ineffective-remainder": 14,
    "negative-contact": 160, "no-neck-contact": 7, "unplaceable": 1}


@pytest.mark.parametrize("constraints, missable", [
    ("pt, pt, pi@split, pi@split, pi@split", 9716),
    ("pt, pt, pi, pi@split, pi@split", 11313),
    ("pt, pt@Y, pi@split, pi@split, pi@split", 11826),
], ids=["quartic", "plain-and-split", "point-on-bundle-side"])
def test_counted_exclusions_match_the_build_then_test_loop(
        monkeypatch, constraints, missable):
    text = (SCENARIOS / "quartic_difference.gw").read_text(encoding="utf-8")
    spec = parse_scenario(text.replace(
        "abs = pt, pt, pi@split, pi@split, pi@split",
        f"abs = {constraints}")).invariants["main"]
    setup = builtin("fibersum_of:p4blow2_hyperplane")
    original = decompose._placements
    brute_total = 0

    def checked(configs, parts1, parts2):
        nonlocal brute_total
        rows, rejected = original(configs, parts1, parts2)
        survivors, brute = old_missable_loop(
            configs.setup, configs.groups, parts1, parts2)
        assert rejected == brute
        assert survivors == [
            tuple(vec for vec, _ in assignment) for assignment
            in itertools.product(*(missable_vectors(configs.groups, row)
                                   for row in rows))]
        brute_total += brute
        return rows, rejected

    monkeypatch.setattr(decompose, "_placements", checked)
    _, excluded = decompose._enumerate(
        decompose._ComponentTable(setup), spec, None)
    assert brute_total == missable
    assert excluded == {**QUARTIC_EXCLUDED, "missable-insertion": missable}


@pytest.mark.parametrize("constraints, count, sha", [
    ("pt, pt, pi@split, pi@split, pi@split", 153,
     "7822e258c55b09d4c84fdd67bcd5d0fec41ea14d021adf264cc8c64c64991bb4"),
    ("pt, pt, pi, pi@split, pi@split", 160,
     "b4c2f274cb92ae6571957a9e38f6db1b60937709d7142a0145a4a3d5b75c6783"),
    ("pt, pt@Y, pi@split, pi@split, pi@split", 20,
     "af87d93e384b8a9c739ce38bb6fb9235611cd3229cc86f62467e250ee92f0a0d"),
], ids=["quartic", "plain-and-split", "point-on-bundle-side"])
def test_emission_order_is_pinned(monkeypatch, constraints, count, sha):
    """`Bounds.max_terms` counts emitted assignments in the order they
    come, so where it cuts depends on that order: the sequence of emitted
    graph keys is pinned."""
    text = (SCENARIOS / "quartic_difference.gw").read_text(encoding="utf-8")
    spec = parse_scenario(text.replace(
        "abs = pt, pt, pi@split, pi@split, pi@split",
        f"abs = {constraints}")).invariants["main"]
    keys = []
    original = decompose._graph_key

    def recorded(gamma1, gamma2, tails):
        keys.append(original(gamma1, gamma2, tails))
        return keys[-1]

    monkeypatch.setattr(decompose, "_graph_key", recorded)
    setup = builtin("fibersum_of:p4blow2_hyperplane")
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == sha


def old_skeletons(ks, ells):
    """Every product of per-left edge options, kept when the right-hand
    sums match."""
    q = len(ells)

    def options(k):
        # every multiset of (order, right) pairs whose orders add up to k;
        # sorted tuples of pairs sort as their pool positions do
        pool = [(o, i) for o in range(1, k + 1) for i in range(q)]
        return sorted(part for r in range(k + 1) for part in
                      itertools.combinations_with_replacement(pool, r)
                      if sum(o for o, _ in part) == k)

    for choice in itertools.product(*(options(k) for k in ks)):
        edges = [(order, j, i) for j, part in enumerate(choice)
                 for order, i in part]
        sums = [0] * q
        for order, _, i in edges:
            sums[i] += order
        if sums == list(ells):
            yield tuple(edges)


def test_skeletons_match_the_product_then_filter_loop():
    """`_skeletons` lists, in order, the products whose right-hand sums
    match and that have the len(ks) + len(ells) - 1 edges a connected
    graph needs; each product with fewer is disconnected."""
    profiles = [prof for n in range(0, 4)
                for prof in itertools.product(range(1, 4), repeat=n)]
    short = 0
    for ks in profiles:
        for ells in profiles:
            if sum(ks) > 6 or sum(ells) > 6:
                continue
            need = len(ks) + len(ells) - 1
            every = list(old_skeletons(ks, ells))
            assert decompose._skeletons(ks, ells) == [
                s for s in every if len(s) >= need], (ks, ells)
            for s in every:
                if len(s) < need:
                    short += 1
                    assert not decompose._connected(len(ks), len(ells), s)
    assert short


def test_rejected_placements_never_reach_emit():
    """The quartic emits 153 constraint assignments: every one the
    missable rule rejects stops before `emit`."""
    setup, spec = quartic_case()
    assert len(enumerate_terms(setup, spec, Bounds(max_terms=153))) == 112
    with pytest.raises(BoundError):
        enumerate_terms(setup, spec, Bounds(max_terms=152))


# -- the slack check is on integers ----------------------------------------


def quartic_with(constraints):
    text = (SCENARIOS / "quartic_difference.gw").read_text(encoding="utf-8")
    return parse_scenario(text.replace(
        "abs = pt, pt, pi@split, pi@split, pi@split",
        f"abs = {constraints}")).invariants["main"]


def p2_ledger_scenario(degree, points, on_y):
    """N_degree on P2 through `points` points, the last `on_y` of them
    placed on the bundle side of the hyperplane's fiber sum."""
    abs_ = ["pt"] * (points - on_y) + ["pt@Y"] * on_y
    return parse_scenario(
        "[space p2]\n[divisor p2_hyperplane in p2]\n[invariant n]\n"
        f"genus = 0\nclass = {degree}*lambda\nabs = {', '.join(abs_)}\n")


def missable_vectors(groups, row):
    """The composition vectors, with their weights, of the group of a row
    that put nothing on a slot the missable rule forbids."""
    return decompose._allowed_vectors(groups[row.group][2], row.forbidden)


def old_slack_loop(setup, groups, rows, comps1, comps2, tails1, tails2):
    """The slack check as a build-then-test loop: place the insertions of
    every assignment of the rows' groups, over the slots the missable rule
    allows, on the components and take `expected_dimension` of each
    component's spec.  Yields (vectors, slacks, kept) per assignment;
    slacks is None where a spec refuses the build."""
    dn = setup.left.divisor.n
    for assignment in itertools.product(*(missable_vectors(groups, row)
                                          for row in rows)):
        left = [[] for _ in comps1]
        right = [[] for _ in comps2]
        for row, (vec, _) in zip(rows, assignment):
            side, ins, _ = groups[row.group]
            for (where, k), n in zip(row.slots, vec):
                if where == "L":
                    left[k] += [Insertion(ins.cls)] * n
                elif side == "Y":
                    right[k] += [decompose._convert_neck(setup, ins)] * n
                else:
                    right[k] += [Insertion(split_form(setup.left, ins.cls),
                                           pulled_back=True)] * n
        vectors = tuple(vec for vec, _ in assignment)
        try:
            slacks = [expected_dimension(InvariantSpec(
                setup.left, c.genus, c.cls, tuple(ins),
                tuple(Insertion(e.cls, order=e.order) for e in t)))
                for c, ins, t in zip(comps1, left, tails1)]
            slacks += [expected_dimension(InvariantSpec(
                setup.right, c.genus, c.cls, tuple(ins),
                tuple(Insertion(e.dual, order=e.order) for e in t)))
                for c, ins, t in zip(comps2, right, tails2)]
        except InvariantError:
            yield vectors, None, False
            continue
        need = [dn * len(t) - s for s, t in zip(slacks, tails1)]
        need += [s + dn * len(t) for s, t in zip(slacks[len(comps1):], tails2)]
        yield vectors, slacks, all(0 <= g <= dn * len(t) for g, t
                                   in zip(need, tails1 + tails2))


def product_then_filter(base, rows, bounds):
    """`_balanced` as a walk of the whole product of the rows, the slacks
    tested at the end."""
    for assignment in itertools.product(*rows):
        slack = [sum(col) for col in zip(base, *(d for _, _, d in assignment))]
        if all(lo <= s <= hi for s, (lo, hi) in zip(slack, bounds)):
            yield assignment, slack


@pytest.mark.parametrize("setup_name, scenario, walked, kept", [
    ("p4blow2_hyperplane", "quartic:pt, pt, pi@split, pi@split, pi@split",
     91, 41),
    ("p4blow2_hyperplane", "quartic:pt, pt, pi, pi@split, pi@split",
     79, 36),
    ("p4blow2_hyperplane", "quartic:pt, pt@Y, pi@split, pi@split, pi@split",
     30, 10),
    ("p2_hyperplane", "p2:4,11,3", 1421, 87),
], ids=["quartic", "plain-and-split", "point-on-bundle-side", "N4-3-on-Y"])
def test_integer_slack_matches_expected_dimension(
        monkeypatch, setup_name, scenario, walked, kept):
    """Every assignment of the full product of a `distribute` call's rows,
    rejected ones included, has the integer slack `expected_dimension`
    gives its built components, and the assignments that reach `fill` are
    the ones the build-then-test loop lets through, with the same slacks:
    the prefix cut of `_balanced` yields what the product-then-filter walk
    does."""
    kind, _, args = scenario.partition(":")
    if kind == "quartic":
        spec = quartic_with(args)
    else:
        spec = p2_ledger_scenario(*map(int, args.split(","))).invariants["n"]
    setup = builtin(f"fibersum_of:{setup_name}")
    calls = []
    original_table, original_balanced = \
        decompose._slack_table, decompose._balanced

    def table(components, rows, comps1, comps2, tails1, tails2):
        call = [(components.setup, decompose._groups(spec), rows, comps1,
                 comps2, tails1, tails2), None, []]
        calls.append(call)
        call[1] = original_table(components, rows, comps1, comps2, tails1,
                                 tails2)
        return call[1]

    def balanced(base, rows, bounds):
        calls[-1][2] = list(original_balanced(base, rows, bounds))
        assert calls[-1][2] == list(product_then_filter(base, rows, bounds))
        return iter(calls[-1][2])

    monkeypatch.setattr(decompose, "_slack_table", table)
    monkeypatch.setattr(decompose, "_balanced", balanced)
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)

    total = total_kept = 0
    for args, table_out, passed in calls:
        program = {}
        if table_out is not None:
            base, rows = table_out
            for assignment in itertools.product(*rows):
                program[tuple(vec for vec, _, _ in assignment)] = [
                    sum(col) for col in
                    zip(base, *(delta for _, _, delta in assignment))]
        survivors = []
        for vectors, slacks, ok in old_slack_loop(*args):
            total += 1
            assert program.get(vectors) == slacks
            if ok:
                survivors.append((vectors, slacks))
        assert [(tuple(vec for vec, _, _ in assignment), slacks)
                for assignment, slacks in passed] == survivors
        total_kept += len(survivors)
    assert (total, total_kept) == (walked, kept)


def test_skeletons_are_built_once_per_contact_profile(monkeypatch):
    """The quartic asks for the connected skeletons of each (divisor-side,
    bundle-side) contact profile once, and every list kept is the
    `_skeletons` output with the disconnected graphs left out."""
    memos, built = [], Counter()
    original_memo = decompose._connected_skeletons
    original_skeletons = decompose._skeletons

    def remembered(memo, ks, ells):
        if not memos or memos[-1] is not memo:
            memos.append(memo)
        return original_memo(memo, ks, ells)

    def counted(ks, ells):
        built[ks, ells] += 1
        return original_skeletons(ks, ells)

    monkeypatch.setattr(decompose, "_connected_skeletons", remembered)
    monkeypatch.setattr(decompose, "_skeletons", counted)
    setup, spec = quartic_case()
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)
    memo, = memos
    assert len(memo) > 1
    assert set(built.values()) == {1}
    assert set(built) == set(memo)
    for (ks, ells), kept in memo.items():
        assert kept == [s for s in original_skeletons(ks, ells)
                        if decompose._connected(len(ks), len(ells), s)]


def test_exact_sum_tables_are_built_once_per_pool(monkeypatch):
    """The quartic builds one exact-sum table for its splittings and one
    for its necks, reads each for every class it splits, and every read
    of every table it builds gives what a fresh table gives.  Edge options
    and missable classes build one-shot tables too, and edge options are
    cached across tests, so the two are picked by their pools."""
    tables = []

    class Recorded(_ExactSums):
        def __init__(self, pool, vecs, sizes, sizes2):
            super().__init__(pool, vecs, sizes, sizes2)
            self.args, self.reads = (pool, vecs, sizes, sizes2), []
            tables.append(self)

        def __call__(self, target, budget, budget2):
            out = super().__call__(target, budget, budget2)
            self.reads.append(((target, budget, budget2), out))
            return out

    monkeypatch.setattr(decompose, "_ExactSums", Recorded)
    setup, spec = quartic_case()
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)
    xpieces = setup.total.effective.classes(int(setup.total.area(spec.beta)))
    [splits] = [t for t in tables if t.args[0] == xpieces]
    [necks] = [t for t in tables if t.args[0] and all(
        isinstance(item, tuple) and len(item) == 2
        and isinstance(item[1], HomologyClass) for item in t.args[0])]
    for table in tables:
        assert (len(table.reads) > 1) == (table in (splits, necks))
        for read, out in table.reads:
            assert out == _ExactSums(*table.args)(*read)


def test_exact_sum_tables_are_freed_without_the_cycle_collector(
        monkeypatch):
    """Every exact-sum table `_enumerate` makes, its own two and the
    one-shot ones, is freed by reference counting once it returns."""
    made = []

    class Watched(_ExactSums):
        def __init__(self, pool, vecs, sizes, sizes2):
            super().__init__(pool, vecs, sizes, sizes2)
            made.append(weakref.ref(self))

    monkeypatch.setattr(decompose, "_ExactSums", Watched)
    monkeypatch.setattr(strata, "_ExactSums", Watched)
    setup, spec = quartic_case()
    gc.disable()
    try:
        decompose._enumerate(decompose._ComponentTable(setup), spec, None)
        assert len(made) >= 2
        assert [ref() for ref in made] == [None] * len(made)
    finally:
        gc.enable()


class CountedReads(list):
    """A list that counts how often an item is read by index."""

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_the_neck_walk_leaves_a_run_once_nothing_in_it_fits(monkeypatch):
    """The quartic's neck pool holds the divisor classes by area for each
    contact order; the walk reads the second size (area) of every pool
    item it looks at once, and leaves an order's run at the first area
    too large for what is left: about 1,900 reads, where a walk over every
    item of a smaller order makes some 27,700."""
    tables = []

    class Counted(_ExactSums):
        def __init__(self, pool, vecs, sizes, sizes2):
            sizes2 = CountedReads(sizes2)
            sizes2.reads = 0
            super().__init__(pool, vecs, sizes, sizes2)
            sizes2.reads = 0
            tables.append(self)

    monkeypatch.setattr(decompose, "_ExactSums", Counted)
    setup, spec = quartic_case()
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)
    [necks] = [t for t in tables if t.pool and all(
        isinstance(item, tuple) and len(item) == 2
        and isinstance(item[1], HomologyClass) for item in t.pool)]
    assert len(necks.pool) == 1320
    assert 0 < necks.sizes2.reads <= 2000


def test_closed_form_counts_match_the_built_vectors():
    """For every count, slot number and forbidden mask, the closed-form
    counts are the numbers of built composition vectors, and the vectors
    built over the allowed slots are, in order, those of the full list
    that put nothing on a forbidden slot, with their weights."""
    for count in range(5):
        for slots in range(5):
            vectors = list(_compositions(count, [0] * slots))
            assert decompose._vector_count(count, slots) == len(vectors)
            for forbidden in itertools.product((False, True), repeat=slots):
                kept = [vec for vec in vectors
                        if not any(n for n, no in zip(vec, forbidden) if no)]
                allowed = slots - sum(forbidden)
                assert decompose._vector_count(count, allowed) == len(kept)
                assert decompose._allowed_vectors(count, forbidden) == [
                    (vec, decompose._multinomial(count, vec))
                    for vec in kept]


def test_component_token_is_built_once():
    setup = builtin("fibersum_of:p4blow2_hyperplane")
    P = setup.total
    comp = decompose.GraphComponent(
        P.cls({"lambda": 2}), 0, (Insertion(P.point), Insertion(P.gen("pi"))))
    fresh = decompose.GraphComponent(comp.cls, comp.genus, comp.insertions)
    before = (hash(comp), repr(comp))
    token = comp.token()
    assert token == "[2*lambda;g0;pi,pt]"
    assert comp.token() is token
    assert fresh.token() == token and fresh.token() is not token
    assert comp == fresh
    assert (hash(comp), repr(comp)) == before == (hash(fresh), repr(fresh))


@pytest.mark.parametrize("degree, points, on_y, sha", [
    (4, 11, 3,
     "1e2a32fe356b74a7b05e32e5b441d9060237045b4a9eea304f1cf740917a01bf"),
    (5, 14, 0,
     "6c13cca5b97665d1a3921b070dc81d4faa01ec355f5b21b38aa2d51d3a5e706e"),
    (5, 14, 2,
     "e3ea2f98c3f5c0fa56f91ed7ea351fac12f3a929bda0591776763fbdd5ae4da4"),
    (6, 17, 0,
     "a4bd52396e50e2d9e9fb77f4baeac7991585d47f1399cceb59f9bc98ac43531e"),
    (6, 17, 2,
     "96c5b47b948b213e70a43805af30292e22e2bb6508b58450842a52f9062cf204"),
], ids=["N4-3-on-Y", "N5-0-on-Y", "N5-2-on-Y", "N6-0-on-Y", "N6-2-on-Y"])
def test_p2_ledgers_of_degree_four_and_five_are_pinned(
        degree, points, on_y, sha):
    """The ledgers of N_4, N_5 and N_6 on the hyperplane's fiber sum, with
    some or no points on the bundle side, byte for byte.  The name keeps
    the degrees it was first written for."""
    text, status = cli.run("decompose", p2_ledger_scenario(
        degree, points, on_y), ("p2_hyperplane", "n"))
    assert status == 0
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# -- one component table per ledger, relabelings on plain tuples -----------


def old_canonical(gamma1, gamma2, tails):
    """`_canonical` as a search over `Tail`s: every relabeling is built
    with `replace` and compared by its sorted edge key; the first strict
    minimum wins, and `aut` counts the relabelings that fix the edges."""

    def edge_key(edges):
        return tuple(sorted((e.order, e.cls.encode(), e.left, e.right)
                            for e in edges))

    def arrange(comps):
        order = sorted(range(len(comps)), key=lambda i: comps[i].token())
        remap = {old: new for new, old in enumerate(order)}
        return tuple(comps[i] for i in order), remap

    g1, remap1 = arrange(gamma1)
    g2, remap2 = arrange(gamma2)
    base = tuple(replace(t, left=remap1[t.left], right=remap2[t.right])
                 for t in tails)
    perms1 = list(_relabelings([c.token() for c in g1]))
    perms2 = list(_relabelings([c.token() for c in g2]))
    identity = edge_key(base)
    best = None
    aut = 0
    for s in perms1:
        for t in perms2:
            mapped = tuple(replace(e, left=s[e.left], right=t[e.right])
                           for e in base)
            key = edge_key(mapped)
            if key == identity:
                aut += 1
            if best is None or key < best[0]:
                best = (key, mapped)
    return g1, g2, tuple(sorted(best[1], key=lambda e: e.token())), aut


def test_canonical_matches_the_tail_search(monkeypatch):
    """Every indexed graph that reaches `_make_term` in the quartic, the
    blown-up line, both torus ledgers and the pinned N_4, N_5 and N_6
    ledgers with points on the bundle side gets the components, tails and
    automorphism count the `Tail` search gives, whether `_canonical` takes
    the identity or searches the relabelings."""
    graphs = []
    original = decompose._make_term

    def recorded(components, gamma1, gamma2, tails, weight):
        graphs.append((gamma1, gamma2, tails))
        return original(components, gamma1, gamma2, tails, weight)

    monkeypatch.setattr(decompose, "_make_term", recorded)
    for name in ("quartic_difference", "blowup_line", "torus_section"):
        scenario = parse_scenario(
            (SCENARIOS / f"{name}.gw").read_text(encoding="utf-8"))
        assert cli.run("run", scenario)[1] == 0
    for degree, points, on_y in ((4, 11, 3), (5, 14, 2), (6, 17, 2)):
        assert cli.run("decompose", p2_ledger_scenario(degree, points, on_y),
                       ("p2_hyperplane", "n"))[1] == 0
    searches = []
    original_relabelings = decompose._relabelings

    def relabelings(labels):
        searches.append(labels)
        return original_relabelings(labels)

    monkeypatch.setattr(decompose, "_relabelings", relabelings)
    moved = auts = searched = 0
    for gamma1, gamma2, tails in graphs:
        before = len(searches)
        got = decompose._canonical(gamma1, gamma2, tails)
        searched += len(searches) > before
        want = old_canonical(gamma1, gamma2, tails)
        assert got == want
        assert [t.token() for t in got[2]] == [t.token() for t in want[2]]
        moved += got[2] != tuple(sorted(tails, key=lambda e: e.token()))
        auts += got[3] > 1
    # graphs whose labels move, graphs with automorphisms, and graphs on
    # either path are all seen
    assert len(graphs) > 300 and moved and auts
    assert 0 < searched < len(graphs)


def test_each_component_is_built_checked_and_decided_once(monkeypatch):
    """On the quartic ledger every distinct (side, component, tails) has
    its spec built, its expected dimension taken and its vanishing decided
    at most once, though the quartic's terms and slack checks meet the
    same components again and again."""
    built, checked, decided = Counter(), Counter(), Counter()
    owner = {}
    original_spec = decompose._component_spec

    def spec_of(pair, comp, rels):
        key = (pair.name, comp.token(), tuple(r.token() for r in rels))
        built[key] += 1
        spec = original_spec(pair, comp, rels)
        owner[id(spec)] = (key, spec)
        return spec

    def count(counter, original):
        def call(spec):
            counter[owner[id(spec)][0]] += 1
            return original(spec)
        return call

    monkeypatch.setattr(decompose, "_component_spec", spec_of)
    monkeypatch.setattr(decompose, "expected_dimension",
                        count(checked, decompose.expected_dimension))
    monkeypatch.setattr(decompose, "decide", count(decided, decompose.decide))
    ledger = evaluate_decomposition(*quartic_case())
    assert len(ledger.reports) == 112
    assert (len(built), len(checked), len(decided)) == (195, 193, 134)
    for counter in (built, checked, decided):
        assert set(counter.values()) == {1}


def test_the_quartic_term_stage_builds_each_piece_once(monkeypatch):
    """On the quartic ledger `_canonical` searches relabelings only for
    the 28 of its 153 graphs where some side has two components of equal
    token; the component table builds 195 specs and one contact insertion
    per distinct (order, class), 16 in all; and each `Tail` builds its
    token text once."""
    graphs, searched, contacts, specs, texts = [], set(), [], [], []
    original_canonical = decompose._canonical
    original_relabelings = decompose._relabelings
    original_spec = decompose._component_spec
    original_token = decompose.Tail.token

    def canonical(gamma1, gamma2, tails):
        graphs.append(tails)
        return original_canonical(gamma1, gamma2, tails)

    def relabelings(labels):
        searched.add(len(graphs))
        return original_relabelings(labels)

    def insertion(c, **kwargs):
        out = Insertion(c, **kwargs)
        if out.order is not None:
            contacts.append((out.order, c.vec))
        return out

    def spec(pair, comp, rels):
        specs.append(rels)
        return original_spec(pair, comp, rels)

    def token(tail):
        if "_token" not in tail.__dict__:
            texts.append(tail)
        return original_token(tail)

    monkeypatch.setattr(decompose, "_canonical", canonical)
    monkeypatch.setattr(decompose, "_relabelings", relabelings)
    monkeypatch.setattr(decompose, "Insertion", insertion)
    monkeypatch.setattr(decompose, "_component_spec", spec)
    monkeypatch.setattr(decompose.Tail, "token", token)
    ledger = evaluate_decomposition(*quartic_case())
    assert len(ledger.reports) == 112
    assert (len(graphs), len(searched)) == (153, 28)
    assert len(contacts) == len(set(contacts)) == 16
    assert len(specs) == 195
    assert texts and len(texts) == len({id(t) for t in texts})


def test_term_text_is_built_once():
    setup, spec = section_case()
    term = enumerate_terms(setup, spec)[1]
    fresh = replace(term)
    before = (hash(fresh), repr(fresh))
    code = fresh.encode()
    assert code == "g1=[f;g0;pt]|g2=[f+fund_0;g1;]|tails=(1,fund)@0:0"
    assert fresh.encode() is code
    assert term.encode() == code and term.encode() is not code
    assert fresh == term
    assert (hash(fresh), repr(fresh)) == before == (hash(term), repr(term))


def test_component_table_is_freed_without_the_cycle_collector(monkeypatch):
    """The component table of a ledger, with the contact insertions of its
    tail ends, is freed by reference counting once
    `evaluate_decomposition` returns."""
    made, ends = [], []

    class Watched(decompose._ComponentTable):
        def __init__(self, setup):
            super().__init__(setup)
            made.append(weakref.ref(self))

        def end(self, order, c):
            out = super().end(order, c)
            ends.append(weakref.ref(out))
            return out

    monkeypatch.setattr(decompose, "_ComponentTable", Watched)
    gc.disable()
    try:
        ledger = evaluate_decomposition(*quartic_case())
        assert len(ledger.reports) == 112
        assert len(made) == 1 and made[0]() is None
        assert ends and [ref() for ref in ends] == [None] * len(ends)
    finally:
        gc.enable()


# -- one configuration table per ledger ------------------------------------


def old_allowed_vectors(count, forbidden):
    """The composition vectors of `count` that put nothing on a forbidden
    slot, with their multinomial weights, built one by one: the reference
    for the rows the configuration table keeps."""
    allowed = [k for k, no in enumerate(forbidden) if not no]
    out = []
    for part in _compositions(count, [0] * len(allowed)):
        vec = [0] * len(forbidden)
        for k, n in zip(allowed, part):
            vec[k] = n
        ways = factorial(count)
        for n in part:
            ways //= factorial(n)
        out.append((tuple(vec), ways))
    return out


def old_row(groups, placed, key, slots):
    """A group's entries (vector, weight, slack delta), one delta entry per
    slot: a vector putting a constraint on a side whose spec refuses it is
    dropped."""
    g, p, q, forbidden = key
    sides = placed[g]
    kept = []
    for vec, w in old_allowed_vectors(groups[g][2], forbidden):
        delta = [0] * (p + q)
        for (where, k), n in zip(slots, vec):
            if not n:
                continue
            gain = sides[where][1]
            if gain is None:
                break
            delta[k if where == "L" else p + k] += n * gain
        else:
            kept.append((vec, w, tuple(delta)))
    return kept


def ledger_case(name):
    if name == "quartic":
        return quartic_case()
    return (builtin("fibersum_of:p2_hyperplane"),
            p2_ledger_scenario(5, 14, 0).invariants["n"])


@pytest.mark.parametrize("case", ["N5-0-on-Y", "quartic"])
def test_rows_are_built_once_per_key_and_match_a_fresh_build(
        monkeypatch, case):
    """Each (group, p, q, forbidden mask) row and each (count, mask) list
    of vectors is built at most once per ledger, a row's entries at most
    once and only when a walk reads them, and every row equals a fresh
    `old_row` build, with its length and slack extents in closed form."""
    tables, rows, vectors, entries = [], [], Counter(), []

    class Watched(decompose._ConfigTable):
        def __init__(self, setup, groups):
            super().__init__(setup, groups)
            tables.append(self)

    class Made(decompose._Row):
        __slots__ = ()

        def __init__(self):
            rows.append(self)

    original_vectors = decompose._allowed_vectors
    original_entries = decompose._row_entries

    def counted_vectors(count, forbidden):
        vectors[count, forbidden] += 1
        return original_vectors(count, forbidden)

    def counted_entries(*args):
        entries.append(args)
        return original_entries(*args)

    monkeypatch.setattr(decompose, "_ConfigTable", Watched)
    monkeypatch.setattr(decompose, "_Row", Made)
    monkeypatch.setattr(decompose, "_allowed_vectors", counted_vectors)
    monkeypatch.setattr(decompose, "_row_entries", counted_entries)
    setup, spec = ledger_case(case)
    decompose._enumerate(decompose._ComponentTable(setup), spec, None)
    table, = tables
    assert len(rows) == len(table.rows) > 1
    assert set(map(id, rows)) == set(map(id, table.rows.values()))
    assert set(vectors.values()) == {1}
    built = [row for row in rows if row.entries is not None]
    assert 0 < len(entries) == len(built) < len(rows)
    for key, row in table.rows.items():
        fresh = old_row(table.groups, table.placed, key, row.slots)
        assert list(row) == fresh
        assert len(row) == len(fresh)
        if fresh:
            cols = list(zip(*(delta for _, _, delta in fresh)))
            assert list(row.least) == [min(col) for col in cols]
            assert list(row.most) == [max(col) for col in cols]


def test_configuration_table_is_freed_without_the_cycle_collector(
        monkeypatch):
    """The configuration table of a ledger, with the rows it keeps, is
    freed by reference counting once `_enumerate` returns."""
    made = []

    class Watched(decompose._ConfigTable):
        def __init__(self, setup, groups):
            super().__init__(setup, groups)
            made.append(weakref.ref(self))

    monkeypatch.setattr(decompose, "_ConfigTable", Watched)
    gc.disable()
    try:
        ledger = evaluate_decomposition(*quartic_case())
        assert len(ledger.reports) == 112
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()


# -- area budgets ----------------------------------------------------------


def test_budget_above_the_class_area_changes_nothing():
    setup, spec = quartic_case()
    assert not decompose._shrinks_area(setup.left)
    assert decompose._area_budget(setup, spec, Bounds(area=100)) == (8, 8)
    assert decompose._enumerate(decompose._ComponentTable(setup), spec,
                                Bounds(area=12)) == \
        decompose._enumerate(decompose._ComponentTable(setup), spec, None)


def test_torus_budget_above_the_class_area_changes_nothing(capsys):
    """The torus section's inclusion only makes areas larger, so a budget
    above the class area is cut to it there too: the neck totals it would
    add leave the original side nothing of positive area."""
    setup = builtin("fibersum_of:t2_ruled_section")
    assert decompose._area_budget(setup, section_case()[1],
                                  Bounds(area=8)) == (3, 3)
    ledgers = []
    for extra in ([], ["--area-budget", "8"]):
        assert cli.main(["decompose", str(SCENARIOS / "torus_section.gw"),
                         "t2_ruled_section", "through_point", *extra]) == 0
        ledgers.append(capsys.readouterr().out)
    assert ledgers[1] == ledgers[0]
    assert "# excluded\tarea-exhausted=2" in ledgers[1].splitlines()


def test_budget_below_the_class_area_is_reported(capsys):
    assert cli.main(["decompose", str(SCENARIOS / "quartic_difference.gw"),
                     "p4blow2_hyperplane", "main", "--area-budget", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "# total\t0" in lines
    assert lines[-1] == ("# area-budget\t4 below class area 8: "
                         "larger components left out")


def test_budget_is_kept_where_the_inclusion_changes_areas():
    """The antidiagonal sphere has area 2 but its image in S2xS2 has area
    0, so neck components larger than the class still leave the original
    side a class of positive area: a budget above the class area finds a
    term the default budget does not."""
    setup = builtin("fibersum_of:s2xs2_antidiag")
    X = setup.total
    spec = InvariantSpec(X, 0, X.cls({"a1": 1}), (Insertion(X.point),))
    assert decompose._shrinks_area(setup.left)
    assert decompose._area_budget(setup, spec, Bounds(area=3)) == (3, 1)
    assert enumerate_terms(setup, spec) == []
    assert len(enumerate_terms(setup, spec, Bounds(area=3))) == 1


@pytest.mark.parametrize("extra, budget, rows", [
    ([], 1, 0),
    (["--area-budget", "3"], 3, 1),
], ids=["default", "budget-3"])
def test_a_pair_that_does_not_keep_areas_says_it_is_bounded(
        tmp_path, capsys, extra, budget, rows):
    """On the antidiagonal no budget bounds the component areas, so every
    ledger there says the budget may have left terms out.  The torus
    section does not keep areas either, but its inclusion only makes them
    larger, so the class area still bounds every component there."""
    torus = builtin("t2_ruled_section")
    assert not decompose._shrinks_area(torus)
    assert decompose._shrinks_area(builtin("s2xs2_antidiag"))
    path = tmp_path / "antidiag.gw"
    path.write_text("[space s2xs2]\n[divisor s2xs2_antidiag in s2xs2]\n"
                    "[invariant a]\ngenus = 0\nclass = a1\nabs = pt\n",
                    encoding="utf-8")
    assert cli.main(["decompose", str(path), "s2xs2_antidiag", "a",
                     *extra]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == rows
    assert lines[-1] == (f"# area-budget\t{budget}: the pair does not keep "
                         "areas; larger components left out")


# -- structural invariants of every emitted term -------------------------


def term_genus(term):
    """The genus of a term's curve: its graph is connected, so the cycle
    rank is tails - components + 1."""
    comps = term.gamma1 + term.gamma2
    return graph_genus(sum(c.genus for c in comps), len(term.tails),
                       len(comps), 1 if comps else 0)


def check_term_shape(setup, spec, term):
    X, D = setup.total, setup.left.divisor
    assert term_genus(term) == spec.genus
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
    duals = D.duals
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


# -- plane along a line: classes that meet the divisor ----------------------


@pytest.mark.parametrize("d, points, mult", [(1, 2, 1), (2, 5, Fraction(1, 2))])
def test_compare_with_contacts(d, points, mult):
    """Lines through two points and conics through five meet the line in d
    points; the only term is the distinguished one, one plain fiber per
    contact, so the difference is 0 with nothing unresolved."""
    setup = builtin("fibersum_of:p2_hyperplane")
    X, D = setup.total, setup.left.divisor
    spec = InvariantSpec(X, 0, X.gen("lambda", d),
                         tuple(Insertion(X.point) for _ in range(points)))
    assert setup.left.contact_count(spec.beta) == d
    difference, ledger = compare_abs_rel(setup, spec)
    assert difference == 0
    assert not ledger.partial
    assert len(ledger.reports) == 1
    assert ledger.distinguished is ledger.reports[0]
    term = ledger.distinguished.term
    assert len(term.gamma1) == 1 and len(term.gamma2) == d
    for comp in term.gamma2:
        assert comp.genus == 0 and comp.insertions == ()
        assert setup.right.ruled.fiber_degree(comp.cls) == 1
    assert sorted(t.right for t in term.tails) == list(range(d))
    assert all(t.order == 1 and t.cls == D.fundamental and t.left == 0
               for t in term.tails)
    assert term.multiplicity == mult


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
        from relgw.lattice import gen
        for ename, dual in D.duals.items():
            assert D.intersect(gen(D.basis, ename), dual) == 1


def test_pulled_back_marker_token():
    # the bundle-side half of a split constraint is pulled back from D
    setup, _ = quartic_case()
    D = setup.left.divisor
    half = Insertion(D.gen("lambda"), pulled_back=True)
    assert half.token() == "pb:lambda"
    comp = decompose.GraphComponent(setup.ruled.fiber, 0, (half,))
    spec = decompose._component_spec(setup.right, comp, ())
    assert spec.absolutes == (half,)
    assert spec.key().endswith(";abs=pb:lambda;rel=")
