import hashlib
import random
import weakref
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                             InvariantSpec, expected_dimension)
from relgw import strata as strata_module
from relgw.lattice import cls, gen
from relgw.spaces import builtin
from relgw.strata import (Contact, LevelComponent, StratumType, _ExactSums,
                          _graph_components, _orbit_matchings,
                          _partitions, _position_filter, _relabelings,
                          _searched_key, _solve_preimage, assemble_class,
                          enumerate_strata, multilevel_index, stratum_flags,
                          stratum_key, total_genus, validate)

import pytest

P2H = builtin("p2_hyperplane")
EXC = builtin("p2blow1_exc")


def rel(pair, order, name):
    return Insertion(gen(pair.divisor.basis, name), order=order)


def absins(space, name):
    return Insertion(gen(space.basis, name))


def dzero(pair):
    return cls(pair.divisor.basis, {})


# --- hand-built strata with frozen indices -------------------------------

def line_family_spec():
    # line class on the one-point blowup, relative to the exceptional curve,
    # through one interior point; meets the divisor zero times
    x = EXC.ambient
    return InvariantSpec(EXC, 0, x.gen("lambda"), absolutes=(absins(x, "pt"),))


def line_family_bubble():
    x = EXC.ambient
    main = LevelComponent(0, 0, cls=x.cls({"lambda": 1, "eps": -1}),
                          inf=(Contact("a", 1),))
    bubble = LevelComponent(1, 0, alpha=gen(EXC.divisor.basis, "fund"),
                            fiber=0, zero=(Contact("b", 1),))
    return StratumType(EXC, (main, bubble), (("a", "b"),),
                       line_family_spec().absolutes)


def conic_tangent_spec():
    x = P2H.ambient
    marks = tuple(absins(x, "fund") for _ in range(3))
    return InvariantSpec(P2H, 0, x.gen("lambda", 2), absolutes=marks,
                         relatives=(rel(P2H, 2, "pt"),))


def conic_split_spec():
    x = P2H.ambient
    marks = tuple(absins(x, "fund") for _ in range(3))
    return InvariantSpec(P2H, 0, x.gen("lambda", 2), absolutes=marks,
                         relatives=(rel(P2H, 1, "fund"), rel(P2H, 1, "fund")))


def cubic_torus_spec():
    x = P2H.ambient
    return InvariantSpec(P2H, 1, x.gen("lambda", 3),
                         relatives=(rel(P2H, 2, "fund"), rel(P2H, 1, "fund")))


def tangent_stratum_a():
    # line plus a section-and-two-fibers bubble carrying the tangency
    x = P2H.ambient
    d = P2H.divisor.basis
    line = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("a", 1),))
    bubble = LevelComponent(1, 0, alpha=gen(d, "fund"), fiber=2,
                            zero=(Contact("b", 1),),
                            inf=(Contact("c", 2, gen(d, "pt")),))
    return StratumType(P2H, (line, bubble), (("a", "b"),),
                       conic_tangent_spec().absolutes)


def tangent_stratum_b():
    # two lines joined by a double fiber cover over one divisor point
    x = P2H.ambient
    d = P2H.divisor.basis
    l1 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("a1", 1),))
    l2 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("a2", 1),))
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("b1", 1), Contact("b2", 1)),
                            inf=(Contact("c", 2, gen(d, "pt")),))
    return StratumType(P2H, (l1, l2, bubble), (("a1", "b1"), ("a2", "b2")),
                       conic_tangent_spec().absolutes)


def split_stratum():
    # tangent conic pushed off the divisor by a double fiber cover
    x = P2H.ambient
    d = P2H.divisor.basis
    conic = LevelComponent(0, 0, cls=x.gen("lambda", 2), inf=(Contact("a", 2),))
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("b", 2),),
                            inf=(Contact("c1", 1, gen(d, "fund")),
                                 Contact("c2", 1, gen(d, "fund"))))
    return StratumType(P2H, (conic, bubble), (("a", "b"),),
                       conic_split_spec().absolutes)


def torus_stratum_one_level():
    # nodal cubic with the node on the divisor; the double fiber cover
    # through the node closes the loop that carries the genus
    x = P2H.ambient
    d = P2H.divisor.basis
    cubic = LevelComponent(0, 0, cls=x.gen("lambda", 3),
                           inf=(Contact("a1", 1), Contact("a2", 1),
                                Contact("a3", 1)))
    two = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                         zero=(Contact("b1", 1), Contact("b2", 1)),
                         inf=(Contact("c1", 2, gen(d, "fund")),))
    one = LevelComponent(1, 0, alpha=cls(d, {}), fiber=1,
                         zero=(Contact("b3", 1),),
                         inf=(Contact("c2", 1, gen(d, "fund")),))
    return StratumType(P2H, (cubic, two, one),
                       (("a1", "b1"), ("a2", "b2"), ("a3", "b3")), ())


def torus_stratum_two_levels():
    x = P2H.ambient
    d = P2H.divisor.basis
    zero = cls(d, {})
    cubic = LevelComponent(0, 0, cls=x.gen("lambda", 3),
                           inf=(Contact("a1", 2), Contact("a2", 1)))
    c1 = LevelComponent(1, 0, alpha=zero, fiber=2,
                        zero=(Contact("b1", 2),),
                        inf=(Contact("c1", 1), Contact("c2", 1)))
    b1 = LevelComponent(1, 0, alpha=zero, fiber=1,
                        zero=(Contact("b2", 1),),
                        inf=(Contact("c3", 1),))
    c2 = LevelComponent(2, 0, alpha=zero, fiber=2,
                        zero=(Contact("d1", 1), Contact("d2", 1)),
                        inf=(Contact("e1", 2, gen(d, "fund")),))
    b2 = LevelComponent(2, 0, alpha=zero, fiber=1,
                        zero=(Contact("d3", 1),),
                        inf=(Contact("e2", 1, gen(d, "fund")),))
    return StratumType(P2H, (cubic, c1, b1, c2, b2),
                       (("a1", "b1"), ("a2", "b2"),
                        ("c1", "d1"), ("c2", "d2"), ("c3", "d3")), ())


def test_line_family_indices():
    spec = line_family_spec()
    assert expected_dimension(spec) == 1
    s = line_family_bubble()
    assert validate(s) == []
    assert assemble_class(s) == EXC.ambient.gen("lambda")
    assert total_genus(s) == 0
    assert multilevel_index(s) == 0
    assert stratum_flags(s) == ()


def test_tangent_strata_indices():
    spec = conic_tangent_spec()
    assert expected_dimension(spec) == 6
    a, b = tangent_stratum_a(), tangent_stratum_b()
    for s in (a, b):
        assert validate(s) == []
        assert assemble_class(s) == spec.beta
        assert total_genus(s) == 0
        assert multilevel_index(s) == 5
    assert stratum_flags(a) == ()
    assert stratum_flags(b) == ()


def test_split_stratum_index():
    spec = conic_split_spec()
    assert expected_dimension(spec) == 8
    s = split_stratum()
    assert validate(s) == []
    assert multilevel_index(s) == 7


def test_torus_strata_indices():
    spec = cubic_torus_spec()
    assert expected_dimension(spec) == 8
    one = torus_stratum_one_level()
    assert validate(one) == []
    assert total_genus(one) == 1
    assert multilevel_index(one) == 7
    assert stratum_flags(one) == ()

    two = torus_stratum_two_levels()
    assert validate(two) == []
    assert total_genus(two) == 1
    assert multilevel_index(two) == 6
    assert stratum_flags(two) == ("nontransverse-fiber-contact",)


# --- structural checks ----------------------------------------------------

def test_validate_catches_bad_matchings():
    x = P2H.ambient
    d = P2H.divisor.basis
    conic = LevelComponent(0, 0, cls=x.gen("lambda", 2), inf=(Contact("a", 2),))
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("b1", 1), Contact("b2", 1)),
                            inf=(Contact("c", 2),))
    s = StratumType(P2H, (conic, bubble), (("a", "b1"),))
    tags = validate(s)
    assert "matching-mult" in tags
    assert "unmatched-node" in tags


def test_validate_catches_level0_zero_side():
    x = P2H.ambient
    comp = LevelComponent(0, 0, cls=x.gen("lambda"), zero=(Contact("z", 1),),
                          inf=(Contact("a", 1),))
    s = StratumType(P2H, (comp,), ())
    assert "level0-zero-contact" in validate(s)


def test_validate_catches_bare_level():
    x = P2H.ambient
    d = P2H.divisor.basis
    conic = LevelComponent(0, 0, cls=x.gen("lambda", 2), inf=(Contact("a", 2),))
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("b", 2),), inf=(Contact("c", 2),))
    s = StratumType(P2H, (conic, bubble), (("a", "b"),))
    assert "unstable-level" in validate(s)


def test_validate_catches_disconnection_and_gaps():
    x = P2H.ambient
    l1 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("a1", 1),))
    l2 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("a2", 1),))
    s = StratumType(P2H, (l1, l2), ())
    assert "disconnected" in validate(s)

    d = P2H.divisor.basis
    high = LevelComponent(2, 0, alpha=gen(d, "fund"), fiber=1,
                          zero=(), inf=(Contact("c", 1),))
    # alpha=fund, fiber=1 has zero-side degree 0, so no zero contacts
    s2 = StratumType(P2H, (high,), ())
    assert "level-gap" in validate(s2)


def test_genus_counts_loops():
    s = torus_stratum_two_levels()
    # five components, five matchings, connected: one loop
    assert total_genus(s) == 1


def test_key_ignores_node_names_and_component_order():
    a = tangent_stratum_b()
    x = P2H.ambient
    d = P2H.divisor.basis
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("q2", 1), Contact("q1", 1)),
                            inf=(Contact("top", 2, gen(d, "pt")),))
    l1 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("p1", 1),))
    l2 = LevelComponent(0, 0, cls=x.gen("lambda"), inf=(Contact("p2", 1),))
    b = StratumType(P2H, (bubble, l2, l1), (("p2", "q1"), ("p1", "q2")),
                    conic_tangent_spec().absolutes)
    assert stratum_key(a) == stratum_key(b)


def test_position_filter_blocks_double_ends_on_a_conic():
    x = P2H.ambient
    d = P2H.divisor.basis
    conic = LevelComponent(0, 0, cls=x.gen("lambda", 2),
                           inf=(Contact("a1", 1), Contact("a2", 1)))
    bubble = LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                            zero=(Contact("b1", 1), Contact("b2", 1)),
                            inf=(Contact("c", 2, gen(d, "pt")),))
    s = StratumType(P2H, (conic, bubble), (("a1", "b1"), ("a2", "b2")))
    # both bubble ends sit over one divisor point; an embedded conic has no
    # node to spend on passing through it twice
    assert not _position_filter(s)
    # the nodal cubic of the torus count does have one node to spend
    assert _position_filter(torus_stratum_one_level())


# --- enumeration ----------------------------------------------------------

def test_enumerate_line_family():
    spec = line_family_spec()
    strata = enumerate_strata(spec, 1)
    keys = {stratum_key(s) for s in strata}
    assert len(strata) == 2
    assert stratum_key(line_family_bubble()) in keys
    for s in strata:
        assert validate(s) == []
        assert multilevel_index(s) == expected_dimension(spec) - s.depth


def test_enumerate_depth_zero_gives_only_main():
    spec = conic_tangent_spec()
    strata = enumerate_strata(spec, 0)
    assert len(strata) == 1
    assert strata[0].depth == 0
    assert multilevel_index(strata[0]) == 6


def test_enumerate_tangent_scenario():
    spec = conic_tangent_spec()
    strata = enumerate_strata(spec, 1)
    keys = {stratum_key(s) for s in strata}
    assert stratum_key(tangent_stratum_a()) in keys
    assert stratum_key(tangent_stratum_b()) in keys
    # main, both bubble configurations, and the cover sunk into the divisor
    assert len(strata) == 4
    for s in strata:
        assert validate(s) == []
        assert assemble_class(s) == spec.beta
        assert total_genus(s) == 0
        assert multilevel_index(s) == expected_dimension(spec) - s.depth


def test_enumerate_split_scenario():
    spec = conic_split_spec()
    strata = enumerate_strata(spec, 1)
    keys = {stratum_key(s) for s in strata}
    assert stratum_key(split_stratum()) in keys
    assert len(strata) == 5
    for s in strata:
        assert multilevel_index(s) == expected_dimension(spec) - s.depth


def enumerate_with_plans(spec, k, mp):
    """The strata of the count and the (level-0 components, level plan,
    end degrees) of every plan that reached `_attach_contacts`."""
    plans = []
    attach = strata_module._attach_contacts

    def spy(spec_, bottom, level_plan, ends, table):
        plans.append((bottom, level_plan, ends))
        return attach(spec_, bottom, level_plan, ends, table)

    mp.setattr(strata_module, "_attach_contacts", spy)
    return enumerate_strata(spec, k), plans


def spy_keys(mp):
    """The list of every stratum `enumerate_strata` will key, kept or not."""
    keyed = []
    key = strata_module.stratum_key

    def spy(s):
        keyed.append(s)
        return key(s)

    mp.setattr(strata_module, "stratum_key", spy)
    return keyed


@pytest.fixture(scope="module")
def torus():
    """The torus cubic at depth 2, with (total genus, graph components) of
    every candidate that reached `total_genus`, every level plan and every
    stratum keyed."""
    seen = []

    def spy(s):
        genus = total_genus(s)
        seen.append((genus, _graph_components(s)))
        return genus

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strata_module, "total_genus", spy)
        keyed = spy_keys(mp)
        strata, plans = enumerate_with_plans(cubic_torus_spec(), 2, mp)
    return strata, seen, plans, keyed


@pytest.fixture(scope="module")
def torus_three():
    """The torus cubic at depth 3, with every stratum keyed and every level
    plan."""
    with pytest.MonkeyPatch.context() as mp:
        keyed = spy_keys(mp)
        strata, plans = enumerate_with_plans(cubic_torus_spec(), 3, mp)
    return strata, keyed, plans


def test_enumerate_torus_scenario(torus):
    strata, _, _, _ = torus
    keys = {stratum_key(s): s for s in strata}
    kone = stratum_key(torus_stratum_one_level())
    ktwo = stratum_key(torus_stratum_two_levels())
    assert kone in keys
    assert ktwo in keys
    assert multilevel_index(keys[kone]) == 7
    assert multilevel_index(keys[ktwo]) == 6
    assert stratum_flags(keys[ktwo]) == ("nontransverse-fiber-contact",)
    main = [s for s in strata if s.depth == 0]
    assert len(main) == 1
    assert multilevel_index(main[0]) == 8


def line_genus_one_spec():
    # has strata with no level-0 component: the whole line sinks into the
    # divisor, so the first boundary carries no edge
    x = P2H.ambient
    return InvariantSpec(P2H, 1, x.gen("lambda"),
                         relatives=(rel(P2H, 1, "fund"),))


def key_digest(strata):
    text = "\n".join(stratum_key(s) for s in strata)
    return len(strata), hashlib.sha256(text.encode("utf-8")).hexdigest()


TORUS_KEYS = (216, "dddb2559c579b361b1aed94d43a8269f"
                   "3226662701ae126ed321ee0b7cfe1ba7")


def representative_digest(strata):
    """The kept stratum of every key, node names and matchings included."""
    text = "\n".join(repr((s.components, s.matchings)) for s in strata)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


TORUS_REPRESENTATIVES = ("d7ed0b27cad099bb9072d16d56b6ca82"
                         "689453e62750a425e5a4588649d2876d")


@pytest.mark.parametrize("make, count, sha", [
    (conic_tangent_spec, 7,
     "c8869de79f3c4ae6784086d255d79feece94c30ddbf35716d0091dba828acd56"),
    (conic_split_spec, 11,
     "6f523345c4addb223c76c582c85a6cfca85390e407eda30163cde89cc043647a"),
    (line_genus_one_spec, 4,
     "fa90fe6689e995776ca5fc878fab4324b90f6c0a15befc5b824926d844311a5b"),
], ids=["tangent", "split", "line-genus-one"])
def test_depth_two_enumeration_is_pinned(make, count, sha):
    strata = enumerate_strata(make(), 2)
    assert key_digest(strata) == (count, sha)
    assert any(all(c.level > 0 for c in s.components) for s in strata)


@pytest.mark.parametrize("make, sha", [
    (conic_tangent_spec,
     "d4249302e2fb0b9f000acec48b8307e2f47628daa3923103a61301f43e1ce9a9"),
    (conic_split_spec,
     "1b602e8a64918c9c678339b863656ebfe209aea01097094c82362c31fdc2e564"),
    (line_genus_one_spec,
     "d29630b6b660ef28a12598b2217742ac9dee162c4348bfe32bff8dfd521a0702"),
], ids=["tangent", "split", "line-genus-one"])
def test_depth_two_representatives_are_pinned(make, sha):
    assert representative_digest(enumerate_strata(make(), 2)) == sha


def test_torus_enumeration_is_pinned(torus):
    strata, _, _, _ = torus
    assert key_digest(strata) == TORUS_KEYS
    assert any(all(c.level > 0 for c in s.components) for s in strata)


def test_torus_representatives_are_pinned(torus):
    strata, _, _, _ = torus
    assert representative_digest(strata) == TORUS_REPRESENTATIVES


def test_symmetric_matchings_are_not_built(torus):
    # 5,796 candidates when every pairing of interchangeable contacts was
    # built; one per orbit leaves 2,139, one level plan per isomorphism
    # class, each able to close its end degrees, leaves 908, no level of
    # bare fibers leaves 680, and no plan over the genus budget or outside
    # the edge-count window leaves 378
    _, seen, _, _ = torus
    assert len(seen) <= 378


def test_hopeless_level_plans_are_not_made(torus):
    # 11,787 plans when every fiber degree and every order of identical
    # components was tried; 1,672 with the degree floor and sorted
    # identical components, before the genus budget and the edge-count
    # window cut plans while their levels are chosen
    _, _, plans, _ = torus
    assert len(plans) <= 337


def test_connected_candidates_have_the_count_genus(torus):
    # a structural choice whose Euler characteristic misses the genus is
    # rejected before its matchings are built
    _, seen, _, _ = torus
    assert seen
    assert {genus for genus, parts in seen if parts == 1} == {1}


def test_torus_depth_three_is_pinned(torus_three):
    strata, _, _ = torus_three
    assert key_digest(strata) == (
        888, "5d62a2901891fd050c845609cd9289222e009ebc47aea7403c577bbbc6709f1e")
    assert representative_digest(strata) == \
        "8740e8d637c0610164a771c3f7abaf8065fff834780a0a41c33790565dd45cf7"


# Counts on the pairs whose divisor is not a hyperplane, where level-0
# classes of negative contact count exist; keys and representatives were
# recorded before level plans were cut down to those that can close.

EXC_LINE_GENUS_ONE = (EXC, 1, {"lambda": 1}, ())
ANTI_A1_2A2 = (builtin("s2xs2_antidiag"), 0, {"a1": 1, "a2": 2}, (1,))
P4B = builtin("p4blow2_hyperplane")
P4B_2EPS1 = (P4B, 0, {"eps1": 2}, (2,))
P4B_LINE_GENUS_ONE = (P4B, 1, {"lambda": 1}, (1,))
P4B_CONIC_MINUS_EPS1 = (P4B, 0, {"lambda": 2, "eps1": -1}, (1,))
T2_SECTION_GENUS_ONE = (builtin("t2_ruled_section"), 1, {"s": 1, "f": 2}, (1,))


def fund_contact_spec(pair, genus, coeffs, orders):
    return InvariantSpec(pair, genus, pair.ambient.cls(coeffs),
                         relatives=tuple(rel(pair, o, "fund") for o in orders))


@pytest.fixture(scope="module")
def conic_minus_eps1():
    """A count with level-0 classes of negative contact count, which
    `enumerate_strata` leaves out, and level-1 components whose zero side
    the degree floor keeps non-negative, with every plan that reached
    `_attach_contacts`."""
    spec = fund_contact_spec(*P4B_CONIC_MINUS_EPS1)
    with pytest.MonkeyPatch.context() as mp:
        return spec, enumerate_with_plans(spec, 2, mp)[1]


@pytest.mark.parametrize("case, count, keys, reps", [
    (EXC_LINE_GENUS_ONE, 4,
     "9d96bb80ba99432d5f23924e7e6549f84d06caf16acf1e9677965c043f642d36",
     "b162f18331d9a5d69847cf8a0de49f975424f13a5d2902dffea5acb43ef77005"),
    (ANTI_A1_2A2, 15,
     "7b4c7e2747969a3dd68521ba851e112cb036f72822cb6682a3ab3bbc2427fc17",
     "4e11565a81e1a57451a6a1ce6791e02d1764de79ea9202692877ad05a2675099"),
    (P4B_2EPS1, 7,
     "30f4aae2517ef13319b2ec2df764a91bb6b326316c8eaa33f9046cff6f07f006",
     "c51cb78a2c02a8e9c4a4ed10003342b818ed1ff7e7c07fb14ddfd34a28978896"),
    (P4B_LINE_GENUS_ONE, 59,
     "c662a91f4c07df2799e3d95fa74b4c36b3fd83a9210c6e451c8d60fd330e7513",
     "b640cd4084732e14a3aae9d355844457f8dade3165e972455cde6ef2b62e408f"),
    (T2_SECTION_GENUS_ONE, 7,
     "158dd4b564794c97d0f96b8b4155748244365d080d2c13112e038dc22785ebac",
     "ba217825099b352a7defbea23582b27ab2ae2687f0467f24c27a3eab0284f510"),
], ids=["exc-line-g1", "anti-a1+2a2", "p4b-2eps1", "p4b-line-g1",
        "t2-section-g1"])
def test_non_hyperplane_enumeration_is_pinned(case, count, keys, reps):
    strata = enumerate_strata(fund_contact_spec(*case), 2)
    assert key_digest(strata) == (count, keys)
    assert representative_digest(strata) == reps
    assert any(s.depth == 2 for s in strata)


def broken_plan_rules(pair, bottom, level_plan):
    """The rules of `_build_levels` that a level plan breaks."""
    q = strata_module.neck_model(pair)
    broken = set()
    for comps in level_plan:
        if any(q.end_degrees(a, d)[0] < 0 for a, d, _ in comps):
            broken.add("degree-floor")
        if any(a == b and (d, g) > (e, h)
               for (a, d, g), (b, e, h) in zip(comps, comps[1:])):
            broken.add("unsorted")
    return broken


def test_level_plans_obey_both_rules(torus, conic_minus_eps1):
    _, _, plans, _ = torus
    cases = [(P2H, plans), (P4B, conic_minus_eps1[1])]
    for spec in [conic_tangent_spec(), conic_split_spec(),
                 line_genus_one_spec(),
                 fund_contact_spec(*ANTI_A1_2A2),
                 fund_contact_spec(*P4B_LINE_GENUS_ONE),
                 fund_contact_spec(*T2_SECTION_GENUS_ONE)]:
        with pytest.MonkeyPatch.context() as mp:
            cases.append((spec.pair, enumerate_with_plans(spec, 2, mp)[1]))
    identical = floored = 0
    for pair, made in cases:
        assert made
        q = strata_module.neck_model(pair)
        for bottom, level_plan, _ in made:
            assert broken_plan_rules(pair, bottom, level_plan) == set()
            identical += any(a == b for comps in level_plan
                             for (a, _, _), (b, _, _) in zip(comps, comps[1:]))
            # fiber degree 0 would leave a level-1 zero side negative
            floored += any(q.end_degrees(a, 0)[0] < 0
                           for a, _, _ in level_plan[0])
    # both rules had something to act on, the floor at level 1
    assert identical and floored


def unmet_bottoms(spec):
    """The level-0 (class, genus) multisets holding a class that meets D
    in no point, each with the divisor class left for the levels above,
    as `enumerate_strata` would pass them to `_build_levels` if it did
    not leave such classes out."""
    pair = spec.pair
    X = pair.ambient
    cands = [(c, g) for c in X.effective.classes(X.area(spec.beta))
             for g in range(X.effective.min_genus(c), spec.genus + 1)]
    table = _ExactSums(cands, [()] * len(cands),
                       [X.area(c) for c, _ in cands], [0] * len(cands))
    for b in range(X.area(spec.beta) + 1):
        for bottom in table((), b, 0):
            if all(pair.contact_count(c) > 0 for c, _ in bottom) or \
                    sum(g for _, g in bottom) > spec.genus:
                continue
            used = cls(X.basis, {})
            for c, _ in bottom:
                used = used + c
            alpha = _solve_preimage(pair, spec.beta - used)
            if alpha is not None:
                yield bottom, alpha


UNMET_CASES = [(EXC, 0, {"lambda": 3, "eps": -1}, (1,)),
               (EXC, 1, {"lambda": 3, "eps": -2}, (1, 1)),
               P4B_CONIC_MINUS_EPS1]


def test_level_zero_classes_all_meet_the_divisor():
    build = strata_module._build_levels
    for case in UNMET_CASES:
        spec = fund_contact_spec(*case)
        assert next(unmet_bottoms(spec), None)
        bottoms = []

        def spy(spec_, k, bottom, alpha_total, table):
            bottoms.append(bottom)
            return build(spec_, k, bottom, alpha_total, table)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strata_module, "_build_levels", spy)
            enumerate_strata(spec, 2)
        assert bottoms
        assert all(spec.pair.contact_count(c) > 0
                   for bottom in bottoms for c, _ in bottom)


def test_level_zero_classes_meeting_d_nowhere_leave_a_vertex_alone():
    # a level-0 component of contact count <= 0 has no ends, so every
    # stratum over it at depth >= 1 is disconnected
    built = 0
    for case in UNMET_CASES:
        spec = fund_contact_spec(*case)
        table = strata_module._StrataTable(spec.relatives)
        for bottom, alpha in unmet_bottoms(spec):
            for k in (1, 2):
                for s in strata_module._build_levels(spec, k, bottom, alpha,
                                                     table):
                    built += 1
                    assert "disconnected" in validate(s)
    assert built


def window(spec, bottom, level_plan):
    """(genus left, edges that close it on a connected graph, fewest
    edges, most edges) of a level plan, and whether every boundary's
    positive lower and upper degrees have one sum."""
    pair = spec.pair
    q = strata_module.neck_model(pair)
    infs = [pair.contact_count(c) for c, _ in bottom]
    left = spec.genus - sum(g for _, g in bottom)
    v, fewest, most, balanced = len(bottom), 0, 0, True
    for comps in level_plan:
        lower = [d for d in infs if d > 0]
        upper = [z for z in (q.end_degrees(a, d)[0] for a, d, _ in comps)
                 if z > 0]
        balanced &= sum(lower) == sum(upper)
        fewest += max(len(lower), len(upper))
        most += sum(lower)
        left -= sum(g for _, _, g in comps)
        v += len(comps)
        infs = [q.end_degrees(a, d)[1] for a, d, _ in comps]
    return left, left + v - 1, fewest, most, balanced


def test_plans_reaching_attach_can_close(torus, torus_three,
                                         conic_minus_eps1):
    cases = [(cubic_torus_spec(), torus[2]),
             (cubic_torus_spec(), torus_three[2]), conic_minus_eps1]
    for case in (EXC_LINE_GENUS_ONE, ANTI_A1_2A2, P4B_2EPS1,
                 P4B_LINE_GENUS_ONE, T2_SECTION_GENUS_ONE):
        spec = fund_contact_spec(*case)
        with pytest.MonkeyPatch.context() as mp:
            cases.append((spec, enumerate_with_plans(spec, 2, mp)[1]))
    tight = set()
    for spec, plans in cases:
        assert plans
        q = strata_module.neck_model(spec.pair)
        orders = sum(ins.order for ins in spec.relatives)
        for bottom, level_plan, ends in plans:
            # the carried end degrees are the catalog's
            assert ends == [[(None, spec.pair.contact_count(c))
                             for c, _ in bottom]] + \
                [[q.end_degrees(a, d) for a, d, _ in comps]
                 for comps in level_plan]
            assert sum(d for _, d in ends[-1]) == orders
            left, need, fewest, most, balanced = \
                window(spec, bottom, level_plan)
            assert balanced
            assert left >= 0
            assert fewest <= need <= most
            tight.update({"fewest"} if fewest == need else set(),
                         {"most"} if need == most else set())
    # both bounds of the window are met by some plan
    assert tight == {"fewest", "most"}


def materialize_calls(spec, plans, table, cut):
    """The arguments of every `_materialize` call that `_attach_contacts`
    makes on the level plans, reading `table`, with the bare-level cut or
    without it."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strata_module, "_materialize",
                   lambda *args: calls.append(args) or ())
        if not cut:
            mp.setattr(strata_module, "_bare_level", lambda *_: False)
        for plan in plans:
            list(strata_module._attach_contacts(spec, *plan, table))
    return calls


def test_pairs_with_a_bare_level_build_only_unstable_strata(torus):
    cases = [(cubic_torus_spec(), torus[2])]
    spec = fund_contact_spec(*P4B_LINE_GENUS_ONE)
    with pytest.MonkeyPatch.context() as mp:
        cases.append((spec, enumerate_with_plans(spec, 2, mp)[1]))
    for spec, plans in cases:
        table = strata_module._StrataTable(spec.relatives)
        kept = iter(materialize_calls(spec, plans, table, cut=True))
        want, skipped = next(kept, None), []
        for args in materialize_calls(spec, plans, table, cut=False):
            if args == want:
                want = next(kept, None)
            else:
                skipped.append(args)
        # the kept calls come in their old order
        assert want is None
        assert skipped
        for args in skipped:
            built = list(strata_module._materialize(*args))
            assert built
            for s in built:
                assert "unstable-level" in validate(s)


def old_boundary_options(lower, upper):
    """A boundary's options as `_attach_contacts` built them for every
    level plan: each product of per-end partitions, the lower ones
    outside, kept when the sorted part pools agree."""
    def partitions(deg):
        return _partitions(deg) if deg >= 0 else ((),)

    return [(low, up)
            for low in product(*[partitions(d) for d in lower])
            for up in product(*[partitions(z) for z in upper])
            if sorted(m for p in low for m in p)
            == sorted(m for p in up for m in p)]


def test_boundary_options_are_built_once_per_degree_lists(monkeypatch):
    """The torus cubic at depth 2 keeps one table for its
    `enumerate_strata` call, builds the options of each (lower, upper)
    degree-list pair once, and every read gives what a fresh build gives;
    the keys and representatives stay pinned."""
    tables, reads, built = [], [], Counter()
    original = strata_module._StrataTable.boundary_options

    def recorded(table, lower, upper):
        if not tables or tables[-1] is not table:
            tables.append(table)
        built[lower, upper] += (lower, upper) not in table.boundaries
        reads.append((lower, upper))
        out = original(table, lower, upper)
        assert out == old_boundary_options(lower, upper)
        return out

    monkeypatch.setattr(strata_module._StrataTable, "boundary_options",
                        recorded)
    strata = enumerate_strata(cubic_torus_spec(), 2)
    assert key_digest(strata) == TORUS_KEYS
    assert representative_digest(strata) == TORUS_REPRESENTATIVES
    table, = tables
    assert set(built.values()) == {1} and set(built) == set(table.boundaries)
    assert len(reads) > 2 * len(table.boundaries)


def old_outer_assignments(relatives, degs):
    """The outer assignments as `_attach_contacts` built them for every
    level plan: one sub-multiset per top component, taken in turn from
    what the earlier components left."""
    def rec(ci, remaining):
        if ci == len(degs):
            if not remaining:
                yield []
            return
        for subset in strata_module._order_subsets(remaining, degs[ci]):
            rest = list(remaining)
            for ins in subset:
                rest.remove(ins)
            for tail in rec(ci + 1, rest):
                yield [list(subset)] + tail

    return list(rec(0, list(relatives)))


def test_outer_assignments_are_built_once_per_top_degrees(monkeypatch):
    """One table per call builds the outer assignments of each tuple of
    top-level degrees once, and every read gives what the old per-plan
    build gave."""
    spec = cubic_torus_spec()
    tables, built, reads = [], Counter(), 0
    original = strata_module._StrataTable.outer_assignments

    def recorded(table, degs):
        nonlocal reads
        if not tables or tables[-1] is not table:
            tables.append(table)
        built[degs] += degs not in table.outers
        reads += 1
        out = original(table, degs)
        assert [list(map(list, outer)) for outer in out] == \
            old_outer_assignments(spec.relatives, degs)
        return out

    monkeypatch.setattr(strata_module._StrataTable, "outer_assignments",
                        recorded)
    strata = enumerate_strata(spec, 2)
    assert key_digest(strata) == TORUS_KEYS
    assert representative_digest(strata) == TORUS_REPRESENTATIVES
    table, = tables
    assert set(built.values()) == {1} and set(built) == set(table.outers)
    assert reads > 10 * len(table.outers)


def test_a_torus_enumeration_does_bounded_work(monkeypatch):
    """The torus cubic at depth 2 builds at most 243 `LevelComponent`s
    (1,071 when each structural choice built its own), calls
    `_order_subsets` at most 7 times (542 when each level plan built its
    outer assignments) and keys exactly 258 candidates for its 216
    strata."""
    counts = Counter()
    post = LevelComponent.__post_init__
    order_subsets = strata_module._order_subsets

    def component(self):
        counts["LevelComponent"] += 1
        post(self)

    def subsets(items, need):
        counts["_order_subsets"] += 1
        return order_subsets(items, need)

    monkeypatch.setattr(LevelComponent, "__post_init__", component)
    monkeypatch.setattr(strata_module, "_order_subsets", subsets)
    keyed = spy_keys(monkeypatch)
    strata = enumerate_strata(cubic_torus_spec(), 2)
    assert key_digest(strata) == TORUS_KEYS
    assert counts["LevelComponent"] <= 243
    assert counts["_order_subsets"] <= 7
    assert len(keyed) == 258


def test_the_table_dies_with_its_call(monkeypatch):
    """No component outlives the call unless a kept stratum holds it, and
    none outlives the result."""
    built = []
    post = LevelComponent.__post_init__

    def recorded(self):
        post(self)
        built.append(weakref.ref(self))

    monkeypatch.setattr(LevelComponent, "__post_init__", recorded)
    strata = enumerate_strata(cubic_torus_spec(), 2)
    kept = {id(c) for s in strata for c in s.components}
    alive = [ref for ref in built if ref() is not None]
    assert alive and len(alive) < len(built)
    assert all(id(ref()) in kept for ref in alive)
    del strata
    assert all(ref() is None for ref in built)


def test_enumerate_rejects_missing_contact_data():
    x = P2H.ambient
    spec = InvariantSpec(P2H, 0, x.gen("lambda", 2),
                         relatives=(rel(P2H, 1, "fund"),))
    with pytest.raises(InvariantError):
        enumerate_strata(spec, 0)


def test_enumerate_negative_contact_signals_zero():
    anti = builtin("s2xs2_antidiag")
    spec = InvariantSpec(anti, 0, anti.ambient.gen("a1"),
                         absolutes=(absins(anti.ambient, "pt"),))
    with pytest.raises(DefinedZero):
        enumerate_strata(spec, 1)


# --- matchings, one per orbit of interchangeable contacts ----------------


def run_labelings(r):
    """Every split of r nodes into runs of adjacent nodes, as a label per
    node."""
    for cuts in range(2 ** (r - 1)):
        yield tuple(bin(cuts & ((1 << j) - 1)).count("1") for j in range(r))


@cache
def adjacent_swaps(r):
    """The permutations of range(r) in `permutations` order, and for each
    adjacent pair (a, a+1) the index of every permutation after swapping
    its lower nodes a, a+1 and after swapping its upper nodes a, a+1."""
    perms = list(permutations(range(r)))
    index = {p: i for i, p in enumerate(perms)}
    low, up = [], []
    for a in range(r - 1):
        low.append([index[p[:a] + (p[a + 1], p[a]) + p[a + 2:]]
                    for p in perms])
        swap = list(range(r))
        swap[a], swap[a + 1] = a + 1, a
        up.append([index[tuple(swap[x] for x in p)] for p in perms])
    return perms, low, up


def brute_orbit_firsts(lower, upper):
    """Group all bijections into orbits under swaps of same-label nodes on
    either side; the first member of each orbit in `permutations` order,
    and the orbit sizes.  Runs are intervals, so the swaps of adjacent
    same-label nodes generate every rearrangement within the runs."""
    r = len(lower)
    perms, low, up = adjacent_swaps(r)
    moves = [low[a] for a in range(r - 1) if lower[a] == lower[a + 1]]
    moves += [up[a] for a in range(r - 1) if upper[a] == upper[a + 1]]
    placed = [False] * len(perms)
    firsts, sizes = [], []
    for i in range(len(perms)):
        if placed[i]:
            continue
        placed[i] = True
        todo, size = [i], 0
        while todo:
            j = todo.pop()
            size += 1
            for move in moves:
                if not placed[move[j]]:
                    placed[move[j]] = True
                    todo.append(move[j])
        firsts.append(perms[i])
        sizes.append(size)
    return firsts, sizes


@pytest.mark.parametrize("r", range(1, 7))
def test_orbit_matchings_match_brute_force(r):
    for lower in run_labelings(r):
        for upper in run_labelings(r):
            firsts, sizes = brute_orbit_firsts(lower, upper)
            assert sum(sizes) == factorial(r)
            assert list(_orbit_matchings(lower, upper)) == firsts


# --- the multiset enumerator ---------------------------------------------


def brute_multisets(pool, budgets, *size_lists):
    """Every sorted index tuple with the right sums, in lexicographic order."""
    found = sorted(
        idx for r in range(sum(budgets) + 1)
        for idx in combinations_with_replacement(range(len(pool)), r)
        if all(sum(sizes[i] for i in idx) == b
               for sizes, b in zip(size_lists, budgets)))
    return [tuple(pool[i] for i in idx) for idx in found]


def fresh_read(pool, vecs, target, sizes, budget, sizes2, budget2):
    """The multisets of one exact sum, read once from a fresh table."""
    return _ExactSums(pool, vecs, sizes, sizes2)(target, budget, budget2)


@pytest.mark.parametrize("sizes", [[1, 2, 2, 3], [3, 1, 2, 1], [2, 4, 5, 3]])
def test_multisets_match_brute_force(sizes):
    """Over empty vectors a table lists the multisets of one size sum.  A
    table takes its pool by size, so the pool is sorted first; unsorted,
    it is refused."""
    if sizes != sorted(sizes):
        with pytest.raises(InvariantError, match="must not decrease"):
            _ExactSums("abcd", [()] * 4, sizes, [0] * 4)
    pool, sizes = zip(*sorted(zip("abcd", sizes), key=lambda t: t[1]))
    for budget in range(-1, 9):
        assert fresh_read(pool, [()] * 4, (), sizes, budget, [0] * 4, 0) == \
            brute_multisets(pool, (budget,), sizes)


def vector_sum(vecs, width):
    return tuple(map(sum, zip((0,) * width, *vecs)))


def test_exact_multisets_with_two_budgets_match_brute_force():
    # (order, area) items as in the neck components; area may be zero.
    # Empty vectors add nothing, so every two-budget multiset is kept.
    pool = "abcde"
    orders, areas = [1, 1, 2, 2, 3], [0, 2, 0, 3, 1]
    for b1 in range(-1, 6):
        for b2 in range(-1, 6):
            assert fresh_read(pool, [()] * 5, (), orders, b1, areas, b2) == \
                brute_multisets(pool, (b1, b2), orders, areas)
    # zero in the second budget only is fine too
    assert fresh_read("ab", [(), ()], (), [1, 1], 3, [0, 1], 1) == \
        [("a", "a", "b")]


MIXED = [(1, 0), (0, 1), (1, -1), (-1, 2)]


EXACT_CASES = pytest.mark.parametrize("sizes, sizes2, vecs", [
    ([1, 2, 2, 3], [0, 0, 0, 0], MIXED),
    ([1, 1, 2, 3], [2, 0, 1, 0], MIXED),
    ([2, 2, 2, 2], [1, 1, 0, 0], MIXED),
    ([1, 2, 2, 2], [0, 1, 1, 1], [(1, 0), (0, 1), (0, 1), (-1, 1)]),
    ([1, 2, 2, 2], [1, 0, 1, 3], MIXED),
    ([1, 1, 1, 2], [3, 1, 0, 1], MIXED),
], ids=["one-budget", "two-budgets", "equal-sizes", "equal-keys",
        "rising-seconds", "falling-seconds"])


@EXACT_CASES
def test_exact_multisets_match_brute_force(sizes, sizes2, vecs):
    """Vectors with negative entries, zero and nonzero targets, budgets
    below zero, and two items with the same (vector, size, second size).
    Runs of equal sizes whose second sizes rise, fall or do both check
    that the walk leaves a run only where nothing left in it fits."""
    pool = "abcd"
    of = dict(zip(pool, vecs))
    for b1 in range(-1, 8):
        for b2 in range(-1, 4):
            walked = brute_multisets(pool, (b1, b2), sizes, sizes2)
            for target in product(range(-2, 4), repeat=2):
                assert fresh_read(pool, vecs, target, sizes, b1,
                                  sizes2, b2) == [
                    ms for ms in walked
                    if vector_sum([of[x] for x in ms], 2) == target]


@EXACT_CASES
def test_one_table_read_for_many_targets_matches_fresh_reads(
        sizes, sizes2, vecs):
    """A table keeps what each read walked; reading it for every target,
    in one order and then in the reverse one, gives what a fresh one-shot
    read gives, which the brute-force test above checks."""
    pool = "abcd"
    table = _ExactSums(pool, vecs, sizes, sizes2)
    reads = [(target, b1, b2) for b1 in range(-1, 8) for b2 in range(-1, 4)
             for target in product(range(-2, 4), repeat=2)]
    for target, b1, b2 in reads + reads[::-1]:
        assert table(target, b1, b2) == fresh_read(
            pool, vecs, target, sizes, b1, sizes2, b2)
    assert table.memo


def test_exact_multisets_reject_a_decreasing_pool():
    with pytest.raises(InvariantError, match="must not decrease"):
        fresh_read("ab", [(1,), (0,)], (1,), [2, 1], 3, [0, 0], 0)


def test_exact_sums_match_class_sums():
    """The search keeps exactly the multisets whose class sum is the
    target, the empty one included when the target is zero."""
    X = builtin("p3blow2")
    model = X.effective
    parts = model.classes(5)
    n = len(parts)
    vecs, areas = [p.vec for p in parts], [model.area(p) for p in parts]

    def exact_sums(multisets, target):
        # the filter the one search replaces, on integer vectors
        width = len(target.vec)
        return [ms for ms in multisets
                if vector_sum([p.vec for p in ms], width) == target.vec]

    for target in [X.zero(), X.cls({"lambda": 1}),
                   X.cls({"lambda": 2, "eps1": -1}),
                   X.cls({"lambda": 1, "eps1": -1, "eps2": -1})]:
        area = model.area(target)
        found = fresh_read(parts, vecs, target.vec, areas, area, [0] * n, 0)
        candidates = fresh_read(parts, [()] * n, (), areas, area, [0] * n, 0)
        assert found == exact_sums(candidates, target)
        assert found == [ms for ms in candidates
                         if sum(ms, X.zero()) == target]
        assert found
    assert fresh_read(parts, vecs, X.zero().vec, areas, 0, [0] * n, 0) == \
        [()]
    assert fresh_read([], [], X.zero().vec, [], 0, [], 0) == [()]
    assert fresh_read([], [], X.cls({"lambda": 1}).vec, [], 0, [], 0) == []


def test_partitions_are_weakly_decreasing_and_complete():
    counts = [len(_partitions(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert _partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # cached, and immutable so no caller can change what the next one reads
    assert _partitions(4) is _partitions(4)


def test_partitions_order_is_pinned():
    """`_StrataTable.boundary_options` walks partitions in this order, so the stratum
    `enumerate_strata` keeps for a key depends on it: largest first part
    first, as reversed sorted tuples sort in reverse."""
    for n in range(9):
        assert _partitions(n) == tuple(sorted(
            (c[::-1] for r in range(n + 1)
             for c in combinations_with_replacement(range(1, n + 1), r)
             if sum(c) == n), reverse=True)), n


def test_relabelings_are_the_label_preserving_permutations():
    for n in range(7):
        for cuts in product((False, True), repeat=max(n - 1, 0)):
            labels = [sum(cuts[:i]) for i in range(n)]
            got = list(_relabelings(labels))
            assert len(got) == len(set(got))
            assert set(got) == {
                p for p in permutations(range(n))
                if all(labels[p[i]] == labels[i] for i in range(n))}


def test_solve_preimage_on_the_antidiagonal():
    anti = builtin("s2xs2_antidiag")
    X, D = anti.ambient, anti.divisor
    diag = X.cls({"a1": 1, "a2": -1})
    assert _solve_preimage(anti, diag) == D.fundamental
    assert _solve_preimage(anti, diag.scale(3)) == D.gen("fund", 3)
    assert _solve_preimage(anti, X.gen("a1")) is None


@pytest.mark.parametrize("sizes", [[1, 0], [2, -1]],
                         ids=["zero", "negative"])
def test_multisets_reject_free_items(sizes):
    with pytest.raises(InvariantError, match="free class"):
        _ExactSums("ab", [(), ()], sizes, [0, 0])


@pytest.mark.parametrize("sizes, sizes2", [
    ([0, 1], [0, 1]),
    ([0, 1], [1, 0]),
    ([1, 1], [1, -1]),
], ids=["zero-in-both", "zero-in-first", "negative-second"])
def test_exact_multisets_reject_free_items(sizes, sizes2):
    with pytest.raises(InvariantError, match="free class"):
        fresh_read("ab", [(), ()], (), sizes, 3, sizes2, 2)


# --- the greedy key against the exhaustive search -------------------------


def assert_keys_match_the_search(keyed):
    assert keyed
    for s in keyed:
        assert stratum_key(s) == _searched_key(s)


def test_greedy_key_matches_the_search_on_the_torus(torus_three):
    # depth 3 keys every candidate that depth 2 keys, and more
    assert_keys_match_the_search(torus_three[1])


@pytest.mark.parametrize("pair", ["p2_hyperplane", "p3_hyperplane"])
def test_greedy_key_matches_the_search_on_the_census(pair):
    # the census shapes: degree <= 3, genus <= 1, depth 1 and 2.  Depth 2
    # keys every candidate that depth 1 keys, and the torus cubic at depth 2
    # is in the torus test
    pair = builtin(pair)
    keyed = []
    for d, g in product((1, 2, 3), (0, 1)):
        for orders in _partitions(d):
            if (pair, d, g, orders) == (P2H, 3, 1, (2, 1)):
                continue
            with pytest.MonkeyPatch.context() as mp:
                seen = spy_keys(mp)
                enumerate_strata(
                    fund_contact_spec(pair, g, {"lambda": d}, orders), 2)
            keyed += seen
    assert_keys_match_the_search(keyed)


def test_greedy_key_compares_component_texts():
    # the text "10z8;" sorts before "9z0;": the second end of the conic C
    # goes to the fiber at index 9, after the one at index 10; as numbers
    # the order would be the other way round
    x, pt = P2H.ambient, gen(P2H.divisor.basis, "pt")
    low = [LevelComponent(0, 0, cls=x.cls({"lambda": d}),
                          inf=(Contact(f"a{d}", d),)) for d in range(2, 10)]
    conic = LevelComponent(0, 0, cls=x.cls({"lambda": 2}),
                           inf=(Contact("c1", 1), Contact("c2", 1)))
    small = LevelComponent(1, 0, alpha=dzero(P2H), fiber=1,
                           zero=(Contact("p", 1),), inf=(Contact("pt", 1, pt),))
    big = LevelComponent(1, 0, alpha=dzero(P2H), fiber=45,
                         zero=tuple(Contact(f"b{d}", d) for d in range(1, 10)),
                         inf=(Contact("top", 45, pt),))
    s = StratumType(P2H, (big, small, conic, *low),
                    (("c1", "p"), ("c2", "b1"),
                     *((f"a{d}", f"b{d}") for d in range(2, 10))))
    assert validate(s) == []
    key = stratum_key(s)
    assert key == _searched_key(s)
    assert "#0i0-10z7;1i0-10z8;1i1-9z0;2i0-10z6;" in key


def test_greedy_key_compares_position_texts():
    # the fiber takes twelve order-1 ends in runs told apart by their
    # constraints: none at positions 0-1, k*pt at position k for k = 2..9,
    # fund at 10-11.  Position 0 goes to the first edge; then the two ends
    # of the conic compete for positions 1 and 10, and "11z10;" sorts
    # before "11z1;", though "11z1" is a prefix of "11z10"
    x, d = P2H.ambient, P2H.divisor
    pt, fund = gen(d.basis, "pt"), gen(d.basis, "fund")
    labels = [None, None, *(d.cls({"pt": k}) for k in range(2, 10)),
              fund, fund]
    fiber = LevelComponent(1, 0, alpha=dzero(P2H), fiber=12,
                           zero=tuple(Contact(f"z{j}", 1, c)
                                      for j, c in enumerate(labels)),
                           inf=(Contact("top", 12, pt),))
    line, conic = x.gen("lambda"), x.cls({"lambda": 2})
    low = [LevelComponent(0, 0, cls=line, inf=(Contact("e", 1),)),
           LevelComponent(0, 1, cls=conic,
                          inf=(Contact("w0", 1), Contact("w1", 1)))]
    low += [LevelComponent(0, g, cls=line, inf=(Contact(f"r{g}", 1),))
            for g in range(2, 11)]
    s = StratumType(P2H, (fiber, *low),
                    (("e", "z0"), ("w0", "z1"), ("w1", "z10"),
                     *((f"r{g}", f"z{g}") for g in range(2, 10)),
                     ("r10", "z11")))
    assert validate(s) == []
    key = stratum_key(s)
    assert key == _searched_key(s)
    assert "#0i0-11z0;1i0-11z10;1i1-11z1;" in key


def test_greedy_key_orders_positions_as_the_text_does():
    # eleven order-1 ends on one run on each side, so the search would try
    # 11! orders of each.  Edge texts compare "1z10;" < "1z1;", so the
    # least text hands the zero positions out as 0, 10, 1, 2, ..., 9, where
    # number order gives 0, 1, ..., 10 and plain string order 0, 1, 10, 2, ...
    x, pt = P2H.ambient, gen(P2H.divisor.basis, "pt")
    ones = range(11)
    low = LevelComponent(0, 0, cls=x.cls({"lambda": 11}),
                         inf=tuple(Contact(f"a{i}", 1) for i in ones))
    fiber = LevelComponent(1, 0, alpha=dzero(P2H), fiber=11,
                           zero=tuple(Contact(f"b{i}", 1) for i in ones),
                           inf=(Contact("top", 11, pt),))
    s = StratumType(P2H, (fiber, low),
                    tuple((f"a{i}", f"b{3 * i % 11}") for i in ones))
    assert validate(s) == []
    run = ",".join("1" for _ in ones)
    edges = ";".join(f"0i{i}-1z{p}"
                     for i, p in enumerate([0, 10, *range(1, 10)]))
    assert stratum_key(s) == (f"L0:g0:11*lambda:z[]:i[{run}]"
                              f"&L1:g0:0+11f:z[{run}]:i[11:pt]#{edges}")


def relabeled(s, rng):
    """`s` with fresh node names, and its components, their ends and its
    matchings in a random order."""
    nodes = [c.node for comp in s.components for c in comp.zero + comp.inf]
    fresh = dict(zip(nodes, (f"v{n}" for n in rng.sample(range(1000),
                                                         len(nodes)))))

    def ends(contacts):
        out = [replace(c, node=fresh[c.node]) for c in contacts]
        rng.shuffle(out)
        return out

    comps = [replace(comp, zero=ends(comp.zero), inf=ends(comp.inf))
             for comp in s.components]
    matchings = [(fresh[a], fresh[b]) for a, b in s.matchings]
    rng.shuffle(comps)
    rng.shuffle(matchings)
    return StratumType(s.pair, comps, matchings, s.insertions)


def test_greedy_key_ignores_names_and_orders(torus):
    rng = random.Random(23)
    for s in torus[3]:
        t = relabeled(s, rng)
        assert stratum_key(t) == stratum_key(s) == _searched_key(t)
