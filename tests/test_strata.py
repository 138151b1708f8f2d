from itertools import combinations_with_replacement

from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                             InvariantSpec, expected_dimension,
                             predicted_index)
from relgw.lattice import cls, gen
from relgw.spaces import builtin
from relgw.strata import (Contact, LevelComponent, StratumType, _multisets,
                          _partitions, _position_filter, assemble_class,
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


def test_outer_contacts_are_sorted():
    s = torus_stratum_one_level()
    outs = s.outer_contacts()
    assert [c.mult for c in outs] == [2, 1]


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
        assert multilevel_index(s) == predicted_index(spec, s.depth)


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
        assert multilevel_index(s) == predicted_index(spec, s.depth)


def test_enumerate_split_scenario():
    spec = conic_split_spec()
    strata = enumerate_strata(spec, 1)
    keys = {stratum_key(s) for s in strata}
    assert stratum_key(split_stratum()) in keys
    assert len(strata) == 5
    for s in strata:
        assert multilevel_index(s) == predicted_index(spec, s.depth)


def test_enumerate_torus_scenario():
    spec = cubic_torus_spec()
    strata = enumerate_strata(spec, 2)
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


# --- the multiset enumerator ---------------------------------------------


def brute_multisets(pool, budgets, *size_lists):
    """Every sorted index tuple with the right sums, in lexicographic order."""
    found = sorted(
        idx for r in range(sum(budgets) + 1)
        for idx in combinations_with_replacement(range(len(pool)), r)
        if all(sum(sizes[i] for i in idx) == b
               for sizes, b in zip(size_lists, budgets)))
    return [tuple(pool[i] for i in idx) for idx in found]


@pytest.mark.parametrize("sizes", [[1, 2, 2, 3], [3, 1, 2, 1], [2, 4, 5, 3]])
def test_multisets_match_brute_force(sizes):
    pool = "abcd"
    for budget in range(-1, 9):
        assert _multisets(pool, sizes, budget) == \
            brute_multisets(pool, (budget,), sizes)


def test_multisets_with_two_budgets_match_brute_force():
    # (order, area) items as in the neck components; area may be zero
    pool = "abcde"
    orders, areas = [1, 1, 2, 2, 3], [0, 2, 0, 3, 1]
    for b1 in range(-1, 6):
        for b2 in range(-1, 6):
            assert _multisets(pool, orders, b1, areas, b2) == \
                brute_multisets(pool, (b1, b2), orders, areas)
    # zero in the first budget only is fine too
    assert _multisets("ab", [0, 1], 1, [1, 0], 2) == [("a", "a", "b")]


def test_partitions_are_weakly_decreasing_and_complete():
    counts = [len(_partitions(n)) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert _partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("sizes, more", [
    ([1, 0], ()),
    ([2, -1], ()),
    ([1, 0], ([1, 0], 2)),
], ids=["zero", "negative", "zero-in-both"])
def test_multisets_reject_free_items(sizes, more):
    with pytest.raises(InvariantError, match="free class"):
        _multisets("ab", sizes, 3, *more)
