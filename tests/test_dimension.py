"""Dimension and index formulas pinned against hand-checked values."""

import dataclasses
import random

import pytest

from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                             InvariantSpec, _sort_key, constraint_codim,
                             expected_dimension, projection_index,
                             raw_dimension)
from relgw.lattice import cls, gen
from relgw.spaces import CatalogError, DivisorPair, builtin
from relgw.strata import (Contact, LevelComponent, StratumType,
                          component_index, multilevel_index, validate)


def rel(pair, order, name):
    return Insertion(gen(pair.divisor.basis, name), order=order)


def absins(space, name):
    return Insertion(gen(space.basis, name))


def free_marks(space, k):
    return tuple(absins(space, "fund") for _ in range(k))


def test_exceptional_line_family():
    pair = builtin("p2blow1_exc")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda"),
                         absolutes=(absins(pair.ambient, "pt"),))
    assert raw_dimension(spec) == 3
    assert expected_dimension(spec) == 1


def test_conic_tangent_contact():
    pair = builtin("p2_hyperplane")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda", 2),
                         absolutes=free_marks(pair.ambient, 3),
                         relatives=(rel(pair, 2, "pt"),))
    assert raw_dimension(spec) == 8
    assert expected_dimension(spec) == 6


def test_conic_two_simple_contacts():
    pair = builtin("p2_hyperplane")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda", 2),
                         absolutes=free_marks(pair.ambient, 3),
                         relatives=(rel(pair, 1, "fund"), rel(pair, 1, "fund")))
    assert raw_dimension(spec) == 10
    assert expected_dimension(spec) == 8


def test_genus_one_cubic():
    pair = builtin("p2_hyperplane")
    spec = InvariantSpec(pair, 1, gen(pair.ambient.basis, "lambda", 3),
                         relatives=(rel(pair, 2, "fund"), rel(pair, 1, "fund")))
    assert raw_dimension(spec) == 10
    assert expected_dimension(spec) == 8


def test_deep_blowup_pair_admissible():
    pair = builtin("p4blow2_hyperplane")
    X = pair.ambient
    spec = InvariantSpec(pair, 0, gen(X.basis, "lambda", 2),
                         absolutes=(absins(X, "pt"), absins(X, "pt"),
                                    absins(X, "pi"), absins(X, "pi"),
                                    absins(X, "pi")),
                         relatives=(rel(pair, 1, "lambda"), rel(pair, 1, "fund")))
    assert raw_dimension(spec) == 18
    assert expected_dimension(spec) == 0


def test_degree_one_through_divisor_point():
    pair = builtin("p1_point")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "fund"),
                         relatives=(rel(pair, 1, "pt"),))
    assert raw_dimension(spec) == 1
    assert expected_dimension(spec) == 0


def test_negative_contact_is_defined_zero():
    pair = builtin("s2xs2_antidiag")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "a1"),
                         absolutes=(absins(pair.ambient, "pt"),))
    with pytest.raises(DefinedZero) as err:
        raw_dimension(spec)
    assert "-1" in err.value.reason


def test_contact_orders_must_sum_to_degree():
    pair = builtin("p2_hyperplane")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda", 2),
                         relatives=(rel(pair, 1, "pt"),))
    with pytest.raises(InvariantError):
        raw_dimension(spec)


def test_codim_examples():
    pair = builtin("p2_hyperplane")
    assert constraint_codim(rel(pair, 1, "fund"), 2) == 1
    assert constraint_codim(rel(pair, 2, "pt"), 2) == 2
    assert constraint_codim(absins(pair.ambient, "fund"), 2) == 0


def test_insertion_validation():
    p2 = builtin("p2")
    with pytest.raises(InvariantError):
        Insertion(gen(p2.basis, "pt"), order=0)
    # a second positional argument would silently be a contact order
    with pytest.raises(TypeError):
        Insertion(gen(p2.basis, "pt"), 1)
    with pytest.raises(InvariantError):
        Insertion(cls(p2.basis, {}))
    # mixed-grade classes never get as far as an insertion
    with pytest.raises(Exception):
        gen(p2.basis, "pt") + gen(p2.basis, "lambda")


def _ruled_pairs():
    """Every catalog pair whose ambient is ruled over its divisor: the torus
    pair and each infinity pair of a bundle the catalog can build."""
    names = ["t2_ruled_section"]
    for base in ("p1_point", "p2_hyperplane", "p3_hyperplane",
                 "p4_hyperplane", "p2blow1_exc", "p4blow2_hyperplane",
                 "t2_ruled_section", "s2xs2_antidiag"):
        try:
            builtin("y_of:" + base)
        except CatalogError:
            continue
        names.append("y_of:" + base)
    return names


def ruled_pair(name) -> DivisorPair:
    obj = builtin(name)
    return obj if isinstance(obj, DivisorPair) else obj.infinity_pair


@pytest.mark.parametrize("name", _ruled_pairs())
def test_pulled_back_codim_is_taken_in_the_divisor(name):
    pair = ruled_pair(name)
    n, D = pair.ambient.n, pair.divisor
    for h, grade in D.basis.elements:
        pulled = Insertion(gen(D.basis, h), pulled_back=True)
        assert constraint_codim(pulled, n) == (n - 1) - grade
    # where the preimage has a declared class, it costs the same
    for h in (D.point, D.fundamental):
        preimage = Insertion(pair.ruled.preimage(h))
        assert constraint_codim(Insertion(h, pulled_back=True), n) == \
            constraint_codim(preimage, n)


def test_pulled_back_constraints_need_a_ruled_pair():
    t2 = builtin("t2_ruled_section")
    T, TD = t2.ambient, t2.divisor
    fiber = T.gen("f")
    tail = (Insertion(TD.point, order=1),)
    ok = InvariantSpec(t2, 0, fiber, (Insertion(TD.point, pulled_back=True),),
                       tail)
    assert ok.key() == "pair:t2_ruled_section;g=0;b=f;abs=pb:pt;rel=(1,pt)"
    with pytest.raises(InvariantError, match="in wrong basis"):
        InvariantSpec(t2, 0, fiber, (Insertion(fiber, pulled_back=True),),
                      tail)
    with pytest.raises(InvariantError, match="needs a pair whose ambient"):
        InvariantSpec(T, 0, fiber, (Insertion(TD.point, pulled_back=True),))
    hyper = builtin("p2_hyperplane")
    with pytest.raises(InvariantError, match="needs a pair whose ambient"):
        InvariantSpec(hyper, 0, hyper.ambient.gen("lambda"),
                      (Insertion(hyper.divisor.point, pulled_back=True),),
                      (Insertion(hyper.divisor.fundamental, order=1),))


def level_one_index(setup, alpha, fiber, zero, inf):
    """Index of a lone genus-0 component at level 1 of the bundle `setup`,
    with the -1 for the scaling of the level; `zero` and `inf` are
    (multiplicity, constraint class) lists."""
    ends = [Contact(f"e{k}", m, c) for k, (m, c) in enumerate(zero + inf)]
    comp = LevelComponent(1, 0, alpha=alpha, fiber=fiber,
                          zero=ends[:len(zero)], inf=ends[len(zero):])
    return component_index(setup.base, setup, comp) - 1


def test_fiber_bubble_is_rigid():
    q = builtin("q_of:p2_hyperplane")
    db = q.base.divisor.basis
    fund, pt = gen(db, "fund"), gen(db, "pt")
    assert level_one_index(q, cls(db, {}), 2, [(1, fund), (1, fund)],
                           [(2, pt)]) == 0


def test_section_component_with_plane_constraint():
    y = builtin("y_of:p4blow2_hyperplane")
    db = y.base.divisor.basis
    alpha = cls(db, {"lambda": 2, "eps1": -2, "eps2": -2})
    assert level_one_index(y, alpha, 1, [], [(1, gen(db, "pi"))]) == 0
    assert level_one_index(y, alpha, 1, [], [(1, gen(db, "eps1s"))]) == 0


def line_under(pair, bubble):
    """A line of P2 meeting the divisor once, matched to the one zero-side
    end of `bubble` at level 1."""
    line = LevelComponent(0, 0, cls=gen(pair.ambient.basis, "lambda"),
                          inf=(Contact("a", 1),))
    return StratumType(pair, (line, bubble), (("a", bubble.zero[0].node),))


def test_contacts_rejected_when_degree_negative():
    # the line of the divisor with no fiber degree misses the zero section
    pair = builtin("p2_hyperplane")
    line = gen(pair.divisor.basis, "fund")
    assert builtin("q_of:p2_hyperplane").end_degrees(line, 0) == (-1, 0)
    s = line_under(pair, LevelComponent(1, 0, alpha=line, fiber=0,
                                        zero=(Contact("b", 1),)))
    assert validate(s) == ["contact-sum"]
    with pytest.raises(InvariantError, match="contact-sum"):
        multilevel_index(s)


def test_contact_multiplicities_checked():
    # a double fiber meets each section twice, but carries one simple end
    # on the zero side
    pair = builtin("p2_hyperplane")
    db = pair.divisor.basis
    s = line_under(pair, LevelComponent(1, 0, alpha=cls(db, {}), fiber=2,
                                        zero=(Contact("b", 1),),
                                        inf=(Contact("c", 2, gen(db, "pt")),)))
    assert validate(s) == ["contact-sum"]
    with pytest.raises(InvariantError, match="contact-sum"):
        multilevel_index(s)


def _random_contacts(rng, deg, names, db):
    if deg < 0:
        return []
    out = []
    left = deg
    while left:
        m = rng.randint(1, left)
        out.append((m, gen(db, rng.choice(names))))
        left -= m
    return out


def test_projection_identity_grid():
    rng = random.Random(71)
    setups = ["q_of:p2_hyperplane", "q_of:p2blow1_exc", "q_of:p4blow2_hyperplane",
              "y_of:p4blow2_hyperplane", "y_of:t2_ruled_section"]
    checked = 0
    for name in setups:
        setup = builtin(name)
        D = setup.base.divisor
        curves = D.basis.names(1)
        all_names = list(D.basis.names())
        for _ in range(120):
            alpha = cls(D.basis, {g: rng.randint(-2, 2) for g in curves})
            d = rng.randint(0, 4)
            beta = setup.class_of(alpha, d)
            if beta.is_zero:
                continue
            deg0 = setup.total.intersect(beta, setup.dzero_class)
            degi = setup.total.intersect(beta, setup.dinf_class)
            zero = _random_contacts(rng, deg0, all_names, D.basis)
            inf = _random_contacts(rng, degi, all_names, D.basis)
            got = level_one_index(setup, alpha, d, zero, inf)
            contacts = len(zero) + len(inf)
            delta = sum(c.grade for _, c in zero + inf)
            want = projection_index(setup.total.n, D.c1(alpha), contacts, delta)
            assert got == want
            checked += 1
    assert checked > 300


def test_fundamental_contacts_cost_one_each():
    pair = builtin("p2_hyperplane")
    X = pair.ambient
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(0, 3)
        degree = rng.randint(1, 4)
        spec = InvariantSpec(pair, rng.randint(0, 2),
                             gen(X.basis, "lambda", degree),
                             absolutes=tuple(absins(X, rng.choice(["pt", "lambda", "fund"]))
                                             for _ in range(k)),
                             relatives=tuple(rel(pair, 1, "fund")
                                             for _ in range(degree)))
        abs_cost = sum(constraint_codim(i, 2) for i in spec.absolutes)
        assert expected_dimension(spec) == raw_dimension(spec) - degree - abs_cost


def test_expected_dimension_permutation_invariant():
    pair = builtin("p4blow2_hyperplane")
    X = pair.ambient
    absolutes = [absins(X, "pt"), absins(X, "pi"), absins(X, "lambda")]
    relatives = [rel(pair, 1, "lambda"), rel(pair, 1, "fund")]
    beta = gen(X.basis, "lambda", 2)
    specs = [InvariantSpec(pair, 0, beta, tuple(a), tuple(r))
             for a, r in [(absolutes, relatives),
                          (absolutes[::-1], relatives[::-1])]]
    assert expected_dimension(specs[0]) == expected_dimension(specs[1])
    assert specs[0].key() == specs[1].key()


def test_canonical_keys():
    p3 = builtin("p3")
    lam = gen(p3.basis, "lambda")
    spec = InvariantSpec(p3, 0, lam, tuple(absins(p3, "lambda") for _ in range(4)))
    assert spec.key() == "space:p3;g=0;b=lambda;abs=lambda,lambda,lambda,lambda"

    pair = builtin("p2_hyperplane")
    spec2 = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda", 2),
                          absolutes=free_marks(pair.ambient, 2),
                          relatives=(rel(pair, 1, "fund"), rel(pair, 1, "pt")))
    assert spec2.key() == "pair:p2_hyperplane;g=0;b=2*lambda;abs=fund,fund;rel=(1,fund),(1,pt)"


def test_main_stratum_index_equals_expected_dimension():
    pair = builtin("p2_hyperplane")
    spec = InvariantSpec(pair, 0, gen(pair.ambient.basis, "lambda", 2),
                         absolutes=free_marks(pair.ambient, 3),
                         relatives=(rel(pair, 2, "pt"),))
    conic = LevelComponent(0, 0, cls=spec.beta,
                           inf=(Contact("a", 2, gen(pair.divisor.basis, "pt")),))
    got = multilevel_index(StratumType(pair, (conic,), (), spec.absolutes))
    assert got == expected_dimension(spec) == 6


# -- facts stored at construction ------------------------------------------

# the formulas the stored facts replaced, kept here as their oracle


def old_pair(spec):
    return spec.target if isinstance(spec.target, DivisorPair) else None


def old_space(spec):
    return spec.target.ambient if isinstance(spec.target, DivisorPair) \
        else spec.target


def old_token(ins):
    if ins.order is not None:
        return f"({ins.order},{ins.cls.encode()})"
    return ("pb:" if ins.pulled_back else "") + ins.cls.encode()


def old_sort_key(ins):
    if ins.order is not None:
        return (-ins.order, ins.cls.encode())
    return (ins.cls.grade, ins.cls.encode(), ins.pulled_back)


def old_key(spec):
    pair = old_pair(spec)
    a = ",".join(old_token(i) for i in sorted(spec.absolutes, key=old_sort_key))
    out = (f"{'pair' if pair else 'space'}:{spec.target.name};g={spec.genus};"
           f"b={spec.beta.encode()};abs={a}")
    if pair is not None:
        r = ",".join(old_token(i) for i in sorted(spec.relatives, key=old_sort_key))
        out += f";rel={r}"
    return out


SPACE_IDS = ("p0", "p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2",
             "t2_ruled", "t2_base", "s2xs2", "antidiag_sphere")
PAIR_IDS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
            "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
            "s2xs2_antidiag")


def nonzero(basis):
    return [gen(basis, name, k) for name, _ in basis.elements for k in (1, 2)]


def sample_specs():
    """Specs with shuffled insertions on every catalog space and pair, the
    bundle pairs over each divisor included; the dimension is not asked."""
    rng = random.Random(31)
    targets = [builtin(name) for name in SPACE_IDS + PAIR_IDS]
    for name in PAIR_IDS:
        try:
            targets.append(builtin(f"y_of:{name}").infinity_pair)
        except CatalogError:
            pass  # no P1-bundle over a zero-dimensional divisor
    out = []
    for target in targets:
        pair = target if isinstance(target, DivisorPair) else None
        space = target if pair is None else target.ambient
        curves = [c for c in nonzero(space.basis) if c.grade == 1] + [
            cls(space.basis, {})]
        for _ in range(6):
            absolutes = [Insertion(c) for c in
                         rng.choices(nonzero(space.basis), k=3)]
            relatives = []
            if pair is not None:
                classes = nonzero(pair.divisor.basis)
                relatives = [Insertion(rng.choice(classes),
                                       order=rng.randint(1, 3))
                             for _ in range(rng.randint(0, 3))]
                if pair.ruled is not None:
                    absolutes.append(Insertion(rng.choice(classes),
                                               pulled_back=True))
            rng.shuffle(absolutes)
            out.append(InvariantSpec(target, rng.randint(0, 1),
                                     rng.choice(curves), tuple(absolutes),
                                     tuple(relatives)))
    return out


SAMPLE = sample_specs()


def assert_facts(spec):
    assert spec.pair is old_pair(spec)
    assert spec.space is old_space(spec)
    assert spec.n == old_space(spec).n
    assert spec.contact_orders == tuple(i.order for i in spec.relatives)
    for ins in spec.absolutes + spec.relatives:
        assert ins.token() == old_token(ins)
        assert _sort_key(ins) == old_sort_key(ins)
    assert spec.key() == old_key(spec)


def test_stored_facts_are_not_fields():
    assert [f.name for f in dataclasses.fields(InvariantSpec)] == [
        "target", "genus", "beta", "absolutes", "relatives"]
    assert [f.name for f in dataclasses.fields(Insertion)] == [
        "cls", "order", "pulled_back", "place"]


def test_stored_facts_match_their_formulas():
    assert len(SAMPLE) == 6 * (len(SPACE_IDS) + 2 * len(PAIR_IDS) - 1)
    for spec in SAMPLE:
        assert_facts(spec)
        twin = InvariantSpec(spec.target, spec.genus, spec.beta,
                             spec.absolutes, spec.relatives)
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(twin) == repr(spec)
        assert "contact_orders" not in repr(spec) and "_token" not in repr(spec)


def test_replace_builds_the_stored_facts_again():
    moved = 0
    for spec in SAMPLE:
        pair = spec.pair
        absolutes = list(spec.absolutes)
        for i, ins in enumerate(absolutes):
            if ins.pulled_back:
                pre = pair.ruled.preimage(ins.cls)
                if pre is not None:
                    # what kbeval._ambient_absolutes does
                    absolutes[i] = dataclasses.replace(ins, cls=pre,
                                                       pulled_back=False)
                    assert absolutes[i].token() == old_token(absolutes[i])
                    assert _sort_key(absolutes[i]) == old_sort_key(absolutes[i])
                    moved += 1
        if pair is None or any(i.pulled_back for i in absolutes):
            continue
        spec.key()  # the kept key must not follow the spec onto its ambient
        down = dataclasses.replace(spec, target=pair.ambient,
                                   absolutes=tuple(absolutes), relatives=())
        assert_facts(down)
        assert down.pair is None and down.space is pair.ambient
        assert down.contact_orders == ()
        again = dataclasses.replace(down, target=pair, relatives=spec.relatives)
        assert_facts(again)
        assert again.contact_orders == spec.contact_orders
    assert moved > 0
