import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fractions import Fraction

from relgw.lattice import (BasisMismatchError, GradedBasis, GradeError,
                           HomologyClass, LatticeError, LinearFunctional, cls,
                           combination, gen)
from relgw.spaces import CatalogError, builtin

X = builtin("p4blow2")
B = X.basis


# -- construction keeps every check ---------------------------------------


@pytest.mark.parametrize("coeffs, error", [
    ((("lambda", 1), ("lambda", 2)), LatticeError),
    ((("lambda", 1), ("eps1", 0)), LatticeError),
    ((("lambda", 1), ("pi", 1)), GradeError),
    ((("lambda", 1), ("nosuch", 1)), LatticeError),
], ids=["repeated-name", "zero-coefficient", "mixed-grades",
        "unknown-element"])
def test_class_construction_rejects(coeffs, error):
    with pytest.raises(error):
        HomologyClass.from_pairs(B, coeffs)


def test_class_coefficients_follow_basis_order():
    c = cls(B, {"eps2": 1, "lambda": 3, "eps1": -1})
    assert c.coeffs == (("lambda", 3), ("eps1", -1), ("eps2", 1))
    assert c.encode() == "3*lambda-eps1+eps2"


def test_basis_lookups():
    assert [B.grade(e) for e, _ in B.elements] == [g for _, g in B.elements]
    with pytest.raises(LatticeError):
        B.grade("nosuch")


# -- functionals ----------------------------------------------------------


def test_functional_rejects_undefined_element():
    partial = LinearFunctional("partial", B, (("lambda", 3),))
    assert partial(cls(B, {"lambda": 2})) == 6
    with pytest.raises(LatticeError):
        partial(cls(B, {"lambda": 1, "eps1": -1}))


def test_functional_rejects_non_curve_grade():
    with pytest.raises(GradeError):
        X.area(cls(B, {"pi": 1}))


# -- arithmetic -----------------------------------------------------------


def test_subtraction_is_adding_the_negative():
    grid = range(-2, 3)
    classes = [cls(B, {"lambda": a, "eps1": b, "eps2": c})
               for a, b, c in itertools.product(grid, repeat=3)]
    for a, b in itertools.product(classes[::7], classes[::5]):
        assert a - b == a + b.scale(-1)


# -- lookup tables are not fields -----------------------------------------


def test_combination_is_exact_or_outside_the_span():
    lam, e1, e2 = X.gen("lambda"), X.gen("eps1"), X.gen("eps2")
    gens = (lam - e1, lam - e2)
    assert combination(gens, cls(B, {"lambda": 5, "eps1": -2, "eps2": -3})) \
        == (2, 3)
    assert combination((lam.scale(2),), lam) == (Fraction(1, 2),)
    assert combination(gens, lam) is None          # x + y = 1, x = y = 0
    assert combination(gens, X.gen("pi")) is None  # no class has a pi entry
    assert combination((), X.zero()) == ()
    assert combination(gens, X.zero()) == (0, 0)
    with pytest.raises(LatticeError, match="dependent"):
        combination((lam, e1, lam - e1), lam)


def test_equal_bases_compare_and_hash_equal():
    one = GradedBasis(B.name, B.n, tuple(B.elements))
    two = GradedBasis(B.name, B.n, tuple(B.elements))
    assert one is not two
    assert one == two == B
    assert hash(one) == hash(two) == hash(B)
    assert cls(one, {"lambda": 1}) + cls(two, {"eps1": 1}) == \
        cls(B, {"lambda": 1, "eps1": 1})


# -- the generator table ----------------------------------------------------

SPACE_IDS = ("p0", "p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2",
             "t2_ruled", "t2_base", "s2xs2", "antidiag_sphere")
PAIR_IDS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
            "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
            "s2xs2_antidiag")


def reached_bases():
    """Every basis object `builtin` reaches: catalog spaces, the ambient and
    divisor of each pair, and the totals of the `y_of:` and `q_of:`
    bundles with their pairs at infinity."""
    found = {}

    def add(space):
        found[id(space.basis)] = space.basis

    for name in SPACE_IDS:
        add(builtin(name))
    for name in PAIR_IDS:
        pair = builtin(name)
        add(pair.ambient)
        add(pair.divisor)
        for prefix in ("y_of:", "q_of:"):
            try:
                setup = builtin(prefix + name)
            except CatalogError:
                continue  # no P1-bundle over a zero-dimensional divisor
            add(setup.total)
            if setup.infinity_pair is not None:
                add(setup.infinity_pair.ambient)
                add(setup.infinity_pair.divisor)
    return list(found.values())


def built_gen(basis, name, k):
    """k times a basis element, built anew as every call built it before
    bases kept a generator table."""
    if k == 0:
        return HomologyClass(basis, basis._zero, None)
    pos, grade = basis._entry(name)
    vec = list(basis._zero)
    vec[pos] = k
    return HomologyClass(basis, tuple(vec), grade)


def test_each_basis_holds_its_generators():
    bases = reached_bases()
    assert len({b.name for b in bases}) == len(bases) == 26
    for b in bases:
        for e, grade in b.elements:
            one = gen(b, e)
            assert one is gen(b, e)
            want = HomologyClass.from_pairs(b, ((e, 1),))
            assert (one, one.vec, one.grade, one.encode()) == \
                (want, want.vec, want.grade, want.encode())
            assert one.basis is b and one.grade == grade
            for k in (-2, 0, 2):
                got, old = gen(b, e, k), built_gen(b, e, k)
                assert (got, got.vec, got.grade, got.encode()) == \
                    (old, old.vec, old.grade, old.encode())
        with pytest.raises(LatticeError):
            gen(b, "nosuch")
        with pytest.raises(LatticeError):
            gen(b, "nosuch", 2)
        assert gen(b, "nosuch", 0).is_zero


def test_the_generator_table_is_not_a_field():
    assert [f.name for f in dataclasses.fields(GradedBasis)] == [
        "name", "n", "elements"]
    for b in reached_bases():
        twin = GradedBasis(b.name, b.n, tuple(b.elements))
        assert twin == b and hash(twin) == hash(b) == \
            hash((b.name, b.n, b.elements))
        assert repr(twin) == (f"GradedBasis(name={b.name!r}, n={b.n!r}, "
                              f"elements={b.elements!r})")
        assert gen(twin, b.point) == gen(b, b.point)
        assert gen(twin, b.point) is not gen(b, b.point)


# -- property: the vector classes agree with a name-keyed reference ------
#
# The reference keeps a class as a dict name -> nonzero int and reads only
# declared catalog data: basis elements, form pairs, functional values and
# map images.

SPACES = ("p4blow2", "t2_ruled", "s2xs2")
PAIRS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
         "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
         "s2xs2_antidiag")


def catalog_maps():
    """Every LatticeMap the catalog declares, by a readable label."""
    out = {}
    for name in PAIRS:
        pair = builtin(name)
        out[f"{name}.inclusion"] = pair.inclusion
        if pair.push is not None:
            out[f"{name}.push"] = pair.push
        if pair.divisor.n == 0:
            continue  # no P1-bundle over a point
        for kind in ("y_of", "q_of"):
            ruled = builtin(f"{kind}:{name}")
            out[f"{kind}:{name}.lift"] = ruled.lift
            out[f"{kind}:{name}.projection"] = ruled.projection
            if ruled.infinity_pair is not None:
                out[f"{kind}:{name}.infinity"] = ruled.infinity_pair.inclusion
    for name in ("p2blow1", "p3blow2", "p4blow2"):
        out[f"{name}.blowdown"] = builtin(name).blowdown.push
    return out


MAPS = catalog_maps()


def ref_norm(d):
    return {e: c for e, c in d.items() if c}


def ref_pairs(basis, d):
    return tuple((e, d[e]) for e, _ in basis.elements if d.get(e, 0))


def ref_grade(basis, d):
    grades = {g for e, g in basis.elements if d.get(e, 0)}
    assert len(grades) <= 1
    return grades.pop() if grades else None


def ref_encode(basis, d):
    out = ""
    for e, c in ref_pairs(basis, d):
        term = e if c == 1 else f"-{e}" if c == -1 else f"{c}*{e}"
        out += term if not out or term.startswith("-") else "+" + term
    return out or "0"


def ref_combine(d1, d2, sign):
    return ref_norm({e: d1.get(e, 0) + sign * d2.get(e, 0) for e in {*d1, *d2}})


def ref_intersect(space, d1, d2):
    grade = dict(space.basis.elements)
    table = {}
    for a, b, v in space.form.pairs:
        table[(a, b)] = table[(b, a)] = v
    return sum(c1 * c2 * table.get((a, b), 0)
               for a, c1 in d1.items() for b, c2 in d2.items()
               if grade[a] + grade[b] == space.n)


def ref_map(m, d):
    """Image of d under m, or None where some named element has no image."""
    images = dict(m.images)
    out = {}
    for e, c in d.items():
        if e not in images:
            return None
        for f, k in images[e].coeffs:
            out[f] = out.get(f, 0) + c * k
    return ref_norm(out)


def check(basis, c, d):
    """Everything a class reports agrees with the reference dict d."""
    d = ref_norm(d)
    pairs = ref_pairs(basis, d)
    assert c.coeffs == pairs
    assert c.grade == ref_grade(basis, d)
    assert c.is_zero == (not d)
    assert c.encode() == str(c) == ref_encode(basis, d)
    assert [c.coeff(e) for e in basis.names()] == [d.get(e, 0) for e in basis.names()]
    assert c.coeff("nosuch") == 0
    assert repr(c) == f"HomologyClass(basis={basis!r}, coeffs={pairs!r})"
    assert c == HomologyClass.from_pairs(basis, pairs)
    assert all(isinstance(v, int) for v in c.vec)


@st.composite
def homogeneous(draw, basis, grade=None, nonzero=False):
    """(grade, name -> int) with every name of that grade."""
    if grade is None:
        grade = draw(st.sampled_from(sorted({g for _, g in basis.elements})))
    names = basis.names(grade)
    d = draw(st.dictionaries(st.sampled_from(names), st.integers(-6, 6),
                             min_size=1 if nonzero else 0,
                             max_size=len(names)))
    if nonzero and not ref_norm(d):
        d = {names[0]: draw(st.sampled_from((-2, -1, 1, 3)))}
    return grade, d


PROPERTY = settings(derandomize=True, database=None, max_examples=100,
                    deadline=None)


@PROPERTY
@given(st.data())
def test_arithmetic_agrees_with_reference(data):
    space = builtin(data.draw(st.sampled_from(SPACES)))
    B = space.basis
    grade, d1 = data.draw(homogeneous(B))
    _, d2 = data.draw(homogeneous(B, grade))
    k = data.draw(st.integers(-4, 4))
    x, y = cls(B, d1), cls(B, d2)
    check(B, x, d1)
    check(B, y, d2)
    check(B, x + y, ref_combine(d1, d2, 1))
    check(B, x - y, ref_combine(d1, d2, -1))
    check(B, x.scale(k), {e: k * c for e, c in d1.items()})
    assert (x == y) == (ref_norm(d1) == ref_norm(d2))
    if x == y:
        assert hash(x) == hash(y)
    twin = GradedBasis(B.name, B.n, tuple(B.elements))
    assert cls(twin, d1) == x and hash(cls(twin, d1)) == hash(x)


@PROPERTY
@given(st.data())
def test_pairings_agree_with_reference(data):
    space = builtin(data.draw(st.sampled_from(SPACES)))
    B = space.basis
    g1, d1 = data.draw(homogeneous(B))
    _, d2 = data.draw(homogeneous(B))
    x, y = cls(B, d1), cls(B, d2)
    assert space.intersect(x, y) == ref_intersect(space, ref_norm(d1), ref_norm(d2))
    for f in (space.area, space.c1):
        if x.is_zero or g1 == 1:
            assert f(x) == sum(c * dict(f.values)[e] for e, c in ref_norm(d1).items())
        else:
            with pytest.raises(GradeError):
                f(x)


@PROPERTY
@given(st.data())
def test_catalog_maps_agree_with_reference(data):
    m = MAPS[data.draw(st.sampled_from(sorted(MAPS)))]
    _, d = data.draw(homogeneous(m.source))
    x = cls(m.source, d)
    want = ref_map(m, ref_norm(d))
    if want is None:
        with pytest.raises(LatticeError):
            m(x)
    else:
        check(m.target, m(x), want)


@PROPERTY
@given(st.data())
def test_mixed_grades_and_foreign_bases_raise(data):
    name, other = data.draw(st.permutations(SPACES))[:2]
    space, foreign = builtin(name), builtin(other)
    B = space.basis
    g1, d1 = data.draw(homogeneous(B, nonzero=True))
    g2 = data.draw(st.sampled_from(
        sorted({g for _, g in B.elements} - {g1})))
    _, d2 = data.draw(homogeneous(B, g2, nonzero=True))
    x, y = cls(B, d1), cls(B, d2)
    for bad in (lambda: x + y, lambda: x - y, lambda: y + x, lambda: y - x,
                lambda: cls(B, {**d1, **d2})):
        with pytest.raises(GradeError):
            bad()
    _, df = data.draw(homogeneous(foreign.basis, 1))
    z = cls(foreign.basis, df)
    curve = cls(B, data.draw(homogeneous(B, 1))[1])
    for bad in (lambda: curve + z, lambda: curve - z,
                lambda: space.intersect(curve, z), lambda: space.area(z),
                lambda: foreign.c1(curve)):
        with pytest.raises(BasisMismatchError):
            bad()
