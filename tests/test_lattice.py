import itertools

import pytest

from relgw.lattice import (GradedBasis, GradeError, HomologyClass,
                           LatticeError, LinearFunctional, cls)
from relgw.spaces import builtin

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
        HomologyClass(B, coeffs)


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


def test_equal_bases_compare_and_hash_equal():
    one = GradedBasis(B.name, B.n, tuple(B.elements))
    two = GradedBasis(B.name, B.n, tuple(B.elements))
    assert one is not two
    assert one == two == B
    assert hash(one) == hash(two) == hash(B)
    assert cls(one, {"lambda": 1}) + cls(two, {"eps1": 1}) == \
        cls(B, {"lambda": 1, "eps1": 1})
