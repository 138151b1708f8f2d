"""Geometric facts the catalog declares, checked against the lattice data."""

import pytest

from relgw.lattice import cls, gen
from relgw.spaces import CatalogError, builtin

PAIRS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
         "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
         "s2xs2_antidiag")
BLOWUPS = ("p2blow1", "p3blow2", "p4blow2")


def test_affine_complements_are_the_hyperplanes_of_projective_space():
    got = [name for name in PAIRS if builtin(name).affine_complement]
    assert got == ["p1_point", "p2_hyperplane", "p3_hyperplane",
                   "p4_hyperplane"]


def test_pairs_that_keep_curve_areas():
    # the torus section doubles its area in the ruled surface and the
    # antidiagonal sphere has area 0 in S2xS2
    got = [name for name in PAIRS if builtin(name).keeps_area]
    assert got == ["p1_point", "p2_hyperplane", "p3_hyperplane",
                   "p4_hyperplane", "p2blow1_exc", "p4blow2_hyperplane"]


def test_split_half_is_the_restriction_of_the_constraint():
    # <half, a>_D = <source, push(a)>_X for every divisor class a of
    # complementary grade, and the divisor's pairing is nondegenerate
    declared = [(name, s) for name in PAIRS for s in builtin(name).splits]
    assert [(name, source.encode(), half.encode())
            for name, (source, half) in declared] == [
        ("p4blow2_hyperplane", "pi", "lambda")]
    for name, (source, half) in declared:
        pair = builtin(name)
        X, D = pair.ambient, pair.divisor
        for a_name in D.basis.names(D.n - half.grade):
            a = D.gen(a_name)
            assert D.intersect(half, a) == X.intersect(source, pair.push(a))


@pytest.mark.parametrize("name", BLOWUPS)
def test_blowdown_push_forward(name):
    X = builtin(name)
    blow, model = X.blowdown, X.effective
    base = blow.base
    assert (base.n, base.name) == (X.n, f"p{X.n}")
    assert blow.exceptional == tuple(
        e for e in X.basis.names(1) if e in model.exceptional)
    # the pairing survives on classes pulled back from the base
    for a in model.missable:
        for b in model.missable:
            if X.basis.grade(a) + X.basis.grade(b) == X.n:
                assert X.intersect(X.gen(a), X.gen(b)) == base.intersect(
                    blow.push(X.gen(a)), blow.push(X.gen(b)))
    for e in X.basis.names(1):
        image = blow.push(X.gen(e))
        if e in blow.exceptional:
            assert image.is_zero
        else:
            assert X.c1(X.gen(e)) == base.c1(image)


@pytest.mark.parametrize("name", PAIRS[1:])  # P1 has no bundle over a point
def test_section_lift_and_projection(name):
    y = builtin(f"y_of:{name}")
    meta, D = y.infinity_pair.ruled, y.base.divisor
    assert (meta.lift, meta.projection) == (y.lift, y.projection)
    assert meta.projection(meta.fiber).is_zero
    for g in D.basis.names(1):
        assert meta.projection(meta.lift(D.gen(g))) == D.gen(g)


@pytest.mark.parametrize("name", ("y_of:p4blow2_hyperplane", "t2_ruled_section"))
def test_pull_back_correspondence_runs_both_ways(name):
    obj = builtin(name)
    pair = obj.infinity_pair if name.startswith("y_of:") else obj
    meta, X, D = pair.ruled, pair.ambient, pair.divisor
    assert meta.preimage(D.point) == meta.fiber
    assert meta.preimage(D.fundamental) == X.fundamental
    for d, y in meta.pullbacks:
        assert meta.preimage(d) == y
    assert meta.preimage(D.point.scale(2)) is None


def test_section_lift_is_declared_only_on_built_bundles():
    meta = builtin("t2_ruled_section").ruled
    assert meta.lift is None and meta.projection is None


def buildable_bundles():
    out = []
    for kind in ("y_of", "q_of"):
        for name in PAIRS:
            try:
                out.append(builtin(f"{kind}:{name}"))
            except CatalogError:
                pass  # no P1-bundle over a zero-dimensional divisor
    return out


def test_end_degrees_are_the_section_intersections():
    bundles = buildable_bundles()
    assert len(bundles) == 2 * (len(PAIRS) - 1)
    checked = 0
    for q in bundles:
        D = q.base.divisor
        for g in D.basis.names(1):
            for k in (-2, -1, 0, 1, 3):
                alpha = D.gen(g, k)
                for ell in range(4):
                    beta = q.class_of(alpha, ell)
                    want = (q.total.intersect(beta, q.dzero_class),
                            q.total.intersect(beta, q.dinf_class))
                    assert q.end_degrees(alpha, ell) == want, (q.name, g, k)
                    checked += 1
    assert checked == 360


def test_c1_total_is_c1_of_the_bundle_class():
    checked = 0
    for q in buildable_bundles():
        D = q.base.divisor
        curves = D.basis.names(1)
        alphas = [D.zero()] + [D.gen(g, k) for g in curves
                               for k in (-2, -1, 1, 3)]
        alphas.append(cls(D.basis, {g: i + 1 for i, g in enumerate(curves)}))
        for alpha in alphas:
            for ell in (-1, 0, 1, 4):
                assert q.c1_total(alpha, ell) == \
                    q.total.c1(q.class_of(alpha, ell)), (q.name, alpha, ell)
                checked += 1
    assert checked == 400


# -- effective cones: branches against the old candidate boxes ------------
#
# Each box below is the candidate set an effective model used to filter
# through `is_effective` and the area bound, kept here as the reference for
# the branch enumeration that replaced it.


def _line_box(model, a):
    unit = model.area(gen(model.basis, model.generator))
    return [gen(model.basis, model.generator, d) for d in range(1, a // unit + 1)]


def _blow_one_box(model, a):
    return [cls(model.basis, {"lambda": d, "eps": -m})
            for d in range(0, a // 2 + 2) for m in range(-a, a + 1)
            if not (d == 0 and m >= 0)]


def _blow_two_box(model, a):
    return [cls(model.basis, {"lambda": s, "eps1": -m1, "eps2": -m2})
            for s in range(0, a + 2)
            for m1 in range(-a, s + 1) for m2 in range(-a, s + 1)
            if not (s == 0 and m1 >= 0 and m2 >= 0)]


def _ruled_t2_box(model, a):
    return ([gen(model.basis, "f", m) for m in range(1, a + 1)]
            + [cls(model.basis, {"s": 1, "f": m}) for m in range(0, a + 1)])


def _torus_base_box(model, a):
    return [gen(model.basis, "fund", m) for m in range(1, a + 1)]


def _quadric_box(model, a):
    return [cls(model.basis, {"a1": x, "a2": y})
            for x in range(-a, a + 1) for y in range(-a, a + 1)
            if (x, y) != (0, 0)]


OLD_BOXES = {
    "p1": _line_box, "p2": _line_box, "p3": _line_box, "p4": _line_box,
    "antidiag_sphere": _line_box,
    "p2blow1": _blow_one_box,
    "p3blow2": _blow_two_box, "p4blow2": _blow_two_box,
    "t2_ruled": _ruled_t2_box,
    "t2_base": _torus_base_box,
    "s2xs2": _quadric_box,
}


def test_every_catalog_cone_has_a_reference_box():
    spaces = ("p0", "p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2",
              "t2_ruled", "t2_base", "s2xs2", "antidiag_sphere")
    assert sorted(OLD_BOXES) == sorted(
        name for name in spaces if builtin(name).effective is not None)


@pytest.mark.parametrize("name", sorted(OLD_BOXES))
def test_cone_equals_the_filtered_box(name):
    model = builtin(name).effective
    for a in range(0, 21):
        box = [c for c in OLD_BOXES[name](model, a)
               if model.is_effective(c) and 0 < model.area(c) <= a]
        box.sort(key=lambda c: (model.area(c), c.encode()))
        assert model.classes(a) == box, (name, a)
