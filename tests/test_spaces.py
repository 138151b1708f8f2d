"""Geometric facts the catalog declares, checked against the lattice data."""

import itertools

import pytest

from relgw.decompose import _shrinks_area
from relgw.lattice import cls, gen
from relgw.spaces import Branch, CatalogError, EffectiveModel, builtin

PAIRS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
         "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
         "s2xs2_antidiag")
BLOWUPS = ("p2blow1", "p3blow2", "p4blow2")


def test_affine_complements_are_the_hyperplanes_of_projective_space():
    got = [name for name in PAIRS if builtin(name).affine_complement]
    assert got == ["p1_point", "p2_hyperplane", "p3_hyperplane",
                   "p4_hyperplane"]


def test_pairs_that_keep_curve_areas():
    # no divisor class loses area in the ambient space, except the
    # antidiagonal sphere, which has area 0 in S2xS2; the torus section
    # doubles its area in the ruled surface.  The point of p1_point has no
    # curve class.
    got = [name for name in PAIRS if builtin(name).divisor.effective is None
           or not _shrinks_area(builtin(name))]
    assert got == ["p1_point", "p2_hyperplane", "p3_hyperplane",
                   "p4_hyperplane", "p2blow1_exc", "p4blow2_hyperplane",
                   "t2_ruled_section"]


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


# -- effective cones: branches against the old hand-written models --------
#
# Each catalog cone used to be a hand-written model: an `is_effective`
# predicate, sometimes `is_isolated` or `min_genus`, and a box of candidate
# classes filtered through them.  They are kept here as the reference for
# the branch declarations that replaced them.


class OldCone:
    def is_isolated(self, c):
        return False

    def min_genus(self, c):
        return 0


class OldLine(OldCone):
    """Single curve generator: effective classes are its positive multiples."""

    def __init__(self, generator):
        self.generator = generator

    def is_effective(self, c):
        return c.grade == 1 and set(n for n, _ in c.coeffs) == {self.generator} \
            and c.coeff(self.generator) > 0

    def box(self, basis, area, a):
        unit = area(gen(basis, self.generator))
        return [gen(basis, self.generator, d) for d in range(1, a // unit + 1)]


class OldBlowOne(OldCone):
    """Plane blown up at a point: d*lambda - m*eps with 0 <= m <= d, plus m*eps."""

    def is_effective(self, c):
        if c.grade != 1:
            return False
        d, m = c.coeff("lambda"), -c.coeff("eps")
        if d > 0:
            return 0 <= m <= d
        return d == 0 and m < 0

    def is_isolated(self, c):
        return c.coeff("lambda") == 0 and c.coeff("eps") > 0

    def box(self, basis, area, a):
        return [cls(basis, {"lambda": d, "eps": -m})
                for d in range(0, a // 2 + 2) for m in range(-a, a + 1)
                if not (d == 0 and m >= 0)]


class OldBlowTwo(OldCone):
    """s*lambda - m1*eps1 - m2*eps2 with s > 0 and either m1 = m2 = s or
    m1, m2 >= 0, m1 + m2 <= s; pure exceptional m*eps_j, m > 0."""

    def is_effective(self, c):
        if c.grade != 1:
            return False
        s = c.coeff("lambda")
        m1, m2 = -c.coeff("eps1"), -c.coeff("eps2")
        if s > 0:
            return (m1 == m2 == s) or (m1 >= 0 and m2 >= 0 and m1 + m2 <= s)
        if s == 0:
            return (m1 < 0 and m2 == 0) or (m2 < 0 and m1 == 0)
        return False

    def is_isolated(self, c):
        s = c.coeff("lambda")
        m1, m2 = -c.coeff("eps1"), -c.coeff("eps2")
        if s == 0:
            return True
        return s > 0 and m1 == m2 == s

    def box(self, basis, area, a):
        return [cls(basis, {"lambda": s, "eps1": -m1, "eps2": -m2})
                for s in range(0, a + 2)
                for m1 in range(-a, s + 1) for m2 in range(-a, s + 1)
                if not (s == 0 and m1 >= 0 and m2 >= 0)]


class OldRuledT2(OldCone):
    """Degree-1 ruled surface over the torus: m*f (spheres) and s + m*f (tori)."""

    def is_effective(self, c):
        if c.grade != 1:
            return False
        m, k = c.coeff("f"), c.coeff("s")
        return (k == 0 and m > 0) or (k == 1 and m >= 0)

    def min_genus(self, c):
        return 1 if c.coeff("s") == 1 else 0

    def box(self, basis, area, a):
        return ([gen(basis, "f", m) for m in range(1, a + 1)]
                + [cls(basis, {"s": 1, "f": m}) for m in range(0, a + 1)])


class OldTorusBase(OldCone):
    """Positive multiples of the torus's fundamental class, genus 1."""

    def is_effective(self, c):
        return c.grade == 1 and c.coeff("fund") > 0

    def min_genus(self, c):
        return 1

    def box(self, basis, area, a):
        return [gen(basis, "fund", m) for m in range(1, a + 1)]


class OldQuadric(OldCone):
    """S2 x S2: a*a1 + b*a2 with a, b >= 0 not both 0, and the antidiagonal
    spheres m*(a1 - a2), m > 0."""

    def is_effective(self, c):
        if c.grade != 1:
            return False
        a, b = c.coeff("a1"), c.coeff("a2")
        if a >= 0 and b >= 0 and a + b > 0:
            return True
        return a == -b and a > 0

    def box(self, basis, area, a):
        return [cls(basis, {"a1": x, "a2": y})
                for x in range(-a, a + 1) for y in range(-a, a + 1)
                if (x, y) != (0, 0)]


OLD_MODELS = {
    "p1": OldLine("fund"), "p2": OldLine("lambda"), "p3": OldLine("lambda"),
    "p4": OldLine("lambda"), "antidiag_sphere": OldLine("fund"),
    "p2blow1": OldBlowOne(),
    "p3blow2": OldBlowTwo(), "p4blow2": OldBlowTwo(),
    "t2_ruled": OldRuledT2(),
    "t2_base": OldTorusBase(),
    "s2xs2": OldQuadric(),
}


def test_every_catalog_cone_has_a_reference_box():
    spaces = ("p0", "p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2",
              "t2_ruled", "t2_base", "s2xs2", "antidiag_sphere")
    assert sorted(OLD_MODELS) == sorted(
        name for name in spaces if builtin(name).effective is not None)


@pytest.mark.parametrize("name", sorted(OLD_MODELS))
def test_cone_equals_the_filtered_box(name):
    """`classes` lists what the old box keeps through the old predicate."""
    space, old = builtin(name), OLD_MODELS[name]
    for a in range(0, 21):
        box = [c for c in old.box(space.basis, space.area, a)
               if old.is_effective(c) and 0 < space.area(c) <= a]
        box.sort(key=lambda c: (space.area(c), c.encode()))
        assert space.effective.classes(a) == box, (name, a)


# Where the branches' `is_isolated` departs from the old models: the old
# two-point blowup called the zero class isolated, and the old one-point
# blowup did not call -m*eps isolated, while the two-point blowup calls
# every class on its exceptional curves isolated.  The zero class is never
# asked.  At genus 0 and 1, dimension and `_rule_fundamental` decide the
# counts in -m*eps first; from genus m + 1 on the isolated-locus rule now
# gives them 0, the count of a class of negative area, where no rule
# applied before.
MOVED = {"p2blow1": ["-3*eps", "-2*eps", "-eps"], "p3blow2": ["0"],
         "p4blow2": ["0"]}


@pytest.mark.parametrize("name", sorted(OLD_MODELS))
def test_branches_answer_as_the_old_models(name):
    """Every curve class with coefficients in [-3, 3], the zero class and
    classes outside the cone included.  `min_genus` is compared on
    effective classes, the only ones whose least genus the engines read."""
    space, old = builtin(name), OLD_MODELS[name]
    model = space.effective
    curves = space.basis.names(1)
    moved = []
    for coeffs in itertools.product(range(-3, 4), repeat=len(curves)):
        c = cls(space.basis, dict(zip(curves, coeffs)))
        assert model.is_effective(c) == old.is_effective(c), (name, c)
        if old.is_effective(c):
            assert model.min_genus(c) == old.min_genus(c), (name, c)
        if model.is_isolated(c) != old.is_isolated(c):
            moved.append(c.encode())
    assert moved == MOVED.get(name, [])


def test_a_branch_must_be_bounded_below_every_area():
    # a1 has area 1 and a1 - a2 area 0: area 1 would hold a1 + k(a1 - a2)
    # for every k
    X = builtin("s2xs2")
    a1, a2 = X.gen("a1"), X.gen("a2")
    with pytest.raises(CatalogError, match="infinitely many"):
        EffectiveModel(X.basis, X.area, (Branch(None, (a1, a1 - a2), False, 0),))
