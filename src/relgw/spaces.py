"""Built-in catalog of target spaces, divisor pairs, ruled models and fiber sums.

Every catalog object is immutable and constructed once; `builtin(name)` is the
single entry point.  Parametric ids use prefixes: `y_of:<pair>` (section-at-
infinity P1-bundle over the divisor), `q_of:<pair>` (the dual-twist bundle used
for neck levels), `fibersum_of:<pair>` (the pair glued to its ruled model).

Geometric facts are declared here once; the engines read them, not names:
- `EffectiveModel.branches`: each effective cone as disjoint branches, an
  optional offset plus the non-negative integer combinations of independent
  generators, each branch isolated or not and with a least genus;
  membership, isolation, least genus and the class list derive from them;
- `Space.duals`: the intersection dual of each basis element;
- `Space.blowdown`: a point blow-up's base, pi_* and exceptional curves;
- `DivisorPair.affine_complement`: X minus D is C^n (hyperplanes of P^n);
- `DivisorPair.splits`: constraints split across D, with the divisor class
  whose preimage is the bundle-side half;
- `RuledMeta`: fiber, zero section, the point <-> fiber and D <-> X
  pull-back correspondence, the section lift and the projection;
- `RuledSetup.end_degrees`: the degrees of lift(alpha) + ell * fiber along
  the zero and infinity sections of a bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import (GradedBasis, HomologyClass, IntersectionForm, LatticeMap,
                      LinearFunctional, ProductTable, cls, combination, gen)


class CatalogError(Exception):
    pass


@dataclass(frozen=True)
class Branch:
    """One branch of an effective cone: the classes offset + sum n_i * g_i
    over the `generators` g_i, with n_i >= 0 integers.  The generators are
    linearly independent, so each class has one such expression; with no
    offset the empty combination, the zero class, is left out.  `isolated`
    marks classes whose curves stay inside one rigid locus, and `genus` is
    the least genus of a connected curve in each class."""

    offset: HomologyClass | None
    generators: tuple[HomologyClass, ...]
    isolated: bool
    genus: int


class EffectiveModel:
    """Connected-effectivity data for a space, derived from its disjoint
    `branches`.

    `is_effective` answers for a single connected curve; sums of effective
    classes are handled by the enumerators, not here.  A class is in a
    branch when one linear solve (`lattice.combination`) writes it with
    non-negative integer coefficients; the answer is kept per class vector.
    """

    def __init__(self, basis: GradedBasis, area: LinearFunctional,
                 branches: tuple[Branch, ...],
                 missable: frozenset[str] = frozenset(),
                 exceptional: frozenset[str] = frozenset()):
        self.basis = basis
        self.area = area
        self.branches = branches
        self.missable = missable
        self.exceptional = exceptional
        names = basis.names()
        self._not_missable = tuple(i for i, e in enumerate(names) if e not in missable)
        self._exceptional = tuple(i for i, e in enumerate(names) if e in exceptional)
        self._not_exceptional = tuple(i for i, e in enumerate(names)
                                      if e not in exceptional)
        self._member: dict[tuple[int, ...], Branch | None] = {}
        # (branch, offset area, generator areas) of the branches `classes`
        # lists; a branch of area 0 throughout has no class to list
        self._listed = []
        for b in branches:
            areas = tuple(map(area, b.generators))
            base = 0 if b.offset is None else area(b.offset)
            if all(a > 0 for a in areas):
                self._listed.append((b, base, areas))
            elif base or any(areas):
                raise CatalogError(f"{basis.name}: a branch has infinitely "
                                   f"many classes below some area")

    def _branch_of(self, c: HomologyClass) -> Branch | None:
        """The branch holding c, or None when c is not effective."""
        vec = c.vec
        if vec in self._member:
            return self._member[vec]
        found = None
        if c.grade in (None, 1):
            for b in self.branches:
                rest = c if b.offset is None else c - b.offset
                coeffs = combination(b.generators, rest)
                if (coeffs is not None
                        and all(v >= 0 and v.denominator == 1 for v in coeffs)
                        and (b.offset is not None or any(coeffs))):
                    found = b
                    break
        self._member[vec] = found
        return found

    def is_effective(self, c: HomologyClass) -> bool:
        return self._branch_of(c) is not None

    def min_genus(self, c: HomologyClass) -> int:
        branch = self._branch_of(c)
        return 0 if branch is None else branch.genus

    def is_isolated(self, c: HomologyClass) -> bool:
        """True on an isolated branch, and on a nonzero class supported on
        exceptional generators only: its curves stay inside the exceptional
        loci."""
        branch = self._branch_of(c)
        if branch is not None and branch.isolated:
            return True
        return not c.is_zero and not any(c.vec[i] for i in self._not_exceptional)

    def classes(self, max_area: int) -> list[HomologyClass]:
        """Connected effective classes of area in 1..max_area, ordered by
        (area, encode())."""
        out = []
        for b, base, areas in self._listed:
            combos = [(base, self.basis._zero if b.offset is None else b.offset.vec)]
            for g, ga in zip(b.generators, areas):
                combos = [(a + k * ga, tuple(x + k * y for x, y in zip(v, g.vec)))
                          for a, v in combos
                          for k in range((max_area - a) // ga + 1)]
            out += [(a, HomologyClass(self.basis, v, 1))
                    for a, v in combos if 0 < a <= max_area]
        out.sort(key=lambda t: (t[0], t[1].encode()))
        return [c for _, c in out]

    def in_missable(self, c: HomologyClass) -> bool:
        return bool(self.missable) and not any(c.vec[i] for i in self._not_missable)

    def has_exceptional_support(self, c: HomologyClass) -> bool:
        return any(c.vec[i] for i in self._exceptional)


@dataclass(frozen=True)
class BlowDown:
    """A blow-up of `base` at points: `push` is pi_* onto the base, sending
    the exceptional generators to 0; `exceptional` names the exceptional
    curve generators."""

    base: Space
    push: LatticeMap
    exceptional: tuple[str, ...]


@dataclass(frozen=True)
class Space:
    name: str
    n: int
    basis: GradedBasis
    form: IntersectionForm
    c1: LinearFunctional
    area: LinearFunctional
    effective: EffectiveModel | None = None
    products: ProductTable | None = None
    blowdown: BlowDown | None = None

    def gen(self, name: str, k: int = 1) -> HomologyClass:
        return gen(self.basis, name, k)

    def cls(self, coeffs) -> HomologyClass:
        return cls(self.basis, coeffs)

    def zero(self) -> HomologyClass:
        return cls(self.basis, {})

    @cached_property
    def point(self) -> HomologyClass:
        return gen(self.basis, self.basis.point)

    @cached_property
    def fundamental(self) -> HomologyClass:
        return gen(self.basis, self.basis.fundamental)

    def intersect(self, a, b) -> int:
        return self.form.intersect(a, b)

    @cached_property
    def duals(self) -> dict[str, HomologyClass]:
        """Basis element -> its intersection dual e* with e.e* = 1, read off
        the form; CatalogError when some element has no unique dual."""
        out = {}
        for e in self.basis.names():
            found = [(b if a == e else a, c)
                     for a, b, c in self.form.pairs if e in (a, b)]
            if len(found) != 1 or abs(found[0][1]) != 1:
                raise CatalogError(f"no unique dual for {e} in {self.name}")
            out[e] = gen(self.basis, *found[0])
        return out


@dataclass(frozen=True)
class RuledMeta:
    """Marks a divisor pair whose ambient space is a P1-bundle with the divisor
    as the section at infinity; `dzero_class` is the opposite section.

    `pullbacks` pairs divisor classes with the ambient classes of their
    preimages.  `lift` (onto the zero section) and `projection` are set where
    the bundle's basis is built from the divisor's."""

    fiber: HomologyClass
    dzero_class: HomologyClass
    pullbacks: tuple[tuple[HomologyClass, HomologyClass], ...]
    lift: LatticeMap | None = None
    projection: LatticeMap | None = None

    def preimage(self, c: HomologyClass) -> HomologyClass | None:
        """Ambient class of the preimage of the divisor class c, if declared."""
        return next((y for d, y in self.pullbacks if d == c), None)

    def fiber_degree(self, beta: HomologyClass) -> int | None:
        """ell if beta = ell * fiber, else None."""
        m = _fiber_mult(beta, self.fiber)
        return m if (beta - self.fiber.scale(m)).is_zero else None


def _ruled_meta(x: Space, d: Space, fiber: HomologyClass,
                dzero: HomologyClass, **maps) -> RuledMeta:
    """The projection pulls a point of D back to a fiber and D back to X."""
    return RuledMeta(fiber, dzero, ((d.point, fiber),
                                    (d.fundamental, x.fundamental)), **maps)


def _fiber_mult(beta: HomologyClass, fiber: HomologyClass) -> int:
    (fname, fc), = fiber.coeffs
    if fc != 1:
        raise CatalogError("fiber class must be a basis generator")
    return beta.coeff(fname)


@dataclass(frozen=True)
class DivisorPair:
    """A space with a chosen smooth divisor and the lattice data relating them.

    Built once, outside the fields, `_negative` is the divisor's effective
    model cut down to the branches on which the normal degree can reach -2:
    those with a generator of negative normal degree or an offset of normal
    degree <= -2.  On the others every class has normal degree above -2, so
    the degeneration hypothesis looks only here; None when no branch
    qualifies or the divisor has no model.
    """

    name: str
    ambient: Space
    divisor: Space
    inclusion: LatticeMap          # curve classes of D -> curve classes of X
    push: LatticeMap | None        # all even grades of D -> X, grade-preserving
    divisor_class: HomologyClass   # in grade n-1 of X
    normal_degree: LinearFunctional  # degree of the normal bundle on D-curves
    ruled: RuledMeta | None = None
    affine_complement: bool = False  # X minus D is C^n
    # (constraint class in X, divisor class whose preimage is its bundle half)
    splits: tuple[tuple[HomologyClass, HomologyClass], ...] = ()

    def __post_init__(self):
        X, D = self.ambient, self.divisor
        if self.divisor_class.grade not in (None, X.n - 1):
            raise CatalogError(f"{self.name}: divisor class has wrong grade")
        for g in D.basis.names(1):
            a = gen(D.basis, g)
            nd = self.normal_degree(a)
            if X.intersect(self.inclusion(a), self.divisor_class) != nd:
                raise CatalogError(f"{self.name}: normal degree mismatch on {g}")
            if X.c1(self.inclusion(a)) != D.c1(a) + nd:
                raise CatalogError(f"{self.name}: adjunction mismatch on {g}")
        model, degree = D.effective, self.normal_degree
        negative = () if model is None else tuple(
            b for b in model.branches
            if any(degree(g) < 0 for g in b.generators)
            or (b.offset is not None and degree(b.offset) <= -2))
        object.__setattr__(self, "_negative", EffectiveModel(
            D.basis, D.area, negative) if negative else None)

    def contact_count(self, beta: HomologyClass) -> int:
        return self.ambient.intersect(beta, self.divisor_class)


@dataclass(frozen=True)
class RuledSetup:
    """P1-bundle over the divisor of `base`, with its two distinguished sections.

    `twist` is +1 for the model whose zero section has the original normal
    bundle (used in fiber sums) and -1 for the dual-twist model used for neck
    levels.
    """

    name: str
    base: DivisorPair
    total: Space
    twist: int
    fiber: HomologyClass
    lift: LatticeMap               # curve classes of D -> total, zero-section lift
    projection: LatticeMap         # curve classes of total -> D
    dzero_class: HomologyClass
    dinf_class: HomologyClass
    infinity_pair: DivisorPair | None = None

    def class_of(self, alpha: HomologyClass, ell: int) -> HomologyClass:
        return self.lift(alpha) + self.fiber.scale(ell)

    def c1_total(self, alpha: HomologyClass, ell: int) -> int:
        """c1 of class_of(alpha, ell) in closed form, from the values
        `_build_ruled` gives: c1_D + twist * N_D on a lifted curve, 2 on
        the fiber."""
        return (self.base.divisor.c1(alpha)
                + self.twist * self.base.normal_degree(alpha) + 2 * ell)

    def end_degrees(self, alpha: HomologyClass, ell: int) -> tuple[int, int]:
        """(zero-side, infinity-side) degree of class_of(alpha, ell): the
        intersections with `dzero_class` and `dinf_class` that the form of
        `_build_ruled` gives.  The zero section has normal bundle
        twist * N_D, the infinity section is disjoint from the lifted
        curves, and each meets a fiber once."""
        return ell + self.twist * self.base.normal_degree(alpha), ell


@dataclass(frozen=True)
class FiberSumSetup:
    """A pair (X, D) glued along D to its +1-twist ruled model (Y, D+).

    For every catalog pair the sum deforms back to X, so the glued total space
    is the ambient of the left pair.
    """

    name: str
    left: DivisorPair
    ruled: RuledSetup

    @property
    def total(self) -> Space:
        return self.left.ambient

    @property
    def right(self) -> DivisorPair:
        assert self.ruled.infinity_pair is not None
        return self.ruled.infinity_pair


def _functional(name, basis, values):
    return LinearFunctional(name, basis, tuple(values.items()))


def _basis(name, n, elements):
    return GradedBasis(name, n, tuple(elements))


def _form(basis, pairs):
    return IntersectionForm(basis, tuple(pairs))


def _space_pn(n: int) -> Space:
    names_by_n = {
        0: [("pt", 0)],
        1: [("pt", 0), ("fund", 1)],
        2: [("pt", 0), ("lambda", 1), ("fund", 2)],
        3: [("pt", 0), ("lambda", 1), ("pi", 2), ("fund", 3)],
        4: [("pt", 0), ("lambda", 1), ("pi", 2), ("h3", 3), ("fund", 4)],
    }
    b = _basis(f"p{n}", n, names_by_n[n])
    ordered = [e for e, _ in b.elements]
    pairs = []
    for i, e in enumerate(ordered):
        for f in ordered[i:]:
            if b.grade(e) + b.grade(f) == n:
                pairs.append((e, f, 1))
    form = _form(b, pairs)
    curve = "fund" if n == 1 else "lambda"
    c1 = _functional("c1", b, {} if n == 0 else {curve: n + 1})
    area = _functional("area", b, {} if n == 0 else {curve: 1})
    products = None
    if n >= 1:
        # h_a . h_b = h_{a+b-n} written on the named generators
        entries = []
        for e, _ in b.elements:
            for f, _ in b.elements:
                ge, gf = b.grade(e), b.grade(f)
                g = ge + gf - n
                if 0 <= g and ge < n and gf < n and e <= f:
                    target = [x for x, gx in b.elements if gx == g]
                    if target:
                        entries.append((e, f, gen(b, target[0])))
        products = ProductTable(b, tuple(entries))
    model = None
    if n >= 1:
        model = EffectiveModel(b, area, (Branch(None, (gen(b, curve),), False, 0),),
                               missable=frozenset(b.names()))
    return Space(f"p{n}", n, b, form, c1, area, model, products)


def _blowdown(b: GradedBasis, base: Space, kept, **renamed) -> BlowDown:
    """pi_* sends each `kept` generator to the base generator of the same name
    (or the `renamed` one) and every other, exceptional, generator to 0."""
    zero = cls(base.basis, {})
    push = LatticeMap("blowdown", b, base.basis, tuple(
        (e, gen(base.basis, renamed.get(e, e)) if e in kept else zero)
        for e in b.names()))
    return BlowDown(base, push, tuple(e for e in b.names(1) if e not in kept))


def _space_p2blow1(base: Space) -> Space:
    b = _basis("p2blow1", 2, [("pt", 0), ("lambda", 1), ("eps", 1), ("fund", 2)])
    form = _form(b, [("pt", "fund", 1), ("lambda", "lambda", 1), ("eps", "eps", -1)])
    c1 = _functional("c1", b, {"lambda": 3, "eps": 1})
    area = _functional("area", b, {"lambda": 3, "eps": 1})
    lam, eps = gen(b, "lambda"), gen(b, "eps")
    model = EffectiveModel(b, area, (
        Branch(None, (lam, lam - eps), False, 0),
        Branch(None, (eps,), True, 0),
    ), missable=frozenset({"pt", "lambda", "fund"}), exceptional=frozenset({"eps"}))
    return Space("p2blow1", 2, b, form, c1, area, model,
                 blowdown=_blowdown(b, base, model.missable))


def _blow_two_branches(b: GradedBasis) -> tuple[Branch, ...]:
    """Curves in P^n blown up at two points: covers of the rigid line
    through both points, lines through at most one of them, and the
    exceptional curves."""
    lam, e1, e2 = gen(b, "lambda"), gen(b, "eps1"), gen(b, "eps2")
    return (Branch(None, (lam - e1 - e2,), True, 0),
            Branch(None, (lam, lam - e1, lam - e2), False, 0),
            Branch(None, (e1,), True, 0),
            Branch(None, (e2,), True, 0))


def _space_p3blow2(base: Space) -> Space:
    b = _basis("p3blow2", 3, [
        ("pt", 0), ("lambda", 1), ("eps1", 1), ("eps2", 1),
        ("pi", 2), ("eps1s", 2), ("eps2s", 2), ("fund", 3)])
    form = _form(b, [("pt", "fund", 1), ("lambda", "pi", 1),
                     ("eps1", "eps1s", 1), ("eps2", "eps2s", 1)])
    c1 = _functional("c1", b, {"lambda": 4, "eps1": 2, "eps2": 2})
    area = _functional("area", b, {"lambda": 3, "eps1": 1, "eps2": 1})
    model = EffectiveModel(b, area, _blow_two_branches(b),
                           missable=frozenset({"pt", "lambda", "pi", "fund"}),
                           exceptional=frozenset({"eps1", "eps2", "eps1s", "eps2s"}))
    pt, lam = gen(b, "pt"), gen(b, "lambda")
    products = ProductTable(b, (
        ("pi", "pi", lam),
        ("pi", "lambda", pt),
        ("eps1", "eps1s", pt),
        ("eps2", "eps2s", pt),
        ("eps1s", "eps1s", gen(b, "eps1", -1)),
        ("eps2s", "eps2s", gen(b, "eps2", -1)),
        ("pi", "eps1s", cls(b, {})),
        ("pi", "eps2s", cls(b, {})),
        ("eps1s", "eps2s", cls(b, {})),
        ("lambda", "eps1s", cls(b, {})),
        ("lambda", "eps2s", cls(b, {})),
        ("pi", "eps1", cls(b, {})),
        ("pi", "eps2", cls(b, {})),
    ))
    return Space("p3blow2", 3, b, form, c1, area, model, products,
                 _blowdown(b, base, model.missable))


def _space_p4blow2(base: Space) -> Space:
    b = _basis("p4blow2", 4, [
        ("pt", 0), ("lambda", 1), ("eps1", 1), ("eps2", 1),
        ("pi", 2), ("sig1", 2), ("sig2", 2),
        ("h", 3), ("e1", 3), ("e2", 3), ("fund", 4)])
    form = _form(b, [("pt", "fund", 1), ("lambda", "h", 1),
                     ("eps1", "e1", -1), ("eps2", "e2", -1),
                     ("pi", "pi", 1), ("sig1", "sig1", -1), ("sig2", "sig2", -1)])
    c1 = _functional("c1", b, {"lambda": 5, "eps1": 3, "eps2": 3})
    area = _functional("area", b, {"lambda": 3, "eps1": 1, "eps2": 1})
    model = EffectiveModel(b, area, _blow_two_branches(b),
                           missable=frozenset({"pt", "lambda", "pi", "h", "fund"}),
                           exceptional=frozenset({"eps1", "eps2", "sig1", "sig2", "e1", "e2"}))
    return Space("p4blow2", 4, b, form, c1, area, model,
                 blowdown=_blowdown(b, base, model.missable, h="h3"))


def _space_t2_ruled() -> Space:
    b = _basis("t2_ruled", 2, [("pt", 0), ("f", 1), ("s", 1), ("fund", 2)])
    form = _form(b, [("pt", "fund", 1), ("f", "s", 1), ("s", "s", -1)])
    c1 = _functional("c1", b, {"f": 2, "s": -1})
    area = _functional("area", b, {"f": 1, "s": 2})
    f = gen(b, "f")
    model = EffectiveModel(b, area, (Branch(None, (f,), False, 0),
                                     Branch(gen(b, "s"), (f,), False, 1)))
    return Space("t2_ruled", 2, b, form, c1, area, model)


def _space_t2_base() -> Space:
    b = _basis("t2_base", 1, [("pt", 0), ("fund", 1)])
    form = _form(b, [("pt", "fund", 1)])
    c1 = _functional("c1", b, {"fund": 0})
    area = _functional("area", b, {"fund": 1})
    model = EffectiveModel(b, area, (Branch(None, (gen(b, "fund"),), False, 1),))
    return Space("t2_base", 1, b, form, c1, area, model, ProductTable(b, ()))


def _space_s2xs2() -> Space:
    b = _basis("s2xs2", 2, [("pt", 0), ("a1", 1), ("a2", 1), ("fund", 2)])
    form = _form(b, [("pt", "fund", 1), ("a1", "a2", 1)])
    c1 = _functional("c1", b, {"a1": 2, "a2": 2})
    area = _functional("area", b, {"a1": 1, "a2": 1})
    a1, a2 = gen(b, "a1"), gen(b, "a2")
    # the antidiagonal spheres have area 0, so `classes` never lists them
    model = EffectiveModel(b, area, (Branch(None, (a1, a2), False, 0),
                                     Branch(None, (a1 - a2,), False, 0)))
    return Space("s2xs2", 2, b, form, c1, area, model)


def _space_antidiag() -> Space:
    b = _basis("antidiag_sphere", 1, [("pt", 0), ("fund", 1)])
    form = _form(b, [("pt", "fund", 1)])
    c1 = _functional("c1", b, {"fund": 2})
    area = _functional("area", b, {"fund": 2})
    model = EffectiveModel(b, area, (Branch(None, (gen(b, "fund"),), False, 0),))
    return Space("antidiag_sphere", 1, b, form, c1, area, model, ProductTable(b, ()))


def _pair_pn(n: int, x: Space, d: Space) -> DivisorPair:
    bx, bd = x.basis, d.basis
    # one basis element per grade on both sides, matched by grade
    grade_images = {}
    for e, g in bd.elements:
        tgt = [f for f, gf in bx.elements if gf == g][0]
        grade_images[e] = gen(bx, tgt)
    push = LatticeMap("push", bd, bx, tuple(grade_images.items()))
    curves = tuple((e, grade_images[e]) for e in bd.names(1))
    incl = LatticeMap("incl", bd, bx, curves)
    divisor_class = gen(bx, [f for f, gf in bx.elements if gf == n - 1][0])
    nd = _functional("normal", bd, {e: 1 for e in bd.names(1)})
    return DivisorPair(f"p{n}_hyperplane" if n > 1 else "p1_point",
                       x, d, incl, push, divisor_class, nd,
                       affine_complement=True)


def _build_ruled(pair: DivisorPair, twist: int, name: str) -> RuledSetup:
    D = pair.divisor
    X = pair.ambient
    n = X.n
    if D.n == 0:
        # the bundle over a point is one fiber, whose class would be the
        # fundamental class too
        raise CatalogError(f"{name}: no P1-bundle over the zero-dimensional "
                           f"divisor {D.name}")
    curve_names = D.basis.names(1)
    lift_names = {g: f"{g}_0" for g in curve_names}
    elements = [("pt", 0), ("f", 1)] + [(lift_names[g], 1) for g in curve_names]
    if n >= 3:
        elements += [("dzero", n - 1), ("dinf", n - 1)]
    elements += [("fund", n)]
    b = _basis(name, n, elements)

    nd = {g: pair.normal_degree(gen(D.basis, g)) for g in curve_names}
    pairs = [("pt", "fund", 1)]
    if n >= 3:
        pairs += [("f", "dzero", 1), ("f", "dinf", 1)]
        for g in curve_names:
            pairs += [(lift_names[g], "dzero", twist * nd[g]),
                      (lift_names[g], "dinf", 0)]
    else:
        for g in curve_names:
            pairs += [("f", lift_names[g], 1),
                      (lift_names[g], lift_names[g], twist * nd[g])]
    form = _form(b, pairs)

    c1_vals = {"f": 2}
    area_vals = {"f": 1}
    for g in curve_names:
        c1_vals[lift_names[g]] = D.c1(gen(D.basis, g)) + twist * nd[g]
        area_vals[lift_names[g]] = D.area(gen(D.basis, g))
    total = Space(name, n, b, form, _functional("c1", b, c1_vals),
                  _functional("area", b, area_vals))

    lift = LatticeMap("lift", D.basis, b,
                      tuple((g, gen(b, lift_names[g])) for g in curve_names))
    proj_images = [("f", cls(D.basis, {}))]
    proj_images += [(lift_names[g], gen(D.basis, g)) for g in curve_names]
    projection = LatticeMap("proj", b, D.basis, tuple(proj_images))

    if n >= 3:
        dzero = gen(b, "dzero")
        dinf = gen(b, "dinf")
    else:
        base = D.basis.names(1)[0]
        dzero = gen(b, lift_names[base])
        dinf = dzero - gen(b, "f").scale(twist * nd[base])

    infinity_pair = None
    if twist == +1:
        incl = LatticeMap("incl", D.basis, b, tuple(
            (g, gen(b, lift_names[g]) - gen(b, "f").scale(nd[g]))
            for g in curve_names))
        nplus = _functional("normal", D.basis, {g: -nd[g] for g in curve_names})
        infinity_pair = DivisorPair(
            name, total, D, incl, None, dinf, nplus,
            ruled=_ruled_meta(total, D, gen(b, "f"), dzero,
                              lift=lift, projection=projection))

    return RuledSetup(name, pair, total, twist, gen(b, "f"), lift, projection,
                      dzero, dinf, infinity_pair)


def _pair_p2blow1_exc(x: Space, d: Space) -> DivisorPair:
    bd, bx = d.basis, x.basis
    incl = LatticeMap("incl", bd, bx, (("fund", gen(bx, "eps")),))
    push = LatticeMap("push", bd, bx, (("pt", gen(bx, "pt")), ("fund", gen(bx, "eps"))))
    nd = _functional("normal", bd, {"fund": -1})
    return DivisorPair("p2blow1_exc", x, d, incl, push, gen(bx, "eps"), nd)


def _pair_p4blow2_hyperplane(x: Space, d: Space) -> DivisorPair:
    bd, bx = d.basis, x.basis
    dclass = cls(bx, {"h": 1, "e1": -1, "e2": -1})
    incl = LatticeMap("incl", bd, bx, (
        ("lambda", gen(bx, "lambda")), ("eps1", gen(bx, "eps1")),
        ("eps2", gen(bx, "eps2"))))
    push = LatticeMap("push", bd, bx, (
        ("pt", gen(bx, "pt")),
        ("lambda", gen(bx, "lambda")), ("eps1", gen(bx, "eps1")),
        ("eps2", gen(bx, "eps2")),
        ("pi", gen(bx, "pi")),
        ("eps1s", gen(bx, "sig1", -1)), ("eps2s", gen(bx, "sig2", -1)),
        ("fund", dclass)))
    nd = _functional("normal", bd, {"lambda": 1, "eps1": 1, "eps2": 1})
    return DivisorPair("p4blow2_hyperplane", x, d, incl, push, dclass, nd,
                       splits=((gen(bx, "pi"), gen(bd, "lambda")),))


def _pair_t2_section(x: Space, d: Space) -> DivisorPair:
    bd, bx = d.basis, x.basis
    incl = LatticeMap("incl", bd, bx, (("fund", gen(bx, "s")),))
    push = LatticeMap("push", bd, bx, (("pt", gen(bx, "pt")), ("fund", gen(bx, "s"))))
    nd = _functional("normal", bd, {"fund": -1})
    meta = _ruled_meta(x, d, gen(bx, "f"), cls(bx, {"s": 1, "f": 1}))
    return DivisorPair("t2_ruled_section", x, d, incl, push, gen(bx, "s"), nd, meta)


def _pair_s2xs2(x: Space, d: Space) -> DivisorPair:
    bd, bx = d.basis, x.basis
    dclass = cls(bx, {"a1": 1, "a2": -1})
    incl = LatticeMap("incl", bd, bx, (("fund", dclass),))
    push = LatticeMap("push", bd, bx, (("pt", gen(bx, "pt")), ("fund", dclass)))
    nd = _functional("normal", bd, {"fund": -2})
    return DivisorPair("s2xs2_antidiag", x, d, incl, push, dclass, nd)


_CACHE: dict[str, object] = {}


def builtin(name: str):
    """Return a catalog Space, DivisorPair, RuledSetup or FiberSumSetup by
    its exact id."""
    if name in _CACHE:
        return _CACHE[name]
    obj = _build(name)
    _CACHE[name] = obj
    return obj


def _build(key: str):
    simple = {
        "p0": lambda: _space_pn(0),
        "p1": lambda: _space_pn(1),
        "p2": lambda: _space_pn(2),
        "p3": lambda: _space_pn(3),
        "p4": lambda: _space_pn(4),
        "p2blow1": lambda: _space_p2blow1(builtin("p2")),
        "p3blow2": lambda: _space_p3blow2(builtin("p3")),
        "p4blow2": lambda: _space_p4blow2(builtin("p4")),
        "t2_ruled": _space_t2_ruled,
        "t2_base": _space_t2_base,
        "s2xs2": _space_s2xs2,
        "antidiag_sphere": _space_antidiag,
    }
    if key in simple:
        return simple[key]()
    if key == "p1_point":
        return _pair_pn(1, builtin("p1"), builtin("p0"))
    if key in ("p2_hyperplane", "p3_hyperplane", "p4_hyperplane"):
        n = int(key[1])
        return _pair_pn(n, builtin(f"p{n}"), builtin(f"p{n-1}"))
    if key == "p2blow1_exc":
        return _pair_p2blow1_exc(builtin("p2blow1"), builtin("p1"))
    if key == "p4blow2_hyperplane":
        return _pair_p4blow2_hyperplane(builtin("p4blow2"), builtin("p3blow2"))
    if key == "t2_ruled_section":
        return _pair_t2_section(builtin("t2_ruled"), builtin("t2_base"))
    if key == "s2xs2_antidiag":
        return _pair_s2xs2(builtin("s2xs2"), builtin("antidiag_sphere"))
    if key.startswith("y_of:"):
        pair = builtin(key[len("y_of:"):])
        if not isinstance(pair, DivisorPair):
            raise CatalogError(f"{key}: base is not a divisor pair")
        return _build_ruled(pair, +1, key)
    if key.startswith("q_of:"):
        pair = builtin(key[len("q_of:"):])
        if not isinstance(pair, DivisorPair):
            raise CatalogError(f"{key}: base is not a divisor pair")
        return _build_ruled(pair, -1, key)
    if key.startswith("fibersum_of:"):
        pair = builtin(key[len("fibersum_of:"):])
        if not isinstance(pair, DivisorPair):
            raise CatalogError(f"{key}: base is not a divisor pair")
        ruled = builtin("y_of:" + pair.name)
        return FiberSumSetup(key, pair, ruled)
    raise CatalogError(f"unknown catalog id {key!r}")
