"""Splitting an absolute count along a divisor into two-sided relative counts.

Degenerating the ambient space along a divisor D replaces one absolute count
by a sum over bipartite contact graphs.  One side of a graph carries
components of the original space relative to D, the other side components of
the P1-bundle over D relative to its infinity section; tails (the edges)
match contact points of equal order, with a constraint class b on one end and
its intersection dual b* on the other.  Each term contributes the product of
its per-component counts times a combinatorial multiplicity.

The enumeration here is exact and bounded: component classes run over sums of
connected effective classes up to an area budget, every component must carry
a zero-dimensional constrained problem, and the graph must be connected with
the right total genus.  Budget overflows raise; they are never silent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial

from .dimension import Insertion, InvariantError, InvariantSpec, expected_dimension
from .kbeval import (Evaluator, KnowledgeBase, Unknown, Value, _duals,
                     fiber_count, seed_table)
from .lattice import HomologyClass, cls, gen
from .spaces import EffectiveModel, FiberSumSetup, Space
from .strata import (_compositions, _exact_decompositions, _multisets,
                     _union_find)
from .vanishing import FIBER_MULTIPLE, RULED_PULLED_BACK, decide

PULLED_BACK_MISS = "pulled-back-miss"

OK = "ok"
PRUNED = "pruned"
UNRESOLVED = "unresolved"


class DecompositionError(Exception):
    pass


class BoundError(DecompositionError):
    """An enumeration bound was exceeded; raised, never swallowed."""


# Declared splittings of non-localizable constraints: the part of the cycle
# falling into the bundle side is the preimage of a class in the divisor.
_SPLIT_HALVES = {("p4blow2_hyperplane", "pi"): "lambda"}
_SPLIT_SOURCES = {(pair, d): x for (pair, x), d in _SPLIT_HALVES.items()}


def split_form(pair, c: HomologyClass) -> HomologyClass:
    """Divisor class whose preimage is the bundle-side half of constraint c."""
    if len(c.coeffs) == 1 and c.coeffs[0][1] == 1:
        name = _SPLIT_HALVES.get((pair.name, c.coeffs[0][0]))
        if name is not None:
            return gen(pair.divisor.basis, name)
    raise DecompositionError(
        f"no declared splitting of {c.encode()} across {pair.name}")


@dataclass(frozen=True)
class PulledBack:
    """A constraint of the form projection^-1(class in the divisor).

    Kept as a marker when the bundle's basis has no class for the preimage;
    it still charges codimension n - grade - 1 on the component.
    """

    cls: HomologyClass

    def token(self) -> str:
        return f"pb:{self.cls.encode()}"


@dataclass(frozen=True)
class Bounds:
    """Budgets for the term enumeration.

    `area` caps the area of every component class (default: area of the full
    class).  `max_terms` caps admissible candidates before deduplication.
    `extra_genus` caps genus added above component minima and cycle rank.
    """

    area: int | None = None
    max_terms: int = 20000
    extra_genus: int | None = None


@dataclass(frozen=True)
class GraphComponent:
    """One vertex: a class on its side, a genus, and its constraints."""

    cls: HomologyClass
    genus: int
    insertions: tuple = ()

    def token(self) -> str:
        ins = ",".join(sorted(i.token() for i in self.insertions))
        return f"[{self.cls.encode()};g{self.genus};{ins}]"


@dataclass(frozen=True)
class Tail:
    """One edge: a contact of order `order` shared by component `left` of
    the divisor side and `right` of the bundle side; the left end carries
    `cls`, the right end its dual."""

    order: int
    cls: HomologyClass
    dual: HomologyClass
    left: int
    right: int

    def token(self) -> str:
        return f"({self.order},{self.cls.encode()})@{self.left}:{self.right}"


@dataclass(frozen=True)
class DecompTerm:
    """One summand of the splitting: graph, classes, and multiplicity."""

    beta1: HomologyClass
    beta2: HomologyClass
    partition: tuple[int, ...]
    tails: tuple[Tail, ...]
    gamma1: tuple[GraphComponent, ...]
    gamma2: tuple[GraphComponent, ...]
    placement: tuple[str, ...]
    multiplicity: Fraction

    def encode(self) -> str:
        g1 = ",".join(c.token() for c in self.gamma1)
        g2 = ",".join(c.token() for c in self.gamma2)
        t = ",".join(t.token() for t in self.tails)
        return f"g1={g1}|g2={g2}|tails={t}"

    def __str__(self) -> str:
        return self.encode()


def total_genus(term: DecompTerm) -> int:
    """Component genera plus the cycle rank of the connected graph."""
    comps = len(term.gamma1) + len(term.gamma2)
    rank = len(term.tails) - comps + 1 if comps else 0
    return sum(c.genus for c in term.gamma1 + term.gamma2) + rank


def dual_classes(space: Space) -> dict[str, HomologyClass]:
    """Basis element name -> its intersection dual class."""
    return {e.coeffs[0][0]: d for e, d in _duals(space)}


# ---------------------------------------------------------------------------
# effective cones


def _cone_members(model: EffectiveModel, budget: int):
    """All nonzero sums of connected effective classes with area <= budget."""
    pieces = model.classes(budget)
    zero = cls(model.basis, {})
    seen = {zero.encode(): zero}
    frontier = [zero]
    while frontier:
        grown = []
        for base in frontier:
            for piece in pieces:
                total = base + piece
                if model.area(total) > budget:
                    continue
                key = total.encode()
                if key not in seen:
                    seen[key] = total
                    grown.append(total)
        frontier = grown
    del seen[zero.encode()]
    return sorted(seen.values(), key=lambda c: (model.area(c), c.encode()))


def _missable_class(model: EffectiveModel, alpha: HomologyClass) -> bool:
    """True when alpha is a sum of connected classes that are each isolated
    or supported entirely on exceptional loci, so its generic representatives
    stay inside a fixed one-dimensional locus of the divisor."""
    pieces = [p for p in model.classes(model.area(alpha))
              if model.is_isolated(p)
              or all(name in model.exceptional for name, _ in p.coeffs)]
    return bool(_exact_decompositions(pieces, alpha, model.area))


# ---------------------------------------------------------------------------
# sides of one component


def _neck_class(setup: FiberSumSetup, alpha: HomologyClass, ell: int) -> HomologyClass:
    return setup.ruled.class_of(alpha, ell)


def _alpha_part(setup: FiberSumSetup, c: HomologyClass) -> HomologyClass:
    return setup.ruled.projection(c)


def _fiber_degree(setup: FiberSumSetup, c: HomologyClass) -> int:
    (fname, _), = setup.ruled.fiber.coeffs
    return c.coeff(fname)


def _represent(setup: FiberSumSetup, c: HomologyClass) -> Insertion | None:
    """Preimage of a divisor class as a bundle insertion, when it exists."""
    D = setup.left.divisor
    if c.grade == 0:
        return Insertion(setup.ruled.fiber, pulled_back=True)
    if c.grade == D.n:
        return Insertion(setup.ruled.total.fundamental, pulled_back=True)
    return None


def _left_spec(setup: FiberSumSetup, comp: GraphComponent,
               tails) -> InvariantSpec:
    rels = tuple(Insertion(t.cls, order=t.order) for t in tails)
    return InvariantSpec(setup.left, comp.genus, comp.cls,
                         tuple(comp.insertions), rels)


def _right_spec(setup: FiberSumSetup, comp: GraphComponent, tails):
    """(spec over representable constraints, leftover markers)."""
    reals, markers = [], []
    for ins in comp.insertions:
        if isinstance(ins, PulledBack):
            conv = _represent(setup, ins.cls)
            if conv is None:
                markers.append(ins)
            else:
                reals.append(conv)
        else:
            reals.append(ins)
    rels = tuple(Insertion(t.dual, order=t.order) for t in tails)
    spec = InvariantSpec(setup.right, comp.genus, comp.cls,
                         tuple(reals), rels)
    return spec, tuple(markers)


def _right_dimension(setup: FiberSumSetup, comp: GraphComponent, tails) -> int:
    spec, markers = _right_spec(setup, comp, tails)
    n = setup.total.n
    # each marker is one more insertion (+1 raw) of codim n - grade - 1
    return expected_dimension(spec) + sum(
        m.cls.grade + 2 - n for m in markers)


# ---------------------------------------------------------------------------
# enumeration


def _place(ins: Insertion) -> str:
    return ins.place if ins.place in ("Y", "split") else "X"


def _groups(spec: InvariantSpec):
    """Identical constraints bundled together, with their declared side."""
    buckets: dict[tuple, list[Insertion]] = {}
    for ins in spec.absolutes:
        key = (_place(ins), ins.cls.encode(), ins.descendents, ins.pulled_back)
        buckets.setdefault(key, []).append(ins)
    return [(key[0], items[0], len(items))
            for key, items in sorted(buckets.items())]


def _connected(p: int, q: int, edges) -> bool:
    find = _union_find((j, p + i) for _, j, i in edges)
    return len({find(v) for v in range(p + q)}) <= 1


def _skeletons(ks, ells):
    """Edge multisets (order, left, right) matching both contact profiles."""
    q = len(ells)

    def options(k):
        # multisets of (order, right) pairs summing to k, lexicographically
        pool = [(o, i) for o in range(1, k + 1) for i in range(q)]
        return _multisets(pool, [o for o, _ in pool], k)

    per_left = [options(k) for k in ks]
    for choice in itertools.product(*per_left):
        edges = []
        for j, part in enumerate(choice):
            for order, i in part:
                edges.append((order, j, i))
        sums = [0] * q
        for order, _, i in edges:
            sums[i] += order
        if sums == list(ells):
            yield tuple(edges)


def _canonical(setup, gamma1, gamma2, tails):
    """Sort components, minimize the edge list over label-preserving
    permutations, and count the automorphisms that fix it."""

    def arrange(comps):
        order = sorted(range(len(comps)), key=lambda i: comps[i].token())
        remap = {old: new for new, old in enumerate(order)}
        return tuple(comps[i] for i in order), remap

    g1, remap1 = arrange(gamma1)
    g2, remap2 = arrange(gamma2)
    base = tuple(replace(t, left=remap1[t.left], right=remap2[t.right])
                 for t in tails)

    def perm_group(comps):
        groups: dict[str, list[int]] = {}
        for i, c in enumerate(comps):
            groups.setdefault(c.token(), []).append(i)
        members = list(groups.values())
        perms = []
        for combo in itertools.product(
                *(itertools.permutations(g) for g in members)):
            mapping = list(range(len(comps)))
            for orig, imaged in zip(members, combo):
                for a, b in zip(orig, imaged):
                    mapping[a] = b
            perms.append(tuple(mapping))
        return perms

    perms1, perms2 = perm_group(g1), perm_group(g2)
    identity = _edge_key(base)
    best = None
    aut = 0
    for s in perms1:
        for t in perms2:
            mapped = tuple(replace(e, left=s[e.left], right=t[e.right])
                           for e in base)
            key = _edge_key(mapped)
            if key == identity:
                aut += 1
            if best is None or key < best[0]:
                best = (key, mapped)
    canonical = tuple(sorted(best[1], key=lambda e: e.token()))
    return g1, g2, canonical, aut


def _edge_key(edges):
    return tuple(sorted((e.order, e.cls.encode(), e.left, e.right)
                        for e in edges))


def _check_setup(setup: FiberSumSetup) -> None:
    if setup.total.effective is None or setup.left.divisor.effective is None:
        raise DecompositionError(
            f"{setup.name}: both sides need an effective-class model")


def _convert_neck(setup: FiberSumSetup, ins: Insertion):
    """A constraint declared on the bundle side, as a bundle insertion."""
    total = setup.ruled.total
    if ins.descendents:
        raise DecompositionError("descendent constraints cannot change sides")
    if ins.cls.grade == 0:
        return Insertion(total.point)
    if ins.cls.grade == setup.total.n:
        return Insertion(total.fundamental)
    raise DecompositionError(
        f"constraint {ins.token()} has no counterpart on the bundle side")


def enumerate_terms(setup: FiberSumSetup, spec: InvariantSpec,
                    bounds: Bounds | None = None):
    """All admissible splitting terms for an absolute count on the glued
    space, canonically ordered and deduplicated.

    Admissible means: component classes are sums of connected effective
    classes, every component carries a zero-dimensional constrained problem,
    contact orders match on both ends, the graph is connected, and the genus
    bookkeeping (component genera plus cycle rank) reproduces the count's
    genus.  Returns DecompTerm objects with multiplicities attached;
    exclusion counters are available through evaluate_decomposition.
    """
    terms, _ = _enumerate(setup, spec, bounds)
    return terms


def _enumerate(setup: FiberSumSetup, spec: InvariantSpec,
               bounds: Bounds | None):
    _check_setup(setup)
    if spec.pair is not None or spec.relatives:
        raise DecompositionError("the splitting starts from an absolute count")
    if spec.space.basis.name != setup.total.basis.name:
        raise DecompositionError(
            f"count lives on {spec.space.name}, setup on {setup.total.name}")
    if not spec.connected:
        raise DecompositionError("only connected counts split here")

    bounds = bounds or Bounds()
    X, D = setup.total, setup.left.divisor
    xmodel, dmodel = X.effective, D.effective
    budget = bounds.area if bounds.area is not None else int(X.area(spec.beta))
    duals = dual_classes(D)
    dnames = [e for e, _ in D.basis.elements]
    groups = _groups(spec)
    for side, ins, _ in groups:
        if side == "Y":
            _convert_neck(setup, ins)  # fail fast when not placeable
        elif side == "split":
            split_form(setup.left, ins.cls)

    excluded: dict[str, int] = {}

    def skip(reason):
        excluded[reason] = excluded.get(reason, 0) + 1

    emitted: dict[str, DecompTerm] = {}
    candidates = 0

    def emit(gamma1, gamma2, tails, weight):
        nonlocal candidates
        candidates += 1
        if candidates > bounds.max_terms:
            raise BoundError(
                f"more than {bounds.max_terms} admissible candidates; "
                "raise Bounds.max_terms or cut the area budget")
        per_left = [[t for t in tails if t.left == j]
                    for j in range(len(gamma1))]
        per_right = [[t for t in tails if t.right == i]
                     for i in range(len(gamma2))]
        for j, comp in enumerate(gamma1):
            if expected_dimension(_left_spec(setup, comp, per_left[j])) != 0:
                raise DecompositionError(f"unbalanced component {comp.token()}")
        for i, comp in enumerate(gamma2):
            if _right_dimension(setup, comp, per_right[i]) != 0:
                raise DecompositionError(f"unbalanced component {comp.token()}")
        g1, g2, canon, aut = _canonical(setup, gamma1, gamma2, tails)
        placement = tuple(sorted(
            f"{ins.token()}@R{i}" for i, c in enumerate(g2)
            for ins in c.insertions))
        term = DecompTerm(
            beta1=_side_sum(X, (c.cls for c in g1)),
            beta2=_side_sum(setup.ruled.total, (c.cls for c in g2)),
            partition=tuple(sorted((t.order for t in canon), reverse=True)),
            tails=canon,
            gamma1=g1,
            gamma2=g2,
            placement=placement,
            multiplicity=weight / aut,
        )
        key = term.encode()
        known = emitted.get(key)
        if known is None:
            emitted[key] = term
        elif known.multiplicity != term.multiplicity:
            raise DecompositionError(
                f"inconsistent multiplicities for {key}")

    fund_name = D.fundamental.coeffs[0][0]
    by_grade: dict[int, list[str]] = {}
    for name in dnames:
        by_grade.setdefault(D.basis.grade(name), []).append(name)
    xpieces = xmodel.classes(budget)
    # the zero class, then the divisor's cone: both the totals pushed into
    # the neck and the classes of single neck components
    dzero = cls(D.basis, {})
    alphas = [dzero] + _cone_members(dmodel, budget)
    alpha_areas = [dmodel.area(a) for a in alphas]

    def distribute(parts1, parts2, skeleton, genera1, genera2):
        """Spread constraint groups over the components, then label edges.

        The edge labels are forced up to grade by the requirement that both
        end components carry zero-dimensional problems, so grades are solved
        for first and only matching basis elements are tried.
        """
        p, q = len(parts1), len(parts2)
        choices = []
        for side, ins, count in groups:
            if side == "X":
                slots = [("L", j) for j in range(p)]
            elif side == "Y":
                slots = [("R", i) for i in range(q)]
            else:
                slots = [("L", j) for j in range(p)] + \
                        [("R", i) for i in range(q)]
            vectors = []
            for vec in _compositions(count, [0] * len(slots)):
                weight = Fraction(factorial(count))
                for nslot in vec:
                    weight /= factorial(nslot)
                vectors.append((vec, weight))
            if not vectors:
                return
            choices.append((side, ins, slots, vectors))

        probe = tuple(
            Tail(order, gen(D.basis, fund_name), duals[fund_name], j, i)
            for order, j, i in skeleton)
        left_edges = [[e for e, (_, j, _) in enumerate(skeleton) if j == jj]
                      for jj in range(p)]
        right_edges = [[e for e, (_, _, i) in enumerate(skeleton) if i == ii]
                       for ii in range(q)]
        dn = D.n

        for assignment in itertools.product(*(v for _, _, _, v in choices)):
            weight = Fraction(1)
            per_comp: dict[tuple, list] = {}
            for (side, ins, slots, _), (vec, w) in zip(choices, assignment):
                weight *= w
                for slot, nslot in zip(slots, vec):
                    if not nslot:
                        continue
                    if slot[0] == "L":
                        placed = Insertion(ins.cls, ins.descendents,
                                           pulled_back=ins.pulled_back)
                    elif side == "Y":
                        placed = _convert_neck(setup, ins)
                    else:
                        placed = PulledBack(split_form(setup.left, ins.cls))
                    per_comp.setdefault(slot, []).extend([placed] * nslot)
            gamma1 = tuple(
                GraphComponent(parts1[j], genera1[j],
                               tuple(per_comp.get(("L", j), ())))
                for j in range(p))
            gamma2 = tuple(
                GraphComponent(parts2[i], genera2[i],
                               tuple(per_comp.get(("R", i), ())))
                for i in range(q))

            # constraints needing generic incidence never meet a component
            # whose class stays inside a rigid locus
            if any(xmodel.is_isolated(c.cls)
                   and any(xmodel.in_missable(a.cls) for a in c.insertions)
                   for c in gamma1):
                skip("missable-insertion")
                continue
            if any(not _alpha_part(setup, c.cls).is_zero
                   and dmodel.is_isolated(_alpha_part(setup, c.cls))
                   and any(isinstance(a, Insertion) and not a.pulled_back
                           and a.cls.grade == 0 for a in c.insertions)
                   for c in gamma2):
                skip("missable-insertion")
                continue

            # grade sums forced on each component by zero-dimensionality;
            # probe tails carry the fundamental class (codim 1 on the left,
            # codim n through its dual on the right)
            try:
                need_left = []
                for j in range(p):
                    t = len(left_edges[j])
                    slack = expected_dimension(_left_spec(
                        setup, gamma1[j], [probe[e] for e in left_edges[j]]))
                    need_left.append(dn * t - slack)
                need_right = []
                for i in range(q):
                    t = len(right_edges[i])
                    slack = _right_dimension(
                        setup, gamma2[i], [probe[e] for e in right_edges[i]])
                    need_right.append(slack + dn * t)
            except InvariantError:
                continue
            if any(g < 0 or g > dn * len(left_edges[j])
                   for j, g in enumerate(need_left)):
                continue
            if any(g < 0 or g > dn * len(right_edges[i])
                   for i, g in enumerate(need_right)):
                continue

            grades = [None] * len(skeleton)

            def fill(j, rem_left, rem_right):
                if j == p:
                    if any(rem_right):
                        return
                    options = [by_grade.get(g, ()) for g in grades]
                    if not all(options):
                        return
                    for names in itertools.product(*options):
                        tails = tuple(
                            Tail(order, gen(D.basis, name), duals[name],
                                 jj, ii)
                            for (order, jj, ii), name
                            in zip(skeleton, names))
                        emit(gamma1, gamma2, tails, weight)
                    return

                def assign(edges, left_over):
                    if not edges:
                        if left_over == 0:
                            fill(j + 1, rem_left, rem_right)
                        return
                    e = edges[0]
                    i = skeleton[e][2]
                    for g in range(min(dn, left_over,
                                       rem_right[i]) + 1):
                        if g > left_over or g > rem_right[i]:
                            continue
                        grades[e] = g
                        rem_right[i] -= g
                        assign(edges[1:], left_over - g)
                        rem_right[i] += g
                        grades[e] = None

                assign(left_edges[j], rem_left[j])

            fill(0, need_left, list(need_right))

    def genus_plans(minima, rank):
        extra = spec.genus - sum(minima) - rank
        if bounds.extra_genus is not None and extra > bounds.extra_genus:
            return
        yield from _compositions(spec.genus - rank, minima)

    def configurations(alpha_tot, beta1):
        d = setup.left.contact_count(beta1)
        if d < 0:
            skip("negative-contact")
            return
        if beta1.is_zero:
            # nothing survives on the original side; one neck component
            # carries everything
            if any(side == "X" for side, _, _ in groups):
                skip("unplaceable")
                return
            comp_cls = _neck_class(setup, alpha_tot, 0)
            minima = (0 if alpha_tot.is_zero else dmodel.min_genus(alpha_tot),)
            for genera in genus_plans(minima, 0):
                distribute((), (comp_cls,), (), (), genera)
            return
        splittings = _exact_decompositions(xpieces, beta1, X.area)
        if not splittings:
            skip("ineffective-remainder")
            return
        if d == 0:
            if not alpha_tot.is_zero:
                skip("no-neck-contact")
                return
            for parts1 in splittings:
                if len(parts1) > 1:
                    skip("disconnected")
                    continue
                minima = tuple(xmodel.min_genus(c) for c in parts1)
                for genera in genus_plans(minima, 0):
                    distribute(parts1, (), (), genera, ())
            return
        # neck components (ell, alpha): the ells add up to d and the alphas
        # to alpha_tot, whose area bounds the search
        pool = [(ell, a) for ell in range(1, d + 1) for a in alphas]
        necks = [neck for neck in _multisets(
                     pool, [ell for ell, _ in pool], d,
                     alpha_areas * d, dmodel.area(alpha_tot))
                 if sum((a for _, a in neck), dzero) == alpha_tot]

        for parts1 in splittings:
            ks = tuple(setup.left.contact_count(c) for c in parts1)
            if any(k < 0 for k in ks):
                skip("negative-contact")
                continue
            if any(k == 0 for k in ks):
                skip("disconnected")
                continue
            for neck in necks:
                parts2 = tuple(_neck_class(setup, a, ell) for ell, a in neck)
                ells = tuple(ell for ell, _ in neck)
                minima = tuple(xmodel.min_genus(c) for c in parts1) + tuple(
                    0 if a.is_zero else dmodel.min_genus(a) for _, a in neck)
                p = len(parts1)
                for skeleton in _skeletons(ks, ells):
                    if not _connected(p, len(parts2), skeleton):
                        continue
                    rank = len(skeleton) - (p + len(parts2)) + 1
                    for genera in genus_plans(minima, rank):
                        distribute(parts1, parts2, skeleton,
                                   genera[:p], genera[p:])

    for alpha_tot in alphas:
        beta1 = spec.beta - setup.left.inclusion(alpha_tot)
        if not beta1.is_zero and X.area(beta1) <= 0:
            skip("area-exhausted")
            continue
        configurations(alpha_tot, beta1)

    terms = sorted(emitted.values(), key=lambda t: t.encode())
    return terms, excluded


def _side_sum(space: Space, classes) -> HomologyClass:
    total = cls(space.basis, {})
    for c in classes:
        total = total + c
    return total


def term_multiplicity(setup: FiberSumSetup, term: DecompTerm) -> Fraction:
    """Combinatorial weight of one term, recomputed from scratch.

    Identical constraints spread over several components count once per
    distinct indexed assignment; the automorphisms of the labelled graph
    divide the result.  Split constraints group with their other half.
    """
    slots: dict[tuple, dict[tuple, int]] = {}
    for side, comps in (("L", term.gamma1), ("R", term.gamma2)):
        for idx, comp in enumerate(comps):
            for ins in comp.insertions:
                key = _group_key(setup, ins)
                per = slots.setdefault(key, {})
                per[(side, idx)] = per.get((side, idx), 0) + 1
    weight = Fraction(1)
    for per in slots.values():
        total = sum(per.values())
        weight *= factorial(total)
        for n in per.values():
            weight /= factorial(n)
    _, _, _, aut = _canonical(setup, term.gamma1, term.gamma2, term.tails)
    return weight / aut


def _group_key(setup: FiberSumSetup, ins) -> tuple:
    if isinstance(ins, PulledBack):
        src = _SPLIT_SOURCES.get((setup.left.name, ins.cls.encode()))
        if src is not None:
            return ("split", src)
        return ("pb", ins.cls.encode())
    src = _SPLIT_SOURCES.get((setup.left.name, ins.cls.encode()))
    if src == ins.cls.encode() or (
            src is None and
            (setup.left.name, ins.cls.encode()) in _SPLIT_HALVES):
        return ("split", ins.cls.encode())
    return (ins.cls.basis.name, ins.cls.encode(), ins.descendents,
            ins.pulled_back)


# ---------------------------------------------------------------------------
# pruning and evaluation


def _prune_left(setup: FiberSumSetup, comp: GraphComponent, tails):
    verdict = decide(_left_spec(setup, comp, tails))
    return verdict.reason if verdict.is_zero else None


def _prune_right(setup: FiberSumSetup, comp: GraphComponent, tails):
    spec, markers = _right_spec(setup, comp, tails)
    if not markers:
        verdict = decide(spec)
        if verdict.is_zero:
            return verdict.reason
    else:
        reason = _prune_marked(setup, comp, spec, markers)
        if reason is not None:
            return reason
    return _prune_miss(setup, comp, tails)


def _prune_marked(setup, comp, spec, markers):
    """The genus-zero ruled checks, with markers counted as constraints."""
    if comp.genus != 0:
        return None
    fdeg = _fiber_degree(setup, comp.cls)
    alpha = _alpha_part(setup, comp.cls)
    if alpha.is_zero:
        if fdeg > 1:
            return FIBER_MULTIPLE
        s = len(spec.absolutes) + len(markers)
        if fdeg == 1 and s > 0 and s + len(spec.relatives) > 3:
            return FIBER_MULTIPLE
        return None
    against_zero = setup.ruled.total.intersect(
        comp.cls, setup.ruled.dzero_class)
    invariant = all(a.pulled_back for a in spec.absolutes)
    if against_zero >= 0 and invariant:
        return RULED_PULLED_BACK
    return None


def _prune_miss(setup: FiberSumSetup, comp: GraphComponent, tails):
    """Pulled-back constraints of high codimension miss the rigid locus
    that carries every invariant representative of a section-type class."""
    if comp.genus != 0:
        return None
    alpha = _alpha_part(setup, comp.cls)
    if alpha.is_zero:
        return None
    D = setup.left.divisor
    n = setup.total.n
    low = False
    for ins in comp.insertions:
        source = None
        if isinstance(ins, PulledBack):
            source = ins.cls
        elif ins.pulled_back and ins.cls == setup.ruled.fiber:
            source = D.point
        if source is not None and source.grade <= n - 3:
            low = True
    if not low:
        return None
    if _missable_class(D.effective, alpha):
        return PULLED_BACK_MISS
    return None


def prune_term(setup: FiberSumSetup, term: DecompTerm) -> str | None:
    """First structural reason the term vanishes, or None."""
    per_left = [[t for t in term.tails if t.left == j]
                for j in range(len(term.gamma1))]
    per_right = [[t for t in term.tails if t.right == i]
                 for i in range(len(term.gamma2))]
    for comp, tails in zip(term.gamma1, per_left):
        reason = _prune_left(setup, comp, tails)
        if reason is not None:
            return reason
    for comp, tails in zip(term.gamma2, per_right):
        reason = _prune_right(setup, comp, tails)
        if reason is not None:
            return reason
    return None


@dataclass(frozen=True)
class TermReport:
    """One ledger row: the term, its status, and the factor bookkeeping."""

    term: DecompTerm
    status: str
    reason: str = ""
    factors: tuple[str, ...] = ()
    contribution: Fraction | None = None


@dataclass
class Ledger:
    """Everything the splitting produced, in canonical order.

    `excluded` counts configurations dropped before they became terms
    (ineffective remainders, negative contacts, and the like).  The total
    sums resolved rows only; unresolved rows are listed, never guessed.
    """

    setup: str
    key: str
    reports: list[TermReport] = field(default_factory=list)
    excluded: dict[str, int] = field(default_factory=dict)
    distinguished: TermReport | None = None
    partial: bool = False

    @property
    def total(self) -> Fraction:
        return sum((r.contribution for r in self.reports if r.status == OK),
                   Fraction(0))

    @property
    def unresolved(self) -> tuple[TermReport, ...]:
        return tuple(r for r in self.reports if r.status == UNRESOLVED)

    @property
    def pruned(self) -> tuple[tuple[DecompTerm, str], ...]:
        return tuple((r.term, r.reason) for r in self.reports
                     if r.status == PRUNED)

    @property
    def flagged(self) -> tuple[TermReport, ...]:
        return tuple(r for r in self.reports
                     if r.status != PRUNED and r.term.multiplicity != 1)

    def dump(self) -> str:
        cols = ("status", "mult", "beta1", "beta2", "partition", "tails",
                "gamma1", "gamma2", "factors", "value", "note")
        lines = ["\t".join(cols)]
        for r in sorted(self.reports, key=lambda r: r.term.encode()):
            t = r.term
            lines.append("\t".join((
                r.status,
                str(t.multiplicity),
                t.beta1.encode(),
                t.beta2.encode(),
                ",".join(str(d) for d in t.partition) or "-",
                ",".join(e.token() for e in t.tails) or "-",
                ",".join(c.token() for c in t.gamma1) or "-",
                ",".join(c.token() for c in t.gamma2) or "-",
                ";".join(r.factors) or "-",
                "?" if r.contribution is None else str(r.contribution),
                r.reason or "-",
            )))
        lines.append(f"# total\t{self.total}")
        lines.append(f"# unresolved\t{len(self.unresolved)}")
        for reason in sorted(self.excluded):
            lines.append(f"# excluded\t{reason}={self.excluded[reason]}")
        return "\n".join(lines) + "\n"


def _evaluate_term(setup: FiberSumSetup, term: DecompTerm,
                   evaluator: Evaluator) -> TermReport:
    reason = prune_term(setup, term)
    if reason is not None:
        return TermReport(term, PRUNED, reason)
    per_left = [[t for t in term.tails if t.left == j]
                for j in range(len(term.gamma1))]
    per_right = [[t for t in term.tails if t.right == i]
                 for i in range(len(term.gamma2))]
    factors: list[str] = []
    values: list[Fraction] = []
    blockers: list[str] = []
    zero_note = ""
    for side, comps, tail_lists in (("L", term.gamma1, per_left),
                                    ("R", term.gamma2, per_right)):
        for idx, (comp, tails) in enumerate(zip(comps, tail_lists)):
            if side == "L":
                result = evaluator.evaluate(_left_spec(setup, comp, tails))
            else:
                spec, markers = _right_spec(setup, comp, tails)
                if not markers:
                    result = evaluator.evaluate(spec)
                elif (_alpha_part(setup, comp.cls).is_zero
                      and _fiber_degree(setup, comp.cls) == 1
                      and comp.genus == 0):
                    direct = fiber_count(
                        spec.pair, [t.cls for t in spec.relatives]
                        + [m.cls for m in markers], spec.absolutes)
                    result = (Unknown(("fiber count off the product table",))
                              if direct is None else
                              Value(direct, ("fiber-count",)))
                else:
                    result = Unknown((f"no bundle class for "
                                      f"{markers[0].token()}",))
            tag = f"{side}{idx}"
            if result.known:
                factors.append(f"{tag}={result.value}")
                values.append(result.value)
                if result.value == 0 and not zero_note:
                    zero_note = result.trace[0] if result.trace else "zero factor"
            else:
                factors.append(f"{tag}=?")
                blockers.extend(result.blockers)
    if any(v == 0 for v in values):
        return TermReport(term, OK, zero_note, tuple(factors), Fraction(0))
    if blockers:
        return TermReport(term, UNRESOLVED, blockers[0], tuple(factors))
    product = term.multiplicity
    for v in values:
        product *= v
    return TermReport(term, OK, "", tuple(factors), product)


def evaluate_decomposition(setup: FiberSumSetup, spec: InvariantSpec,
                           bounds: Bounds | None = None,
                           kb: KnowledgeBase | None = None) -> Ledger:
    """Enumerate, prune, and evaluate every splitting term.

    Pruned terms carry their reason and contribute nothing; rows whose
    factors stay unknown are reported unresolved and left out of the total.
    The rows are evaluated in canonical order by one evaluator, which may
    add solver-derived entries to the knowledge base.
    """
    terms, excluded = _enumerate(setup, spec, bounds)
    evaluator = Evaluator(kb if kb is not None else seed_table())
    return Ledger(setup.name, spec.key(),
                  reports=[_evaluate_term(setup, t, evaluator) for t in terms],
                  excluded=excluded)


def _is_distinguished(setup: FiberSumSetup, spec: InvariantSpec,
                      term: DecompTerm) -> bool:
    """The term that reproduces the relative count with fundamental tails:
    no neck at all when the class misses the divisor, otherwise one plain
    fiber per contact point, each tied by an order-one fundamental tail."""
    d = setup.left.contact_count(spec.beta)
    if d == 0:
        return not term.gamma2
    D = setup.left.divisor
    if len(term.gamma1) != 1 or len(term.gamma2) != d:
        return False
    for comp in term.gamma2:
        if comp.insertions or comp.genus != 0:
            return False
        if not _alpha_part(setup, comp.cls).is_zero:
            return False
        if _fiber_degree(setup, comp.cls) != 1:
            return False
    return all(t.order == 1 and t.cls == D.fundamental for t in term.tails)


def compare_abs_rel(setup: FiberSumSetup, spec: InvariantSpec,
                    bounds: Bounds | None = None,
                    kb: KnowledgeBase | None = None):
    """Difference between the absolute count and its relative counterpart.

    The distinguished term of the splitting is the relative count itself;
    everything else measures the failure of the two to agree.  Returns
    (difference, ledger); the ledger records which row was distinguished
    and whether unresolved rows make the difference a lower bound only.
    """
    for ins in spec.absolutes:
        if _place(ins) == "Y":
            raise DecompositionError(
                "comparison needs every constraint on the original side")
    ledger = evaluate_decomposition(setup, spec, bounds=bounds, kb=kb)
    difference = Fraction(0)
    for report in ledger.reports:
        if _is_distinguished(setup, spec, report.term):
            ledger.distinguished = report
            continue
        if report.status == OK:
            difference += report.contribution
        elif report.status == UNRESOLVED:
            ledger.partial = True
    return difference, ledger
