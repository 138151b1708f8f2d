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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial
from operator import add, le, mul, sub

from .dimension import (Insertion, InvariantError, InvariantSpec,
                        constraint_codim, expected_dimension)
from .kbeval import Evaluator, KnowledgeBase, Value, seed_table
from .lattice import HomologyClass, cls, gen
from .spaces import EffectiveModel, FiberSumSetup, Space
from .strata import (_compositions, _ExactSums, _relabelings, _union_find,
                     graph_genus)
from .vanishing import decide

PULLED_BACK_MISS = "pulled-back-miss"

OK = "ok"
PRUNED = "pruned"
UNRESOLVED = "unresolved"


class DecompositionError(Exception):
    pass


class BoundError(DecompositionError):
    """An enumeration bound was exceeded; raised, never swallowed."""


def split_form(pair, c: HomologyClass) -> HomologyClass:
    """Divisor class whose preimage is the bundle-side half of constraint c,
    as the pair declares it."""
    for source, half in pair.splits:
        if c == source:
            return half
    raise DecompositionError(
        f"no declared splitting of {c.encode()} across {pair.name}")


@dataclass(frozen=True)
class Bounds:
    """Budgets for the term enumeration.

    `area` caps the area of every component class (default: area of the full
    class; see `_area_budget` for budgets above it, and the ledger footer
    for budgets below it).  `max_terms` caps admissible candidates before
    deduplication.
    """

    area: int | None = None
    max_terms: int = 20000


@dataclass(frozen=True)
class GraphComponent:
    """One vertex: a class on its side, a genus, and its constraints."""

    cls: HomologyClass
    genus: int
    insertions: tuple = ()

    def token(self) -> str:
        """Canonical text form.

        The text is built on the first call and kept on the instance, outside
        the dataclass fields, so equality, hashing and repr do not see it.
        """
        out = self.__dict__.get("_token")
        if out is None:
            ins = ",".join(sorted(i.token() for i in self.insertions))
            out = f"[{self.cls.encode()};g{self.genus};{ins}]"
            object.__setattr__(self, "_token", out)
        return out


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
        """Canonical text form, built on the first call and kept on the
        instance as `GraphComponent` keeps its token."""
        out = self.__dict__.get("_token")
        if out is None:
            out = f"({self.order},{self.cls.encode()})@{self.left}:{self.right}"
            object.__setattr__(self, "_token", out)
        return out


@dataclass(frozen=True)
class DecompTerm:
    """One summand of the splitting: graph, classes, and multiplicity."""

    beta1: HomologyClass
    beta2: HomologyClass
    partition: tuple[int, ...]
    tails: tuple[Tail, ...]
    gamma1: tuple[GraphComponent, ...]
    gamma2: tuple[GraphComponent, ...]
    multiplicity: Fraction

    def encode(self) -> str:
        """Canonical text form, kept on the instance as `GraphComponent`
        keeps its token."""
        out = self.__dict__.get("_code")
        if out is None:
            g1 = ",".join(c.token() for c in self.gamma1)
            g2 = ",".join(c.token() for c in self.gamma2)
            t = ",".join(t.token() for t in self.tails)
            out = f"g1={g1}|g2={g2}|tails={t}"
            object.__setattr__(self, "_code", out)
        return out

    def __str__(self) -> str:
        return self.encode()


# ---------------------------------------------------------------------------
# effective cones


def _cone_members(model: EffectiveModel, budget: int):
    """All nonzero sums of connected effective classes with area <= budget.

    Sums are keyed by their integer vectors, so a class reached along
    several orders of its pieces is built once; areas add up piece by
    piece, and the pieces come in increasing area."""
    pieces = [(piece, model.area(piece)) for piece in model.classes(budget)]
    zero = cls(model.basis, {})
    seen = {zero.vec: (0, zero)}
    frontier = [(0, zero)]
    while frontier:
        grown = []
        for base_area, base in frontier:
            for piece, area in pieces:
                if base_area + area > budget:
                    break
                key = tuple(map(add, base.vec, piece.vec))
                if key not in seen:
                    seen[key] = entry = (base_area + area, base + piece)
                    grown.append(entry)
        frontier = grown
    del seen[zero.vec]
    return [c for _, c in sorted(seen.values(),
                                 key=lambda e: (e[0], e[1].encode()))]


def _missable_class(model: EffectiveModel, alpha: HomologyClass) -> bool:
    """True when alpha is a sum of isolated connected classes, so its
    generic representatives stay inside a fixed one-dimensional locus of
    the divisor."""
    pieces = [p for p in model.classes(model.area(alpha)) if model.is_isolated(p)]
    table = _ExactSums(pieces, [p.vec for p in pieces],
                       [model.area(p) for p in pieces], [0] * len(pieces))
    return bool(table(alpha.vec, model.area(alpha), 0))


# ---------------------------------------------------------------------------
# sides of one component


def _component_spec(pair, comp: GraphComponent, rels) -> InvariantSpec:
    """The count one component carries on its side's pair, with the
    contact insertions `rels` of its tails."""
    return InvariantSpec(pair, comp.genus, comp.cls, comp.insertions, rels)


class _ComponentTable:
    """The components of one ledger, from enumeration to evaluation.

    A component is keyed by its side ("L" divisor side, "R" bundle side),
    its token and the (order, class vector) of its tails in the order
    given, the class on the divisor side and its dual on the bundle side:
    plain tuples, as hashing a spec hashes its whole space.  Each entry
    [spec, expected dimension, prune reason] is filled in on first read.
    The contact insertion of a tail end is built once per (order, class)
    and shared by every spec that has it, and whether a divisor class is
    missable is kept per class.
    """

    def __init__(self, setup: FiberSumSetup):
        self.setup = setup
        self.entries: dict[tuple, list] = {}
        self.ends: dict[tuple, Insertion] = {}
        self.missable: dict[tuple, bool] = {}

    def entry(self, side: str, comp: GraphComponent, tails) -> list:
        """The entry of one component; its spec raises as `InvariantSpec`
        does, and a component that raises keeps no entry."""
        if side == "L":
            parts = tuple([(t.order, t.cls.vec) for t in tails])
        else:
            parts = tuple([(t.order, t.dual.vec) for t in tails])
        key = (side, comp.token(), parts)
        out = self.entries.get(key)
        if out is None:
            setup = self.setup
            pair = setup.left if side == "L" else setup.right
            rels = tuple([self.end(t.order, t.cls if side == "L" else t.dual)
                          for t in tails])
            out = self.entries[key] = [_component_spec(pair, comp, rels),
                                       None, None]
        return out

    def end(self, order: int, c: HomologyClass) -> Insertion:
        """The contact insertion of order `order` and class c."""
        key = (order, c.vec)
        out = self.ends.get(key)
        if out is None:
            out = self.ends[key] = Insertion(c, order=order)
        return out

    def dimension(self, side: str, comp: GraphComponent, tails) -> int:
        out = self.entry(side, comp, tails)
        if out[1] is None:
            out[1] = expected_dimension(out[0])
        return out[1]

    def reason(self, side: str, comp: GraphComponent, tails) -> str | None:
        """The first structural reason the component vanishes, or None:
        `decide`'s, then on the bundle side a pulled-back miss.  Kept as
        "" when there is none."""
        out = self.entry(side, comp, tails)
        if out[2] is None:
            verdict = decide(out[0])
            if verdict.is_zero:
                out[2] = verdict.reason
            elif side == "R":
                out[2] = self.missed(comp) or ""
            else:
                out[2] = ""
        return out[2] or None

    def missed(self, comp: GraphComponent) -> str | None:
        """Pulled-back constraints of high codimension miss the rigid
        locus that carries every invariant representative of a
        section-type class."""
        setup = self.setup
        if comp.genus != 0:
            return None
        alpha = setup.ruled.projection(comp.cls)
        if alpha.is_zero:
            return None
        n = setup.total.n
        if not any(ins.pulled_back and ins.cls.grade <= n - 3
                   for ins in comp.insertions):
            return None
        missable = self.missable.get(alpha.vec)
        if missable is None:
            missable = self.missable[alpha.vec] = _missable_class(
                setup.left.divisor.effective, alpha)
        return PULLED_BACK_MISS if missable else None


# ---------------------------------------------------------------------------
# enumeration


class _Row:
    """One constraint group's row in one configuration (`_placements`).

    `group` indexes the ledger's groups, `slots` lists the slots the group
    reaches and `forbidden` marks those the missable rule keeps it off.
    The entries (vector, weight, slack delta) are the composition vectors
    of the group's count that put nothing on a forbidden slot, nor on a
    slot of a side whose spec refuses the constraint (`_placed`), in
    lexicographic order, with their multinomial weights and what they add
    to each slack, the divisor-side slacks first.  Their number (`len`)
    and, per slack, the least and the most an entry adds are known in
    closed form; the entries are built on the first iteration and kept.
    """

    __slots__ = ("group", "slots", "forbidden", "size", "least", "most",
                 "build", "entries")

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        if self.entries is None:
            self.entries = self.build()
            self.build = None
        return iter(self.entries)


def _row_entries(vectors: dict, count: int, shut: tuple, gains, head, tail):
    """The entries of a row: the vectors of `count` that put nothing on a
    slot marked in `shut`, read from the ledger's memo `vectors` of
    (count, mask) -> [(vector, weight)] and built there on first read,
    each with its slack delta, `gains` per slot between the zeros `head`
    and `tail`."""
    out = vectors.get((count, shut))
    if out is None:
        out = vectors[count, shut] = _allowed_vectors(count, shut)
    return [(vec, w, head + tuple(map(mul, vec, gains)) + tail)
            for vec, w in out]


class _ConfigTable:
    """The configuration data of one ledger, each piece built on its first
    read and kept.

    - Constraint rows.  A group's row (`_Row`) depends only on the group,
      the numbers p, q of divisor-side and bundle-side components and the
      mask of slots the missable rule forbids, its composition vectors and
      their weights only on the group's count and the slots it may not
      take.  Rows are kept per (group, p, q, mask), vectors per (count,
      mask), and whether a slot is forbidden per (group, side, slot
      class).
    - Piece data.  A splitting piece's contact count and least genus, and
      a neck component's bundle-side class and least genus, per class.
    - Tail grades of a divisor-side component, per (need, tail count).

    A row reads the vector memo, not the table, so the table is freed by
    reference counting.
    """

    def __init__(self, setup: FiberSumSetup, groups):
        self.setup, self.groups = setup, groups
        self.placed = _placed(setup, groups)
        self.barred: dict[tuple, bool] = {}
        self.vectors: dict[tuple, list] = {}
        self.rows: dict[tuple, _Row] = {}
        self.pieces: dict[tuple, tuple[int, int]] = {}
        self.necks: dict[tuple, tuple] = {}
        self.tail_grades: dict[tuple, list] = {}

    def forbidden(self, g: int, where: str, c: HomologyClass) -> bool:
        """Whether group g's constraint is kept off a component of class c
        on side `where`: a missable class off an isolated divisor-side
        class, and a point moved to the bundle side off a component whose
        divisor part is nonzero and isolated."""
        key = (g, where, c.vec)
        out = self.barred.get(key)
        if out is None:
            setup = self.setup
            side, ins, _ = self.groups[g]
            if where == "L":
                xmodel = setup.total.effective
                out = xmodel.in_missable(ins.cls) and xmodel.is_isolated(c)
            else:
                # only a Y constraint lands on the bundle side as a plain
                # insertion; a split one lands there pulled back
                alpha = setup.ruled.projection(c)
                out = (side == "Y"
                       and _convert_neck(setup, ins).cls.grade == 0
                       and not alpha.is_zero
                       and setup.left.divisor.effective.is_isolated(alpha))
            self.barred[key] = out
        return out

    def row(self, key: tuple, slots) -> _Row:
        """The row of `key` = (group, p, q, forbidden mask) over `slots`,
        the slots that key gives, which lie side by side among the slacks:
        the divisor-side ones, then the bundle-side ones."""
        out = self.rows.get(key)
        if out is not None:
            return out
        g, p, q, forbidden = key
        _, _, count = self.groups[g]
        sides = self.placed[g]
        gains = [sides[where][1] for where, _ in slots]
        shut = tuple(no or gain is None for no, gain in zip(forbidden, gains))
        gains = [0 if no else gain for no, gain in zip(shut, gains)]
        start = p if slots and slots[0][0] == "R" else 0
        head, tail = (0,) * start, (0,) * (p + q - start - len(slots))
        # a slot takes 0..count copies, or all of them when it is the one
        # open slot
        opened = sum(not no for no in shut)
        alone = opened == 1
        out = self.rows[key] = _Row()
        out.group, out.slots, out.forbidden = g, slots, forbidden
        out.size = _vector_count(count, opened)
        out.least = head + tuple(count * gain if alone else min(0, count * gain)
                                 for gain in gains) + tail
        out.most = head + tuple(count * gain if alone else max(0, count * gain)
                                for gain in gains) + tail
        out.build = partial(_row_entries, self.vectors, count, shut, gains,
                            head, tail)
        out.entries = None
        return out

    def piece(self, c: HomologyClass) -> tuple[int, int]:
        """(contact count, least genus) of a divisor-side class."""
        out = self.pieces.get(c.vec)
        if out is None:
            setup = self.setup
            out = self.pieces[c.vec] = (setup.left.contact_count(c),
                                        setup.total.effective.min_genus(c))
        return out

    def grades(self, need: int, tails: int) -> list:
        """The grade vectors, in lexicographic order, of `tails` tails on
        one divisor-side component: each grade in 0..dim D, adding up to
        `need`."""
        out = self.tail_grades.get((need, tails))
        if out is None:
            dn = self.setup.left.divisor.n
            out = self.tail_grades[need, tails] = [
                gs for gs in _compositions(need, [0] * tails)
                if all(g <= dn for g in gs)]
        return out

    def neck(self, ell: int, alpha: HomologyClass) -> tuple:
        """(bundle-side class, least genus) of the neck component of
        contact order ell over the divisor class alpha."""
        key = (ell, alpha.vec)
        out = self.necks.get(key)
        if out is None:
            setup = self.setup
            out = self.necks[key] = (
                setup.ruled.class_of(alpha, ell),
                0 if alpha.is_zero
                else setup.left.divisor.effective.min_genus(alpha))
        return out


def _groups(spec: InvariantSpec):
    """Identical constraints bundled together, with their declared side."""
    buckets: dict[tuple, list[Insertion]] = {}
    for ins in spec.absolutes:
        key = (ins.place, ins.cls.encode())
        buckets.setdefault(key, []).append(ins)
    return [(key[0], items[0], len(items))
            for key, items in sorted(buckets.items())]


def _placements(configs: _ConfigTable, parts1, parts2):
    """(rows, rejected): how each constraint group of the ledger's
    configuration table may spread over the divisor-side components
    `parts1` ("L" slots) and the bundle-side ones `parts2` ("R" slots).

    A constraint needing generic incidence never meets a component whose
    class stays inside a rigid locus (`_ConfigTable.forbidden`), so the
    forbidden slots are decided first and each group's row is read from
    the table by them.  `rejected` counts the assignments of all groups
    together that some forbidden slot rules out, in closed form: the
    product over groups of C(n+s-1, s-1), with n copies over s slots, less
    the same product over the allowed slots.
    """
    p, q = len(parts1), len(parts2)
    left = [("L", j) for j in range(p)]
    right = [("R", i) for i in range(q)]
    rows = []
    built = kept = 1
    for g, (side, _, count) in enumerate(configs.groups):
        slots = left if side == "X" else right if side == "Y" else left + right
        forbidden = tuple(
            configs.forbidden(g, where, (parts1 if where == "L" else parts2)[k])
            for where, k in slots)
        built *= _vector_count(count, len(slots))
        kept *= _vector_count(count, len(slots) - sum(forbidden))
        rows.append(configs.row((g, p, q, forbidden), slots))
    return rows, built - kept


def _vector_count(count: int, slots: int) -> int:
    """The composition vectors of `count` over `slots` slots,
    C(count+slots-1, slots-1); one empty vector for nothing over none."""
    return comb(count + slots - 1, slots - 1) if slots else int(count == 0)


def _allowed_vectors(count: int, forbidden):
    """The composition vectors of `count` that put nothing on a slot marked
    in `forbidden`, in lexicographic order, each with its multinomial
    weight: built over the allowed slots, with zeros put back at the
    forbidden ones."""
    allowed = [k for k, no in enumerate(forbidden) if not no]
    parts = _compositions(count, [0] * len(allowed))
    if len(allowed) == len(forbidden):
        return [(part, _multinomial(count, part)) for part in parts]
    out = []
    for part in parts:
        vec = [0] * len(forbidden)
        for k, n in zip(allowed, part):
            vec[k] = n
        out.append((tuple(vec), _multinomial(count, part)))
    return out


def _multinomial(count: int, vec) -> int:
    """Ways to hand `count` identical constraints out as the vector `vec`."""
    ways = factorial(count)
    for n in vec:
        ways //= factorial(n)
    return ways


def _placed(setup: FiberSumSetup, groups):
    """Per constraint group, {side: (insertion, gain)} for the sides its
    slots reach: "L" for divisor-side components, "R" for bundle-side ones.

    The insertion is the group's constraint as it lands on that side; the
    gain, 1 - codim in the side's ambient space, is what one copy of it
    adds to a component's expected dimension.  The gain is None where the
    side's spec refuses the insertion.
    """
    out = []
    for side, ins, _ in groups:
        lands = []
        if side != "Y":
            lands.append(("L", setup.left, Insertion(ins.cls)))
        if side == "Y":
            lands.append(("R", setup.right, _convert_neck(setup, ins)))
        elif side == "split":
            lands.append(("R", setup.right, Insertion(
                split_form(setup.left, ins.cls), pulled_back=True)))
        sides = {}
        for where, pair, placed in lands:
            try:
                InvariantSpec(pair, 0, cls(pair.ambient.basis, {}), (placed,))
            except InvariantError:
                sides[where] = (placed, None)
                continue
            sides[where] = (placed, 1 - constraint_codim(placed, pair.ambient.n))
        out.append(sides)
    return out


def _slack_table(components: _ComponentTable, rows, comps1, comps2, tails1,
                 tails2):
    """(base, rows): the integer slack of every constraint assignment.

    `base` holds the slack of each bare component with its tails, the
    divisor-side ones first; `rows`, one `_Row` per constraint group, hold
    what each of its composition vectors adds to every slack.  Raises
    InvariantError where the spec of a bare component does.
    """
    base = [components.dimension("L", c, t) for c, t in zip(comps1, tails1)]
    base += [components.dimension("R", c, t) for c, t in zip(comps2, tails2)]
    return base, rows


def _balanced(base, rows, bounds):
    """The assignments of `rows`, in the order of their product, whose
    every slack lies within its (low, high) bound, each with its slacks.

    The walk is depth-first in product order, one row per level.  An entry
    is dropped as soon as some slack, plus the least (or the most) that the
    rows after it can add to it (`_Row.least`, `_Row.most`), falls outside
    its bound: each level keeps the window each slack must lie in.
    """
    if not all(rows):
        return
    # floors[r], ceils[r]: the window of each slack once r rows are
    # chosen, so that rows r, r+1, ... can still bring it within bounds
    floors = [[lo for lo, _ in bounds]]
    ceils = [[hi for _, hi in bounds]]
    for row in reversed(rows):
        floors.append(list(map(sub, floors[-1], row.most)))
        ceils.append(list(map(sub, ceils[-1], row.least)))
    floors.reverse()
    ceils.reverse()
    if not (all(map(le, floors[0], base)) and all(map(le, base, ceils[0]))):
        return
    if not rows:
        yield (), list(base)
        return
    last = len(rows) - 1
    stack = [(0, base, ())]
    while stack:
        r, slack, chosen = stack.pop()
        # the room each slack leaves a delta of row r
        lows = list(map(sub, floors[r + 1], slack))
        highs = list(map(sub, ceils[r + 1], slack))
        kept = []
        for entry in rows[r]:
            delta = entry[2]
            if all(map(le, lows, delta)) and all(map(le, delta, highs)):
                out = list(map(add, slack, delta))
                if r == last:
                    yield chosen + (entry,), out
                else:
                    kept.append((r + 1, out, chosen + (entry,)))
        stack.extend(reversed(kept))


def _constrained(comp: GraphComponent, insertions) -> GraphComponent:
    """The bare component `comp` with `insertions` placed on it; itself
    when there are none."""
    if not insertions:
        return comp
    return GraphComponent(comp.cls, comp.genus, tuple(insertions))


def _connected(p: int, q: int, edges) -> bool:
    # parallel edges join nothing new
    find = _union_find({(j, p + i) for _, j, i in edges})
    return len({find(v) for v in range(p + q)}) <= 1


@cache
def _edge_options(k: int, q: int):
    """The edges one divisor-side component of contact count k can send to
    q bundle-side ones, lexicographically: (part, load) pairs, a part being
    a multiset of (order, right) pairs whose orders add up to k and its
    load the sum of orders it puts on each bundle-side component."""
    pool = [(o, i) for o in range(1, k + 1) for i in range(q)]
    table = _ExactSums(pool, [()] * len(pool), [o for o, _ in pool],
                       [0] * len(pool))
    out = []
    for part in table((), k, 0):
        load = [0] * q
        for o, i in part:
            load[i] += o
        out.append((part, tuple(load)))
    return tuple(out)


def _skeletons(ks, ells):
    """Edge multisets (order, left, right) matching both contact profiles
    with at least the len(ks) + len(ells) - 1 edges a connected graph
    needs, in the order of the product of the per-left options.  A branch
    stops as soon as a right-hand sum passes its entry of `ells`, or when
    its edges, with one more per contact point still to place, fall short
    of that number; the last left component takes only the options that
    fill what is left."""
    if not ks:
        return [] if any(ells) else [()]
    per_left = [_edge_options(k, len(ells)) for k in ks]
    last = len(ks) - 1
    # the most edges the components after j can add
    later = [sum(ks[j + 1:]) for j in range(len(ks))]
    need = len(ks) + len(ells) - 1
    out = []

    def rec(j, left, chosen, edges):
        for part, load in per_left[j]:
            if edges + len(part) + later[j] < need:
                continue
            if j < last:
                rest = tuple(map(sub, left, load))
                if min(rest) >= 0:
                    rec(j + 1, rest, chosen + (part,), edges + len(part))
            elif load == left:
                out.append(tuple((o, jj, i) for jj, p in
                                 enumerate(chosen + (part,)) for o, i in p))

    rec(0, tuple(ells), (), 0)
    return out


def _connected_skeletons(memo: dict, ks, ells):
    """The skeletons of one contact profile whose graph is connected,
    built on the first call for the profile and kept in `memo`."""
    out = memo.get((ks, ells))
    if out is None:
        out = memo[ks, ells] = [s for s in _skeletons(ks, ells)
                                if _connected(len(ks), len(ells), s)]
    return out


def _canonical(gamma1, gamma2, tails):
    """Sort components by token, minimize the edge list over the
    relabelings that move a component only among those of equal token,
    and count the automorphisms, the relabelings that fix it.

    When neither side has two components of equal token, the identity is
    the only relabeling: there is one automorphism, and the tails, moved
    with their components, are listed by token; a tail whose ends do not
    move is kept as it is.  Otherwise edges are searched as sorted
    (order, class text, left, right) tuples; the first strict minimum
    wins, and `Tail`s are built for it alone, listed by token."""

    def arrange(comps):
        tokens = [c.token() for c in comps]
        order = sorted(range(len(comps)), key=tokens.__getitem__)
        remap = [0] * len(comps)
        for new, old in enumerate(order):
            remap[old] = new
        labels = [tokens[i] for i in order]
        return tuple(comps[i] for i in order), remap, labels

    g1, remap1, labels1 = arrange(gamma1)
    g2, remap2, labels2 = arrange(gamma2)
    if len(set(labels1)) == len(labels1) and len(set(labels2)) == len(labels2):
        moved = [t if remap1[t.left] == t.left and remap2[t.right] == t.right
                 else Tail(t.order, t.cls, t.dual, remap1[t.left],
                           remap2[t.right]) for t in tails]
        return g1, g2, tuple(sorted(moved, key=Tail.token)), 1
    base = [(t.order, t.cls.encode(), remap1[t.left], remap2[t.right])
            for t in tails]
    identity = tuple(sorted(base))
    perms2 = list(_relabelings(labels2))
    best = None
    aut = 0
    for s in _relabelings(labels1):
        for t in perms2:
            key = tuple(sorted((o, c, s[j], t[i]) for o, c, j, i in base))
            if key == identity:
                aut += 1
            if best is None or key < best[0]:
                best = (key, s, t)
    _, s, t = best
    canonical = tuple(sorted(
        (Tail(e.order, e.cls, e.dual, s[j], t[i])
         for e, (_, _, j, i) in zip(tails, base)), key=Tail.token))
    return g1, g2, canonical, aut


def _graph_key(gamma1, gamma2, tails):
    """An indexed graph: the tokens of its components and of its tails."""
    return (tuple(c.token() for c in gamma1),
            tuple(c.token() for c in gamma2),
            tuple(t.token() for t in tails))


def _check_setup(setup: FiberSumSetup) -> None:
    if setup.total.effective is None or setup.left.divisor.effective is None:
        raise DecompositionError(
            f"{setup.name}: both sides need an effective-class model")


def _convert_neck(setup: FiberSumSetup, ins: Insertion):
    """A constraint declared on the bundle side, as a bundle insertion."""
    total = setup.ruled.total
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
    terms, _ = _enumerate(_ComponentTable(setup), spec, bounds)
    return terms


def _area_budget(setup: FiberSumSetup, spec: InvariantSpec,
                 bounds: Bounds | None) -> tuple[int, int]:
    """(area budget of the enumeration, area of the count's class).

    Without a budget the class area is used.  When the pair's inclusion
    shrinks no divisor class's area (`_shrinks_area`), no component of a
    term is larger than the class, so a larger budget is cut to the class
    area: it would only add neck totals that leave the original side a
    class of negative area.
    """
    class_area = int(setup.total.area(spec.beta))
    if bounds is None or bounds.area is None:
        return class_area, class_area
    if bounds.area > class_area and not _shrinks_area(setup.left):
        return class_area, class_area
    return bounds.area, class_area


def _shrinks_area(pair) -> bool:
    """True when the inclusion gives some connected effective divisor class
    a smaller area than it has in the divisor.

    Otherwise the class area bounds every component of a term: the
    original side keeps at most the class area, and each neck component
    at most the area of the neck total's image.  Checked on the offsets
    and generators of the divisor's cone branches; both areas are linear.
    """
    X, D = pair.ambient, pair.divisor
    spans = [c for b in D.effective.branches for c in b.generators]
    spans += [b.offset for b in D.effective.branches if b.offset is not None]
    return any(X.area(pair.inclusion(c)) < D.area(c) for c in spans)


def _enumerate(components: _ComponentTable, spec: InvariantSpec,
               bounds: Bounds | None):
    """(terms, excluded) of the splitting of `spec` along the setup of
    `components`, the ledger's component table."""
    setup = components.setup
    _check_setup(setup)
    if spec.pair is not None or spec.relatives:
        raise DecompositionError("the splitting starts from an absolute count")
    if spec.space.basis.name != setup.total.basis.name:
        raise DecompositionError(
            f"count lives on {spec.space.name}, setup on {setup.total.name}")

    bounds = bounds or Bounds()
    X, D = setup.total, setup.left.divisor
    xmodel, dmodel = X.effective, D.effective
    budget, _ = _area_budget(setup, spec, bounds)
    duals = D.duals
    dnames = [e for e, _ in D.basis.elements]
    groups = _groups(spec)
    for side, ins, _ in groups:
        if side == "Y":
            _convert_neck(setup, ins)  # fail fast when not placeable
        elif side == "split":
            split_form(setup.left, ins.cls)
    configs = _ConfigTable(setup, groups)
    # (contact profile on the divisor side, on the bundle side) -> its
    # connected skeletons
    skeletons: dict[tuple, list] = {}

    excluded: dict[str, int] = {}

    def skip(reason):
        excluded[reason] = excluded.get(reason, 0) + 1

    # indexed graph -> [summed weight, gamma1, gamma2, tails]
    graphs: dict[tuple, list] = {}
    # (side, class vector, genus) -> the component with no constraints
    bare: dict[tuple, GraphComponent] = {}

    def bare_components(side, parts, genera):
        out = []
        for c, g in zip(parts, genera):
            comp = bare.get((side, c.vec, g))
            if comp is None:
                comp = bare[side, c.vec, g] = GraphComponent(c, g)
            out.append(comp)
        return out

    candidates = 0

    def emit(gamma1, gamma2, tails, weight):
        """Record one constraint assignment.  Assignments that put the same
        insertions on every component are one indexed graph: their
        weights add."""
        nonlocal candidates
        candidates += 1
        if candidates > bounds.max_terms:
            raise BoundError(
                f"more than {bounds.max_terms} admissible candidates; "
                "raise Bounds.max_terms or cut the area budget")
        key = _graph_key(gamma1, gamma2, tails)
        graph = graphs.get(key)
        if graph is None:
            graphs[key] = [weight, gamma1, gamma2, tails]
        else:
            graph[0] += weight

    # each divisor basis element as a tail class with its dual, built once,
    # and the elements by grade
    ends = {name: (gen(D.basis, name), duals[name]) for name in dnames}
    by_grade: dict[int, list[str]] = {}
    for name in dnames:
        by_grade.setdefault(D.basis.grade(name), []).append(name)
    xpieces = xmodel.classes(budget)
    # the zero class, then the divisor's cone: both the totals pushed into
    # the neck and the classes of single neck components
    dzero = cls(D.basis, {})
    alphas = [dzero] + _cone_members(dmodel, budget)
    alpha_areas = [dmodel.area(a) for a in alphas]
    # (alpha, remainder, its contact count) per neck total alpha
    remainders = []
    for a in alphas:
        beta1 = spec.beta - setup.left.inclusion(a)
        remainders.append((a, beta1, setup.left.contact_count(beta1)))
    # one exact-sum table per pool, read for every class it splits: the
    # splittings of each remainder into connected pieces, and the necks,
    # pairs (ell, alpha) with ell up to the largest contact count of a
    # remainder, ordered by ell then alpha
    splittings_of = _ExactSums(xpieces, [p.vec for p in xpieces],
                               [X.area(p) for p in xpieces],
                               [0] * len(xpieces))
    dmax = max(d for _, _, d in remainders)
    neck_pool = [(ell, a) for ell in range(1, dmax + 1) for a in alphas]
    necks_of = _ExactSums(neck_pool, [a.vec for _, a in neck_pool],
                          [ell for ell, _ in neck_pool], alpha_areas * dmax)

    def distribute(parts1, parts2, skeleton, genera1, genera2):
        """Spread constraint groups over the components, then label edges.

        The missable rule is decided per (group, slot) by `_placements`,
        which reads each group's row from the ledger's configuration table;
        the assignments the rule rules out are counted in closed form as
        `missable-insertion` on every call, never built.  The edge labels
        are forced up to grade by the requirement that both end components
        carry zero-dimensional problems, so grades are solved for first and
        only matching basis elements are tried.

        A component's slack is `expected_dimension` of its spec with probe
        tails of the fundamental class, and that is linear in the absolute
        insertions: slack = base + sum of n * (1 - codim(placed)) over the
        constraints placed on it, n copies each, with codim taken in the
        side's ambient space.  So the base is computed once per component
        and the gain once per group and side (`_placed`), the slacks are
        checked as integers, a prefix of groups whose slacks can no longer
        reach their bounds is cut (`_balanced`), a row's entries are built
        only when a walk reaches them, and components are built only for
        the assignments that pass; a component that takes no constraint
        is the bare one, built once per (side, class, genus) in the
        ledger.  `expected_dimension` stays the reference: through the
        ledger's component table it gives each base, and `_make_term`
        checks each distinct emitted component with it, once per ledger.

        Tail grades: a divisor-side component's tail grades, each in
        0..dn, add up to what its slack leaves, and so do a bundle-side
        component's.  The configuration table lists each divisor-side
        component's grade vectors, and their product keeps the ones whose
        bundle-side loads match.  The skeleton lists edges by divisor-side
        component, so grade vectors come in lexicographic order.
        """
        p = len(parts1)
        rows, rejected = _placements(configs, parts1, parts2)
        if rejected:
            excluded["missable-insertion"] = \
                excluded.get("missable-insertion", 0) + rejected
        if not all(rows):
            return

        probe = tuple(
            Tail(order, *ends[D.basis.fundamental], j, i)
            for order, j, i in skeleton)
        left_edges = [[e for e, (_, j, _) in enumerate(skeleton) if j == jj]
                      for jj in range(p)]
        right_edges = [[e for e, (_, _, i) in enumerate(skeleton) if i == ii]
                       for ii in range(len(parts2))]
        dn = D.n
        comps1 = bare_components("L", parts1, genera1)
        comps2 = bare_components("R", parts2, genera2)
        try:
            base, rows = _slack_table(
                components, rows, comps1, comps2,
                [[probe[e] for e in edges] for edges in left_edges],
                [[probe[e] for e in edges] for edges in right_edges])
        except InvariantError:
            return
        # grade sums forced on each component by zero-dimensionality;
        # probe tails carry the fundamental class (codim 1 on the left,
        # codim n through its dual on the right), and each tail's grade
        # lies in 0..dn
        windows = [(0, dn * len(edges)) for edges in left_edges] + \
            [(-dn * len(edges), 0) for edges in right_edges]

        for assignment, slack in _balanced(base, rows, windows):
            weight = 1
            per_comp: dict[tuple, list] = {}
            for row, (vec, w, _) in zip(rows, assignment):
                weight *= w
                sides = configs.placed[row.group]
                for slot, nslot in zip(row.slots, vec):
                    if nslot:
                        per_comp.setdefault(slot, []).extend(
                            [sides[slot[0]][0]] * nslot)
            gamma1 = tuple(_constrained(comp, per_comp.get(("L", j)))
                           for j, comp in enumerate(comps1))
            gamma2 = tuple(_constrained(comp, per_comp.get(("R", i)))
                           for i, comp in enumerate(comps2))
            need_left = [dn * len(edges) - s
                         for edges, s in zip(left_edges, slack)]
            need_right = [s + dn * len(edges)
                          for edges, s in zip(right_edges, slack[p:])]

            per_left = [configs.grades(need, len(edges))
                        for need, edges in zip(need_left, left_edges)]
            for parts in itertools.product(*per_left):
                grades = [g for gs in parts for g in gs]
                load = [0] * len(parts2)
                for (_, _, i), g in zip(skeleton, grades):
                    load[i] += g
                if load != need_right:
                    continue
                for names in itertools.product(
                        *[by_grade.get(g, ()) for g in grades]):
                    tails = tuple(
                        Tail(order, *ends[name], j, i)
                        for (order, j, i), name in zip(skeleton, names))
                    emit(gamma1, gamma2, tails, weight)

    def genus_plans(minima, edges):
        """Component genera for a connected graph with one vertex per
        entry of `minima`, each at least its minimum."""
        rank = graph_genus(0, edges, len(minima), 1)
        return _compositions(spec.genus - rank, minima)

    def configurations(alpha_tot, beta1, d):
        if d < 0:
            skip("negative-contact")
            return
        if beta1.is_zero:
            # nothing survives on the original side; one neck component
            # carries everything
            if any(side == "X" for side, _, _ in groups):
                skip("unplaceable")
                return
            comp_cls, least = configs.neck(0, alpha_tot)
            for genera in genus_plans((least,), 0):
                distribute((), (comp_cls,), (), (), genera)
            return
        splittings = splittings_of(beta1.vec, X.area(beta1), 0)
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
                minima = tuple(configs.piece(c)[1] for c in parts1)
                for genera in genus_plans(minima, 0):
                    distribute(parts1, (), (), genera, ())
            return
        # neck components (ell, alpha): the ells add up to d and the alphas
        # to alpha_tot, whose area bounds the search
        necks = necks_of(alpha_tot.vec, d, dmodel.area(alpha_tot))

        # each neck's bundle-side classes, contact profile and genus
        # minima, built once for every splitting
        neck_sides = []
        for neck in necks:
            data = [configs.neck(ell, a) for ell, a in neck]
            neck_sides.append((tuple(c for c, _ in data),
                               tuple(ell for ell, _ in neck),
                               tuple(g for _, g in data)))

        for parts1 in splittings:
            ks, minima1 = zip(*map(configs.piece, parts1))
            if any(k < 0 for k in ks):
                skip("negative-contact")
                continue
            if any(k == 0 for k in ks):
                skip("disconnected")
                continue
            p = len(parts1)
            for parts2, ells, minima2 in neck_sides:
                for skeleton in _connected_skeletons(skeletons, ks, ells):
                    for genera in genus_plans(minima1 + minima2,
                                              len(skeleton)):
                        distribute(parts1, parts2, skeleton,
                                   genera[:p], genera[p:])

    for alpha_tot, beta1, d in remainders:
        if not beta1.is_zero and X.area(beta1) <= 0:
            skip("area-exhausted")
            continue
        configurations(alpha_tot, beta1, d)

    # isomorphic indexed graphs are one term and must weigh the same
    emitted: dict[str, DecompTerm] = {}
    for weight, gamma1, gamma2, tails in graphs.values():
        term = _make_term(components, gamma1, gamma2, tails, weight)
        key = term.encode()
        if emitted.setdefault(key, term).multiplicity != term.multiplicity:
            raise DecompositionError(
                f"inconsistent multiplicities for {key}")
    terms = sorted(emitted.values(), key=lambda t: t.encode())
    return terms, excluded


def _sided(gamma1, gamma2, tails):
    """(side, index, component, its tails) for each component of a graph,
    the divisor side ("L") first, then the bundle side ("R")."""
    for j, comp in enumerate(gamma1):
        yield "L", j, comp, [t for t in tails if t.left == j]
    for i, comp in enumerate(gamma2):
        yield "R", i, comp, [t for t in tails if t.right == i]


def _make_term(components: _ComponentTable, gamma1, gamma2, tails,
               weight: int) -> DecompTerm:
    """The canonical term of one indexed graph; its multiplicity is the
    graph's weight over the automorphisms of the labelled graph.  Each
    component's expected dimension, which must be 0, is read from the
    table, so it is computed once per distinct component of the ledger."""
    for side, _, comp, at in _sided(gamma1, gamma2, tails):
        if components.dimension(side, comp, at) != 0:
            raise DecompositionError(f"unbalanced component {comp.token()}")
    g1, g2, canon, aut = _canonical(gamma1, gamma2, tails)
    setup = components.setup
    return DecompTerm(
        beta1=_side_sum(setup.total, g1),
        beta2=_side_sum(setup.ruled.total, g2),
        partition=tuple(sorted((t.order for t in canon), reverse=True)),
        tails=canon,
        gamma1=g1,
        gamma2=g2,
        multiplicity=Fraction(weight, aut),
    )


def _side_sum(space: Space, comps) -> HomologyClass:
    """The class of one side: the sum of its components' curve classes,
    added up on their integer vectors; a side of one component has that
    component's class."""
    if len(comps) == 1:
        return comps[0].cls
    vec = tuple(map(sum, zip(space.basis._zero, *(c.cls.vec for c in comps))))
    return HomologyClass(space.basis, vec, 1 if any(vec) else None)


# ---------------------------------------------------------------------------
# pruning and evaluation


def prune_term(components: _ComponentTable, term: DecompTerm) -> str | None:
    """First structural reason the term vanishes, or None: the reasons of
    its components in the ledger's component table, divisor side first."""
    for side, _, comp, tails in _sided(term.gamma1, term.gamma2, term.tails):
        reason = components.reason(side, comp, tails)
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
    `area_cut`, the text of the `# area-budget` footer, says why the area
    budget may have left terms out: it was below the class area, or the
    pair's inclusion shrinks the area of some divisor class, so the class
    area does not bound every component.
    """

    setup: str
    key: str
    reports: list[TermReport] = field(default_factory=list)
    excluded: dict[str, int] = field(default_factory=dict)
    distinguished: TermReport | None = None
    partial: bool = False
    area_cut: str | None = None

    @property
    def total(self) -> Fraction:
        return sum((r.contribution for r in self.reports if r.status == OK),
                   Fraction(0))

    @property
    def unresolved(self) -> tuple[TermReport, ...]:
        return tuple(r for r in self.reports if r.status == UNRESOLVED)

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
        if self.area_cut is not None:
            lines.append(f"# area-budget\t{self.area_cut}")
        return "\n".join(lines) + "\n"


def _evaluate_term(components: _ComponentTable, term: DecompTerm,
                   evaluator: Evaluator) -> TermReport:
    reason = prune_term(components, term)
    if reason is not None:
        return TermReport(term, PRUNED, reason)
    factors: list[str] = []
    values: list[Fraction] = []
    blockers: list[str] = []
    zero_note = ""
    for side, idx, comp, tails in _sided(term.gamma1, term.gamma2,
                                         term.tails):
        result = evaluator.evaluate(components.entry(side, comp, tails)[0])
        tag = f"{side}{idx}"
        if isinstance(result, Value):
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
    components = _ComponentTable(setup)
    terms, excluded = _enumerate(components, spec, bounds)
    budget, class_area = _area_budget(setup, spec, bounds)
    if _shrinks_area(setup.left):
        area_cut = (f"{budget}: the pair does not keep areas; "
                    "larger components left out")
    elif budget < class_area:
        area_cut = (f"{budget} below class area {class_area}: "
                    "larger components left out")
    else:
        area_cut = None
    evaluator = Evaluator(kb if kb is not None else seed_table())
    return Ledger(setup.name, spec.key(),
                  reports=[_evaluate_term(components, t, evaluator)
                           for t in terms],
                  excluded=excluded, area_cut=area_cut)


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
        if setup.right.ruled.fiber_degree(comp.cls) != 1:
            return False
    return all(t.order == 1 and t.cls == D.fundamental for t in term.tails)


def compare_abs_rel(setup: FiberSumSetup, spec: InvariantSpec):
    """Difference between the absolute count and its relative counterpart.

    The distinguished term of the splitting is the relative count itself;
    everything else measures the failure of the two to agree.  Returns
    (difference, ledger); the ledger records which row was distinguished
    and whether unresolved rows make the difference a lower bound only.
    """
    for ins in spec.absolutes:
        if ins.place == "Y":
            raise DecompositionError(
                "comparison needs every constraint on the original side")
    ledger = evaluate_decomposition(setup, spec)
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
