"""Combinatorial types of multi-level degenerations and their enumeration.

A stratum type records which components sit at which level, how their ends
match across the intermediate divisor copies, and which contact orders are
left along the last divisor.  Level 0 lives in the ambient space; every
positive level lives in the dual-twist bundle over the divisor, with classes
stored as (section part, fiber multiple).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import count, permutations, product
from operator import attrgetter, sub

from .dimension import (Insertion, InvariantError, InvariantSpec,
                        constraint_codim, raw_dimension)
from .lattice import HomologyClass, cls as make_cls, combination, gen
from .spaces import DivisorPair, RuledSetup, builtin


def neck_model(pair: DivisorPair) -> RuledSetup:
    """The bundle hosting positive levels of degenerations of (X, D)."""
    if pair.ambient.n < 2:
        raise InvariantError("no neck model below dimension 2")
    return builtin(f"q_of:{pair.name}")


@dataclass(frozen=True)
class Contact:
    """One end of a component on a divisor copy.

    `constraint` is a class of the divisor the end must land in; None means
    unconstrained, which costs the same as the fundamental class.
    """

    node: str
    mult: int
    constraint: HomologyClass | None = None

    def __post_init__(self):
        if self.mult < 1:
            raise InvariantError("contact multiplicity must be >= 1")


@dataclass(frozen=True)
class LevelComponent:
    """A connected component of one level.

    Level 0 components carry an ambient class in `cls`; higher ones carry
    `alpha` (a curve class of the divisor, possibly zero) and a fiber
    multiple.  `zero`/`inf` are the ends on the two divisor copies bounding
    the level; level 0 has no zero side.

    Construction makes the facts `stratum_key` reads, as attributes that
    equality, hashing and repr do not see: `_data` (level, genus, class
    text, each side's slot labels (-multiplicity, constraint code) in
    order), `_text` (its part of the key) and `_runs` (per side, each run
    of equal slots as (label, nodes), in slot order).
    """

    level: int
    genus: int
    cls: HomologyClass | None = None
    alpha: HomologyClass | None = None
    fiber: int = 0
    zero: tuple[Contact, ...] = ()
    inf: tuple[Contact, ...] = ()

    def __post_init__(self):
        put = object.__setattr__
        put(self, "zero", tuple(self.zero))
        put(self, "inf", tuple(self.inf))
        if self.level < 0 or self.genus < 0 or self.fiber < 0:
            raise InvariantError("level, genus and fiber degree must be >= 0")
        if self.level == 0:
            if self.cls is None or self.alpha is not None:
                raise InvariantError("level-0 components carry an ambient class")
            body = _enc(self.cls)
        else:
            if self.cls is not None or self.alpha is None:
                raise InvariantError("positive-level components carry section data")
            if self.alpha.is_zero and self.fiber == 0:
                raise InvariantError("empty component")
            body = f"{_enc(self.alpha)}+{self.fiber}f"
        runs = _slot_runs(self.zero), _slot_runs(self.inf)
        zero, inf = (tuple(label for label, nodes in side for _ in nodes)
                     for side in runs)
        z, i = (",".join(f"{-m}" + (f":{code}" if code else "")
                         for m, code in slots) for slots in (zero, inf))
        put(self, "_data", (self.level, self.genus, body, zero, inf))
        put(self, "_text", f"L{self.level}:g{self.genus}:{body}:z[{z}]:i[{i}]")
        put(self, "_runs", runs)

    @property
    def pure_fiber(self) -> bool:
        return self.level >= 1 and self.alpha.is_zero

    @property
    def bare(self) -> bool:
        """A plain cover of one fiber, the shape stability forbids alone."""
        return (self.pure_fiber and self.genus == 0
                and len(self.zero) == 1 and len(self.inf) == 1
                and self.zero[0].mult == self.inf[0].mult)


@dataclass(frozen=True)
class StratumType:
    """Components plus the matching of ends across adjacent levels.

    `matchings` pairs an infinity-side node of level i with a zero-side node
    of level i+1.  `insertions` are the interior constraints of the count the
    stratum belongs to; their distribution over components does not change
    any total, so they are stored once.  The component count of the
    matching graph is kept on the instance, outside the fields, once
    counted, so the genus check and `validate` share it.
    """

    pair: DivisorPair
    components: tuple[LevelComponent, ...]
    matchings: tuple[tuple[str, str], ...]
    insertions: tuple[Insertion, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "matchings",
                           tuple(tuple(m) for m in self.matchings))
        object.__setattr__(self, "insertions", tuple(self.insertions))

    @property
    def depth(self) -> int:
        return max((c.level for c in self.components), default=0)


def _enc(c: HomologyClass | None) -> str:
    return "" if c is None else c.encode()


def _slot_runs(contacts) -> tuple:
    """(slot label, nodes) for each run of equal slots, in slot order."""
    runs = {}
    for c in contacts:
        runs.setdefault((-c.mult, _enc(c.constraint)), []).append(c.node)
    return tuple((label, tuple(runs[label])) for label in sorted(runs))


def _component_degrees(pair: DivisorPair, q: RuledSetup | None,
                       comp: LevelComponent):
    """(zero-side degree or None, infinity-side degree) from the catalog;
    a positive-level component lives in the bundle `q` over the divisor."""
    if comp.level == 0:
        return None, pair.contact_count(comp.cls)
    return q.end_degrees(comp.alpha, comp.fiber)


def _nodes(s: StratumType):
    """node id -> (component, side, contact); raises on duplicate ids."""
    table = {}
    for comp in s.components:
        for side, contacts in (("z", comp.zero), ("i", comp.inf)):
            for c in contacts:
                if c.node in table:
                    raise InvariantError(f"node id {c.node} reused")
                table[c.node] = (comp, side, c)
    return table


def validate(s: StratumType) -> list[str]:
    """Machine-readable violations; empty means the type is consistent."""
    out = []
    if not s.components:
        return ["empty-stratum"]
    try:
        table = _nodes(s)
    except InvariantError:
        return ["node-reuse"]

    depth = s.depth
    by_level = {}
    for c in s.components:
        by_level.setdefault(c.level, []).append(c)
    # the positive levels present are distinct integers in 1..depth
    if len(by_level.keys() - {0}) != depth:
        out.append("level-gap")

    dbasis = s.pair.divisor.basis.name
    q = neck_model(s.pair) if depth >= 1 else None
    for comp in s.components:
        if comp.level == 0 and comp.zero:
            out.append("level0-zero-contact")
        degz, degi = _component_degrees(s.pair, q, comp)
        for deg, contacts in ((degz, comp.zero), (degi, comp.inf)):
            if deg is None:
                continue
            if deg < 0:
                if contacts:
                    out.append("contact-sum")
            elif sum(c.mult for c in contacts) != deg:
                out.append("contact-sum")
        for c in comp.zero + comp.inf:
            if c.constraint is not None and c.constraint.basis.name != dbasis:
                out.append("constraint-basis")

    used = set()
    for a, b in s.matchings:
        if a not in table or b not in table:
            out.append("matching-structure")
            continue
        ca, sa, conta = table[a]
        cb, sb, contb = table[b]
        if sa != "i" or sb != "z" or cb.level != ca.level + 1:
            out.append("matching-structure")
        if conta.mult != contb.mult:
            out.append("matching-mult")
        if a in used or b in used:
            out.append("node-reuse")
        used.update((a, b))

    for node, (comp, side, _) in table.items():
        if node in used:
            continue
        if side == "z":
            out.append("unmatched-node")
        elif comp.level < depth:
            out.append("unmatched-node")

    for i in sorted(by_level.keys() - {0}):
        if all(c.bare for c in by_level[i]):
            out.append("unstable-level")

    if _graph_components(s) > 1:
        out.append("disconnected")
    return out


def _union_find(links):
    """Join the two ends of every link; returns `find`, which maps a
    hashable item to the representative of its class."""
    parent = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return find


def _graph_components(s: StratumType) -> int:
    """Connected components of the graph whose edges are the matchings:
    each end is joined to its component's number k, and to its partner."""
    out = s.__dict__.get("_parts")
    if out is None:
        find = _union_find([*((c.node, k) for k, comp in enumerate(s.components)
                              for c in comp.zero + comp.inf), *s.matchings])
        out = len({find(k) for k in range(len(s.components))})
        object.__setattr__(s, "_parts", out)
    return out


def assemble_class(s: StratumType) -> HomologyClass:
    """Level-0 classes plus the pushed-down section parts of the levels."""
    X = s.pair.ambient
    total = make_cls(X.basis, {})
    section = make_cls(s.pair.divisor.basis, {})
    for comp in s.components:
        if comp.level == 0:
            total = total + comp.cls
        else:
            section = section + comp.alpha
    return total + s.pair.inclusion(section)


def graph_genus(genera: int, edges: int, vertices: int, components: int) -> int:
    """Arithmetic genus of a nodal curve from its dual graph: the summed
    component genera plus the cycle rank edges - vertices + components."""
    return genera + edges - vertices + components


def total_genus(s: StratumType) -> int:
    """Component genera plus the loops closed by the matching graph."""
    return graph_genus(sum(c.genus for c in s.components), len(s.matchings),
                       len(s.components), _graph_components(s))


def component_index(pair: DivisorPair, q: RuledSetup | None,
                    comp: LevelComponent) -> int:
    """Index of one component, without the reparametrization of its level.

    A positive-level component lives in the bundle `q` over the divisor of
    `pair`.  Every end is a marked point.  An end's degree enters through
    its excess over the contacts there and is kept even when negative; an
    unconstrained contact costs what the fundamental class costs.
    """
    n = pair.ambient.n
    degz, degi = _component_degrees(pair, q, comp)
    if comp.level == 0:
        c1 = pair.ambient.c1(comp.cls)
    else:
        c1 = q.c1_total(comp.alpha, comp.fiber)
    ends = comp.zero + comp.inf
    total = n * (1 - comp.genus) + c1 + 3 * (comp.genus - 1) + len(ends)
    total -= degi - len(comp.inf)
    if degz is not None:
        total -= degz - len(comp.zero)
    return total - sum(n - (n - 1 if c.constraint is None else c.constraint.grade)
                       for c in ends)


def multilevel_index(s: StratumType) -> int:
    """Expected dimension of the stratum inside the full count."""
    bad = validate(s)
    if bad:
        raise InvariantError("invalid stratum: " + ",".join(bad))
    n = s.pair.ambient.n
    q = neck_model(s.pair) if s.depth >= 1 else None
    total = sum(component_index(s.pair, q, comp) for comp in s.components)
    total -= s.depth                      # one reparametrization per level
    for ins in s.insertions:
        total += 1 - constraint_codim(ins, n)
    return total - len(s.matchings) * (n - 1)


def stratum_flags(s: StratumType) -> tuple[str, ...]:
    """Warnings about configurations the index formula counts naively."""
    table = _nodes(s)
    for a, b in s.matchings:
        if table[a][0].pure_fiber and table[b][0].pure_fiber:
            return ("nontransverse-fiber-contact",)
    return ()


# ---------------------------------------------------------------------------
# canonical encoding


def _relabelings(labels):
    """Every position map that moves an item only among adjacent equal
    labels: the product of the permutations of each run.  A map is a tuple
    whose entry i is the position item i moves to."""
    runs, start = [], 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            runs.append(range(start, i))
            start = i
    for choice in product(*[permutations(run) for run in runs]):
        yield tuple(p for perm in choice for p in perm)


def _slot_orders(runs):
    """Each map of one side's nodes to slot positions that keeps every
    node in its run (`LevelComponent._runs`)."""
    nodes = [node for _, run in runs for node in run]
    for moved in _relabelings([label for label, run in runs for _ in run]):
        yield dict(zip(nodes, moved))


def _searched_key(s: StratumType) -> str:
    """`stratum_key` by exhaustive search: the least edge text over every
    placement of identical components and every slot order of their ends.
    It is the key of any stratum, condition P of `stratum_key` or not."""
    if not s.components:
        return "empty"
    comps = sorted(s.components, key=attrgetter("_data"))
    body = "&".join(c._text for c in comps)
    slots = [[list(_slot_orders(runs)) for runs in c._runs] for c in comps]
    best = None
    for placement in _relabelings([c._data for c in comps]):
        slot_sets = [None] * len(comps)
        for src, dst in enumerate(placement):
            slot_sets[dst] = slots[src]
        for zmaps in product(*[z for z, _ in slot_sets]):
            for imaps in product(*[i for _, i in slot_sets]):
                pos = {node: (ci, side, p)
                       for ci, maps in enumerate(zip(zmaps, imaps))
                       for side, m in zip("zi", maps) for node, p in m.items()}
                edges = sorted((pos[a], pos[b]) for a, b in s.matchings)
                text = ";".join(f"{a[0]}{a[1]}{a[2]}-{b[0]}{b[1]}{b[2]}"
                                for a, b in edges)
                if best is None or text < best:
                    best = text
    return body + "#" + (best or "")


def _matched_runs(s: StratumType, comps):
    """Under condition P of `stratum_key`: per component, its infinity-side
    runs of matched slots as (first position, nodes); the matched zero runs
    as (component, the run's positions in text order); and for each matched
    infinity node, the number of its partner's zero run.  None outside P."""
    partner, targets = {}, set()
    for a, b in s.matchings:
        if a in partner or b in targets:
            return None
        partner[a] = b
        targets.add(b)
    side_of, inf_runs, zero_runs, run_of = {}, [], [], {}
    for ci, comp in enumerate(comps):
        runs = []
        for side, side_runs, matched in zip("zi", comp._runs,
                                            (targets, partner)):
            start = 0
            for _, nodes in side_runs:
                for node in nodes:
                    if node in side_of:
                        return None
                    side_of[node] = side
                hits = sum(node in matched for node in nodes)
                if hits not in (0, len(nodes)):
                    return None
                if hits and side == "i":
                    runs.append((start, nodes))
                elif hits:
                    # the texts of the run's positions as they sort inside
                    # an edge text, where ";" follows: "10;" < "1;"
                    order = sorted(map(str, range(start, start + len(nodes))),
                                   key=lambda p: p + ";")
                    run_of.update((node, len(zero_runs)) for node in nodes)
                    zero_runs.append((ci, order))
                start += len(nodes)
        inf_runs.append(runs)
    if any(side_of.get(a) != "i" for a in partner) or \
            any(side_of.get(b) != "z" for b in targets):
        return None
    return inf_runs, zero_runs, {a: run_of[b] for a, b in partner.items()}


def stratum_key(s: StratumType) -> str:
    """Canonical one-line form, stable under relabeling of nodes and of
    identical components; used for deduplication, output and golden files.

    The key is the sorted component texts and the least edge text over
    every relabeling: a placement of identical components, then an order
    of each run of equal slots on each side of each component.  A
    relabeling's edges are sorted by the positions of their ends, compared
    as numbers; edge texts are compared as strings.  `_searched_key` tries
    every relabeling.

    Condition P: every matching joins an infinity node to a zero node, no
    node is in two matchings, and no run of equal slots mixes matched and
    unmatched nodes.  Every stratum `validate` accepts meets P.  Under P,
    for one placement, the first coordinates of the sorted edges are the
    positions of the matched infinity runs whatever the slot orders, each
    once, in (component, position) order, so two edge texts differ only in
    the zero positions they list, and comparing them is comparing those
    lists, each entry with ";" appended (the separator that follows it;
    the last entry is forced, see below).  The infinity-side and zero-side
    orders act on separate coordinates: the first chooses which node, and
    so which partner, sits at each edge, the second which position that
    partner gets.  So one greedy pass per placement is exact.  Walk the
    matched infinity slots in order; at each, of the nodes of its run not
    yet placed, take the one whose partner's run offers the least next
    position text, and give the partner that position.  Two nodes tie only
    when their partners share a zero run, and then exchanging the two
    nodes together with their partners changes no text, so either choice
    leads to the same least text.  The last edge, which no ";" follows, is
    forced: one node is left, and its partner's run has one position left.
    The least text over the placements is the key; outside P the search
    is exhaustive.
    """
    if not s.components:
        return "empty"
    comps = sorted(s.components, key=attrgetter("_data"))
    found = _matched_runs(s, comps)
    if found is None:
        return _searched_key(s)
    inf_runs, zero_runs, run_of = found
    body = "&".join(c._text for c in comps)
    best = None
    for placement in _relabelings([c._data for c in comps]):
        given = [0] * len(zero_runs)
        parts = []
        for ci, at in sorted(enumerate(placement), key=lambda pair: pair[1]):
            for start, nodes in inf_runs[ci]:
                left = list(nodes)
                for p in range(start, start + len(nodes)):
                    least = None
                    for node in left:
                        r = run_of[node]
                        cj, order = zero_runs[r]
                        text = f"{placement[cj]}z{order[given[r]]};"
                        if least is None or text < least:
                            least, pick, run = text, node, r
                    left.remove(pick)
                    given[run] += 1
                    parts.append(f"{at}i{p}-{least}")
        text = "".join(parts)[:-1]
        if best is None or text < best:
            best = text
    return body + "#" + best


# ---------------------------------------------------------------------------
# enumeration


class _ExactSums:
    """A table of the multisets drawn from `pool`, repeats allowed, by
    exact sum: `table(target, budget, budget2)` lists those whose `sizes`
    add up to exactly `budget`, whose `sizes2` add up to exactly `budget2`
    and whose integer vectors `vecs` add up to the vector `target`.

    Each multiset is a tuple listing its items in pool order; the tuples
    come in lexicographic order of the pool positions.
    Sizes are positive and do not decrease along the pool, and second
    sizes are non-negative.  So the last item of a multiset is the one
    whose size is all that is left: it is looked up by the vector left and
    kept when its sizes are the ones left, and the walk only goes into
    items smaller than what is left, which all come before it in the
    pool.  Each position also keeps the least second size from there to
    the end of its run of equal sizes, so the walk leaves a run as soon as
    no item left in it fits the second size left; second sizes may come in
    any order.  The position tuples that reach each (vector left, size
    left, second size left) are kept, so reading one table for many
    targets walks each of them once.
    The recursion goes through a method, not a closure, so the memo is
    freed with the table and not only by the cycle collector.
    """

    def __init__(self, pool, vecs, sizes, sizes2):
        if any(s <= 0 for s in sizes) or any(t < 0 for t in sizes2):
            raise InvariantError("effectivity model produced a free class")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise InvariantError("multiset pool sizes must not decrease")
        self.pool, self.vecs = pool, vecs
        self.sizes, self.sizes2 = sizes, sizes2
        # (start, end, size) of each run of equal sizes, and per position
        # the least second size from there to the end of its run, made by
        # the first read that walks the pool: many tables are never walked
        self.runs: list[tuple[int, int, int]] | None = None
        self.least: list[int] = []
        # vector -> the pool positions holding it, in pool order
        self.at: dict[tuple, list[int]] = {}
        for i, vec in enumerate(vecs):
            self.at.setdefault(vec, []).append(i)
        self.memo: dict[tuple, list[tuple[int, ...]]] = {}

    def __call__(self, target, budget, budget2):
        if budget == 0:
            return [()] if budget2 == 0 and not any(target) else []
        if budget < 0 or budget2 < 0:
            return []
        key = (tuple(target), budget, budget2)
        found = self.memo.get(key)
        if found is None:
            if self.runs is None:
                self._index_runs()
            found = self._reach(*key)
        item = self.pool.__getitem__
        return [tuple(map(item, t)) for t in found]

    def _index_runs(self):
        """Fill `runs` and `least` from the sizes."""
        sizes = self.sizes
        n = len(sizes)
        cuts = [0, *(i for i in range(1, n) if sizes[i] != sizes[i - 1]), n]
        self.runs = [(a, b, sizes[a]) for a, b in zip(cuts, cuts[1:]) if a < b]
        self.least = least = list(self.sizes2)
        for i in range(n - 2, -1, -1):
            if least[i + 1] < least[i] and sizes[i + 1] == sizes[i]:
                least[i] = least[i + 1]

    def _reach(self, rem, left, left2):
        """The position tuples, in lexicographic order, of the multisets
        that add up to exactly (rem, left, left2), kept in the memo; left
        is positive and the memo holds no entry for it yet."""
        memo, vecs = self.memo, self.vecs
        sizes, sizes2, least = self.sizes, self.sizes2, self.least
        out = []
        for start, end, size in self.runs:
            if size >= left:
                break
            for i in range(start, end):
                size2 = sizes2[i]
                if size2 > left2:
                    if least[i] > left2:
                        break
                    continue
                child = (tuple(map(sub, rem, vecs[i])), left - size,
                         left2 - size2)
                tails = memo.get(child)
                if tails is None:
                    tails = self._reach(*child)
                if tails:
                    out.extend((i, *t)
                               for t in tails[bisect_left(tails, (i,)):])
        out += [(i,) for i in self.at.get(rem, ())
                if sizes[i] == left and sizes2[i] == left2]
        memo[rem, left, left2] = out
        return out


@cache
def _partitions(total: int) -> tuple[tuple[int, ...], ...]:
    """Multiplicity multisets (weakly decreasing) summing to total, in
    reverse lexicographic order.  The table lists them weakly increasing,
    and no partition of total is a prefix of another, so reversing each
    and sorting in reverse gives that order."""
    pool = range(1, total + 1)
    table = _ExactSums(pool, [()] * total, pool, [0] * total)
    return tuple(sorted((p[::-1] for p in table((), total, 0)),
                        reverse=True))


def _solve_preimage(pair: DivisorPair, target: HomologyClass) -> HomologyClass | None:
    """The divisor curve class pushing to `target`, if one exists.

    The catalog inclusions are injective on curve lattices, so the solution
    is unique when it exists; `combination` raises on a dependent
    inclusion, a catalog bug.
    """
    D = pair.divisor
    gens = D.basis.names(1)
    coeffs = combination([pair.inclusion(gen(D.basis, g)) for g in gens], target)
    if coeffs is None or any(v.denominator != 1 for v in coeffs):
        return None
    return make_cls(D.basis, {g: int(v) for g, v in zip(gens, coeffs)})


def _compositions(total, mins):
    """Integer vectors >= mins summing to total."""
    if total < sum(mins):
        return
    if not mins:
        if total == 0:
            yield ()
        return

    def rec(i, left):
        if i == len(mins) - 1:
            if left >= mins[i]:
                yield (left,)
            return
        tail = sum(mins[i + 1:])
        for v in range(mins[i], left - tail + 1):
            for rest in rec(i + 1, left - v):
                yield (v,) + rest

    yield from rec(0, total)


def _position_filter(s: StratumType) -> bool:
    """Genericity in surfaces: forcing several ends of one non-fiber
    component to the same divisor point costs that component a node, and a
    class only has finitely many to give."""
    X = s.pair.ambient
    if X.n != 2:
        return True
    links = list(s.matchings)
    for comp in s.components:
        if comp.pure_fiber:
            nodes = [c.node for c in comp.zero + comp.inf]
            links += [(nodes[0], other) for other in nodes[1:]]
    find = _union_find(links)

    q = neck_model(s.pair) if s.depth >= 1 else None
    for comp in s.components:
        if comp.pure_fiber:
            continue
        nodes = [c.node for c in comp.zero + comp.inf]
        if len(nodes) < 2:
            continue
        charge = len(nodes) - len({find(nd) for nd in nodes})
        if not charge:
            continue
        if comp.level == 0:
            sq = X.intersect(comp.cls, comp.cls)
            c1 = X.c1(comp.cls)
        else:
            beta = q.class_of(comp.alpha, comp.fiber)
            sq = q.total.intersect(beta, beta)
            c1 = q.c1_total(comp.alpha, comp.fiber)
        capacity = (sq - c1) // 2 + 1 - comp.genus
        if charge > capacity:
            return False
    return True


def enumerate_strata(spec: InvariantSpec, max_levels: int):
    """All valid stratum types for the count, up to the level bound.

    Components are drawn from the effectivity models of the ambient space
    and the divisor; results are deduplicated by canonical encoding and
    returned sorted by it.  Every level plan reads the call's one
    `_StrataTable`, freed when it returns.  The genus check and `validate`
    share each candidate's node table and component count.
    """
    pair = spec.pair
    if pair is None:
        raise InvariantError("stratum enumeration needs a divisor pair")
    X = pair.ambient
    xmodel = X.effective
    if xmodel is None:
        raise InvariantError(f"{X.name}: no effectivity model")
    raw_dimension(spec)   # validates contact data; may raise DefinedZero

    found = {}

    def add(s):
        if (total_genus(s) == spec.genus and assemble_class(s) == spec.beta
                and not validate(s) and _position_filter(s)):
            found.setdefault(stratum_key(s), s)

    main_inf = tuple(Contact(f"m{i}", ins.order, ins.cls)
                     for i, ins in enumerate(spec.relatives))
    add(StratumType(pair, (LevelComponent(0, spec.genus, cls=spec.beta,
                                          inf=main_inf),),
                    (), spec.absolutes))

    budget = X.area(spec.beta)
    # (class, genus) pairs by area, as `classes` sorts them: the level-0
    # multisets of area at most the count's, read once for every depth.
    # A class that meets D in no point has no ends, so at depth >= 1 its
    # component is an isolated vertex and `validate` rejects the stratum
    # as disconnected; such classes are left out
    xcands = [(c, gc) for c in xmodel.classes(budget)
              if pair.contact_count(c) > 0
              for gc in range(xmodel.min_genus(c), spec.genus + 1)]
    n = len(xcands)
    sums = _ExactSums(xcands, [()] * n, [X.area(c) for c, _ in xcands],
                      [0] * n)
    bottoms = [ms for b in range(budget + 1) for ms in sums((), b, 0)]
    table = _StrataTable(spec.relatives)
    for k in range(1, max_levels + 1):
        for bottom in bottoms:
            if sum(g for _, g in bottom) > spec.genus:
                continue    # see the genus budget of `_build_levels`
            used = make_cls(X.basis, {})
            for c, _ in bottom:
                used = used + c
            alpha_total = _solve_preimage(pair, spec.beta - used)
            if alpha_total is None:
                continue
            for s in _build_levels(spec, k, bottom, alpha_total, table):
                add(s)
    return [found[key] for key in sorted(found)]


def _build_levels(spec, k, bottom, alpha_total, table):
    """Fill levels 1..k over the chosen level-0 components; `table` is
    the call's `_StrataTable`, which only `_attach_contacts` reads.

    A level plan lists (alpha, fiber degree, genus) for the components of
    each level, and it comes with the end degrees of every component,
    level 0 included, as `_component_degrees` gives them.  The rules below
    keep only plans that can close, one per isomorphism class; none
    changes which keys `enumerate_strata` finds, nor the stratum it keeps
    for each, since every stratum of a dropped plan is one `add` rejects.

    Degree floor: each component's zero-side degree,
    `q.end_degrees(alpha, fiber)[0]`, is at least 0.  Every level-0
    component meets D (`enumerate_strata` leaves out the classes that do
    not), and infinity-side degrees of a positive level are fiber degrees,
    so no lower degree of a boundary is negative.  With the twist -1 of
    the neck model the zero-side degrees of a level add up to the
    infinity-side degrees of the level below, so a negative zero-side
    degree leaves the positive ones a larger sum than the lower part pool,
    and no boundary option pairs them.

    Sorted identical components: along adjacent components of one alpha
    (the pure-fiber ones included) the (fiber, genus) pairs do not
    decrease.  Choices come with fiber degrees in lexicographic order and,
    for each, genera in lexicographic order, so the sorted arrangement of
    a level is the first one made.  Later levels see a level only through
    the multiset of its components and the alpha it leaves over, so any
    other arrangement yields only strata isomorphic to those of the sorted
    one, which came first.

    Genus budget: the cycle rank e - v + c of a graph is never negative,
    so `total_genus` is at least the components' genus sum, and the genera
    chosen so far never exceed the count's genus.

    Edge-count window: every part of a lower-side boundary partition
    becomes one matching, and only ends of positive degree carry parts.
    With the floor, a boundary's upper degrees add up to its lower ones,
    so its edge count lies between max(#positive lower, #positive upper)
    and that sum.  A kept stratum is connected with G + e - v + 1 equal
    to the count's genus.  Its subgraph on levels 0..j has at least the
    fewest edges of those boundaries, so its cycle rank is at least
    fewest - v + 1; a subgraph's cycle rank never exceeds the whole
    graph's, which is at most the genus left after levels 0..j.  So a plan is cut as soon as fewest - v + 1
    passes the genus left, whatever levels would follow.  The most edges
    are checked at the closing level, with the top ends, whose degrees
    must add up to the contact orders.
    """
    pair = spec.pair
    D = pair.divisor
    dmodel = D.effective
    q = neck_model(pair)
    dzero = make_cls(D.basis, {})

    if alpha_total.is_zero:
        alpha_parts = []
    else:
        if dmodel is None:
            raise InvariantError(f"{D.name}: no effectivity model")
        abudget = D.area(alpha_total)
        alpha_parts = list(dmodel.classes(abudget)) if abudget > 0 else []
    # one table for the closing level's exact sums and one, over empty
    # vectors, for the multisets of area at most what is left
    areas = [D.area(a) for a in alpha_parts]
    zeros = [0] * len(alpha_parts)
    exact = _ExactSums(alpha_parts, [a.vec for a in alpha_parts], areas,
                       zeros)
    within = _ExactSums(alpha_parts, [()] * len(alpha_parts), areas, zeros)

    bottom_ends = [(None, pair.contact_count(c)) for c, _ in bottom]
    orders = sum(ins.order for ins in spec.relatives)

    def level_choices(remaining_alpha, below, level, left, v, fewest, most):
        """(components, their end degrees, gamma, fewest edges, most
        edges) for each choice of the level, with `below` the infinity-side
        degrees of the level under it and the window's totals so far."""
        room = D.area(remaining_alpha)
        if level == k:
            picks = exact(remaining_alpha.vec, room, 0)
        else:
            picks = [ms for b in range(room + 1) for ms in within((), b, 0)]
        lower = [d for d in below if d > 0]
        most += sum(lower)
        for alphas in picks:
            gamma = dzero
            for a in alphas:
                gamma = gamma + a
            total_d = sum(below) + pair.normal_degree(gamma)
            if level == k and total_d != orders:
                continue
            # the least fiber degrees that give a zero side of degree >= 0
            floors = [max(0, -q.end_degrees(a, 0)[0]) for a in alphas]
            for m in range(0, total_d + 1):
                if not alphas and m == 0:
                    continue
                labels = list(alphas) + [dzero] * m
                same = [i for i in range(1, len(labels))
                        if labels[i] == labels[i - 1]]
                mins = [dmodel.min_genus(a) for a in alphas] + [0] * m
                n = v + len(labels)
                for ds in _compositions(total_d, floors + [1] * m):
                    if any(ds[i - 1] > ds[i] for i in same):
                        continue
                    degs = [q.end_degrees(a, d) for a, d in zip(labels, ds)]
                    upper = [z for z, _ in degs if z > 0]
                    fewest_now = fewest + max(len(lower), len(upper))
                    # the genus sums that keep the window open
                    hi = left - max(0, fewest_now - n + 1)
                    lo = left - (most - n + 1) if level == k else 0
                    ties = [i for i in same if ds[i - 1] == ds[i]]
                    for gs in product(*[range(g, hi + 1) for g in mins]):
                        if not lo <= sum(gs) <= hi or \
                                any(gs[i - 1] > gs[i] for i in ties):
                            continue
                        yield (list(zip(labels, ds, gs)), degs, gamma,
                               fewest_now, most)

    def rec(level, remaining_alpha, left, v, fewest, most, plan, ends):
        below = [d for _, d in ends[-1]]
        for comps, degs, gamma, fewest_now, most_now in level_choices(
                remaining_alpha, below, level, left, v, fewest, most):
            if level == k:
                yield [*plan, comps], [*ends, degs]
            else:
                yield from rec(level + 1, remaining_alpha - gamma,
                               left - sum(g for _, _, g in comps),
                               v + len(comps), fewest_now, most_now,
                               [*plan, comps], [*ends, degs])

    left = spec.genus - sum(g for _, g in bottom)
    for level_plan, ends in rec(1, alpha_total, left, len(bottom), 0, 0, [],
                                [bottom_ends]):
        yield from _attach_contacts(spec, bottom, level_plan, ends, table)


class _StrataTable:
    """What one `enumerate_strata` call builds once for all its level
    plans: per (lower infinity-side, upper zero-side) degree lists, a
    boundary's (lower, upper) partition choices whose part pools agree
    (`boundaries`); per top-level degree tuple, the outer assignments
    (`outers`); and each component `_materialize` builds (`components`)."""

    def __init__(self, relatives):
        self.relatives = relatives
        self.boundaries: dict[tuple, list] = {}
        self.outers: dict[tuple, list] = {}
        self.components: dict[tuple, LevelComponent] = {}

    def boundary_options(self, lower, upper):
        out = self.boundaries.get((lower, upper))
        if out is None:
            out = self.boundaries[lower, upper] = []
            ups = [_partitions(z) for z in upper]
            for low in product(*map(_partitions, lower)):
                pool = sorted(m for p in low for m in p)
                for up in product(*ups):
                    if sorted(m for p in up for m in p) == pool:
                        out.append((low, up))
        return out

    def outer_assignments(self, degs):
        """Tuples with one sub-multiset of the relative insertions
        (`_order_subsets`) per component of infinity-side degree degs[i]."""
        out = self.outers.get(degs)
        if out is not None:
            return out

        def rec(ci, remaining):
            if ci == len(degs):
                if not remaining:
                    yield ()
                return
            for subset in _order_subsets(remaining, degs[ci]):
                rest = list(remaining)
                for ins in subset:
                    rest.remove(ins)
                for tail in rec(ci + 1, rest):
                    yield (subset, *tail)

        out = self.outers[degs] = list(rec(0, list(self.relatives)))
        return out


def _attach_contacts(spec, bottom, level_plan, ends, table):
    """Choose end partitions, matchings and outer assignments, read from
    `table`, the call's `_StrataTable`.

    `ends` lists the (zero-side, infinity-side) degrees of each level's
    components, level 0 included.  A choice of boundary partitions fixes
    the edge count: every part of a lower-side partition becomes exactly
    one matching.  `total_genus` is G + e - v + c for c connected
    components of the matching graph, and `validate` rejects c > 1 as
    disconnected, so only boundary choices with G + e - v + 1 equal to the
    count's genus are kept; `_build_levels` has already checked that such
    an e lies in the plan's window.  The survivors keep their order.

    A (boundary choice, outer assignment) pair that leaves some level with
    only bare components (`LevelComponent.bare`: genus 0, pure fiber, one
    end on each side) is skipped before `_materialize`: every stratum built
    from it is one `validate` rejects as an unstable level.  The remaining
    pairs keep their order.
    """
    k = len(level_plan)
    comps_by_level = [list(bottom), *level_plan]
    vertices = [data for comps in comps_by_level for data in comps]
    # the edge count that, on a connected graph, closes the count's genus
    need = spec.genus - graph_genus(sum(data[-1] for data in vertices), 0,
                                    len(vertices), 1)
    outers = table.outer_assignments(tuple(d for _, d in ends[k]))
    if not outers:
        return
    options = [table.boundary_options(tuple(d for _, d in ends[i]),
                                      tuple(z for z, _ in ends[i + 1]))
               for i in range(k)]
    choices = [chosen for chosen in product(*options)
               if sum(len(p) for low, _ in chosen for p in low) == need]
    for chosen in choices:
        if any(_bare_level(comps_by_level[i], chosen[i - 1][1], chosen[i][0])
               for i in range(1, k)):
            continue
        for outer in outers:
            if not _bare_level(comps_by_level[k], chosen[k - 1][1], outer):
                yield from _materialize(spec, comps_by_level, chosen, outer,
                                        k, table)


def _bare_level(comps, zeros, infs) -> bool:
    """Whether every component of a positive level, each given as (alpha,
    fiber degree, genus) with its zero-side and infinity-side ends, would
    be `LevelComponent.bare`.  Both sides of a pure fiber carry its fiber
    degree, so one end on each side makes the two orders equal."""
    return all(a.is_zero and g == 0 and len(z) == 1 and len(i) == 1
               for (a, _, g), z, i in zip(comps, zeros, infs))


def _order_subsets(items, need):
    """Sub-multisets of relative insertions with orders summing to `need`,
    each as the first sub-sequence of `items` that makes it."""
    out = {}

    def rec(i, acc, total):
        if total == need:
            key = tuple(sorted((x.order, x.cls.encode()) for x in acc))
            out.setdefault(key, acc)
        elif i < len(items) and total < need:
            rec(i + 1, acc, total)
            rec(i + 1, (*acc, items[i]), total + items[i].order)

    rec(0, (), 0)
    return list(out.values())


def _orbit_matchings(lower, upper):
    """One bijection per orbit of swaps among adjacent equal labels.

    `lower` and `upper` list the component labels of equally many nodes,
    with the nodes of one component adjacent.  A bijection is a tuple
    `sigma` pairing lower node j with upper node sigma[j]; swapping two
    nodes of one component on either side gives another bijection of the
    same orbit.  The one yielded per orbit is its first in
    `itertools.permutations` order: along a run of lower nodes of one
    component the upper indices increase, and within a run of upper nodes
    of one component the nodes are taken in index order.  Candidates are
    tried in increasing index order, so the yield order is that of
    `permutations` too.
    """
    r = len(lower)
    used = [False] * r
    sigma = []

    def rec(j):
        if j == r:
            yield tuple(sigma)
            return
        start = sigma[-1] + 1 if j and lower[j] == lower[j - 1] else 0
        for u in range(start, r):
            if used[u] or (u and upper[u] == upper[u - 1] and not used[u - 1]):
                continue
            used[u] = True
            sigma.append(u)
            yield from rec(j + 1)
            sigma.pop()
            used[u] = False

    yield from rec(0)


def _materialize(spec, comps_by_level, chosen, outer, k, table):
    """Build concrete stratum objects for one structural choice.

    Nodes are numbered n1, n2, ... level by level, zero side first, so a
    component is fixed by its level, plan entry, first node number and
    the parts of its two sides (on the top level, the ids of the
    insertions it carries).  Those, with its position so that no stratum
    holds one object twice, are its key in `table.components`, and a
    choice that meets the key again reads the component built before.

    Each boundary pairs its lower and upper nodes of equal multiplicity.
    Matched ends carry no constraint, so two nodes of one multiplicity on
    the same side of one component are interchangeable: swapping their
    partners relabels the stratum, and
    `total_genus`, `assemble_class`, `validate`, `_position_filter` and
    `stratum_key` all read it up to node names within a component.  So
    each (boundary, multiplicity) block yields only the first pairing of
    each orbit under such swaps (`_orbit_matchings`).  The yield order is
    a subsequence of the order of all pairings, and every orbit keeps its
    first member, so the first stratum `enumerate_strata` meets for each
    key, the representative it keeps, is the same as when every pairing
    was built.
    """
    built, first, levels = table.components, 0, []
    for level in range(k + 1):
        row = []
        for idx, data in enumerate(comps_by_level[level]):
            zero_part = chosen[level - 1][1][idx] if level else ()
            top = outer[idx] if level == k else None
            inf_part = chosen[level][0][idx] if top is None else \
                tuple(map(id, top))
            key = (level, idx, (data[0].vec, *data[1:]), first, zero_part,
                   inf_part)
            comp = built.get(key)
            if comp is None:
                node = count(first + 1)
                zmarks = tuple(Contact(f"n{next(node)}", m) for m in zero_part)
                if top is None:
                    imarks = tuple(Contact(f"n{next(node)}", m)
                                   for m in inf_part)
                else:
                    imarks = tuple(Contact(f"n{next(node)}", ins.order, ins.cls)
                                   for ins in top)
                if level == 0:
                    comp = LevelComponent(0, data[1], cls=data[0], inf=imarks)
                else:
                    a, d, g = data
                    comp = LevelComponent(level, g, alpha=a, fiber=d,
                                          zero=zmarks, inf=imarks)
                built[key] = comp
            row.append(comp)
            first += len(zero_part) + len(inf_part)
        levels.append(row)

    per_boundary = []
    for lower, upper in zip(levels, levels[1:]):
        by_mult_low, by_mult_up = {}, {}
        for idx, comp in enumerate(lower):
            for c in comp.inf:
                by_mult_low.setdefault(c.mult, []).append((c.node, idx))
        for idx, comp in enumerate(upper):
            for c in comp.zero:
                by_mult_up.setdefault(c.mult, []).append((c.node, idx))
        # boundary options pair equal multisets of multiplicities
        options = []
        for m, lows in sorted(by_mult_low.items()):
            lnodes, lcomps = zip(*lows)
            unodes, ucomps = zip(*by_mult_up[m])
            options.append([list(zip(lnodes, (unodes[u] for u in sigma)))
                            for sigma in _orbit_matchings(lcomps, ucomps)])
        per_boundary.append([[pairing for block in combo for pairing in block]
                             for combo in product(*options)])

    all_comps = tuple(comp for row in levels for comp in row)
    for match_choice in product(*per_boundary):
        matchings = tuple((a, b) for boundary in match_choice
                          for a, b in boundary)
        yield StratumType(spec.pair, all_comps, matchings, spec.absolutes)
