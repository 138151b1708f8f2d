"""Combinatorial types of multi-level degenerations and their enumeration.

A stratum type records which components sit at which level, how their ends
match across the intermediate divisor copies, and which contact orders are
left along the last divisor.  Level 0 lives in the ambient space; every
positive level lives in the dual-twist bundle over the divisor, with classes
stored as (section part, fiber multiple).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .dimension import (Insertion, InvariantError, InvariantSpec,
                        component_index, constraint_codim, raw_dimension)
from .lattice import HomologyClass, cls as make_cls, gen
from .spaces import CatalogError, DivisorPair, RuledSetup, builtin


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
    """

    level: int
    genus: int
    cls: HomologyClass | None = None
    alpha: HomologyClass | None = None
    fiber: int = 0
    zero: tuple[Contact, ...] = ()
    inf: tuple[Contact, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zero", tuple(self.zero))
        object.__setattr__(self, "inf", tuple(self.inf))
        if self.level < 0 or self.genus < 0 or self.fiber < 0:
            raise InvariantError("level, genus and fiber degree must be >= 0")
        if self.level == 0:
            if self.cls is None or self.alpha is not None:
                raise InvariantError("level-0 components carry an ambient class")
        else:
            if self.cls is not None or self.alpha is None:
                raise InvariantError("positive-level components carry section data")
            if self.alpha.is_zero and self.fiber == 0:
                raise InvariantError("empty component")

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
    any total, so they are stored once.
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

    def outer_contacts(self) -> tuple[Contact, ...]:
        top = self.depth
        out = [c for comp in self.components if comp.level == top
               for c in comp.inf]
        out.sort(key=lambda c: (-c.mult, _enc(c.constraint), c.node))
        return tuple(out)


def _enc(c: HomologyClass | None) -> str:
    return "" if c is None else c.encode()


def _component_degrees(s: StratumType, comp: LevelComponent):
    """(zero-side degree or None, infinity-side degree) from the lattice."""
    if comp.level == 0:
        return None, s.pair.contact_count(comp.cls)
    q = neck_model(s.pair)
    beta = q.class_of(comp.alpha, comp.fiber)
    return (q.total.intersect(beta, q.dzero_class),
            q.total.intersect(beta, q.dinf_class))


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
    present = {c.level for c in s.components}
    if any(i not in present for i in range(1, depth + 1)):
        out.append("level-gap")

    dbasis = s.pair.divisor.basis.name
    for comp in s.components:
        if comp.level == 0 and comp.zero:
            out.append("level0-zero-contact")
        degz, degi = _component_degrees(s, comp)
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

    for i in range(1, depth + 1):
        level = [c for c in s.components if c.level == i]
        if level and all(c.bare for c in level):
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
    """Connected components of the graph whose edges are the matchings."""
    idx = {id(c): k for k, c in enumerate(s.components)}
    table = _nodes(s)
    find = _union_find((idx[id(table[a][0])], idx[id(table[b][0])])
                       for a, b in s.matchings if a in table and b in table)
    return len({find(k) for k in range(len(s.components))})


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


def total_genus(s: StratumType) -> int:
    """Component genera plus the loops closed by the matching graph."""
    e = len(s.matchings)
    v = len(s.components)
    return sum(c.genus for c in s.components) + e - v + _graph_components(s)


def multilevel_index(s: StratumType) -> int:
    """Expected dimension of the stratum inside the full count."""
    bad = validate(s)
    if bad:
        raise InvariantError("invalid stratum: " + ",".join(bad))
    X = s.pair.ambient
    n = X.n
    q = neck_model(s.pair) if s.depth >= 1 else None
    total = 0
    for comp in s.components:
        degz, degi = _component_degrees(s, comp)
        c1 = X.c1(comp.cls) if comp.level == 0 else q.c1_total(comp.alpha, comp.fiber)
        codims = sum(n - (n - 1 if c.constraint is None else c.constraint.grade)
                     for c in comp.zero + comp.inf)
        total += component_index(
            n=n, genus=comp.genus, c1=c1,
            marks=len(comp.zero) + len(comp.inf),
            deg_inf=degi, r_inf=len(comp.inf), codims=codims,
            deg_zero=degz, r_zero=len(comp.zero))
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


def _comp_data(comp: LevelComponent) -> tuple:
    body = _enc(comp.cls) if comp.level == 0 else f"{_enc(comp.alpha)}+{comp.fiber}f"
    zero = tuple(sorted((-c.mult, _enc(c.constraint)) for c in comp.zero))
    inf = tuple(sorted((-c.mult, _enc(c.constraint)) for c in comp.inf))
    return (comp.level, comp.genus, body, zero, inf)


def _contacts_text(slots) -> str:
    parts = []
    for negm, enc in slots:
        parts.append(f"{-negm}" + (f":{enc}" if enc else ""))
    return ",".join(parts)


def _comp_text(comp: LevelComponent) -> str:
    d = _comp_data(comp)
    return (f"L{d[0]}:g{d[1]}:{d[2]}"
            f":z[{_contacts_text(d[3])}]:i[{_contacts_text(d[4])}]")


def _slot_orders(contacts):
    """All orderings of the contacts compatible with the sorted slot view."""
    marked = sorted(contacts, key=lambda c: (-c.mult, _enc(c.constraint), c.node))
    groups, cur = [], []
    for c in marked:
        if cur and (cur[0].mult, _enc(cur[0].constraint)) == (c.mult, _enc(c.constraint)):
            cur.append(c)
        else:
            if cur:
                groups.append(cur)
            cur = [c]
    if cur:
        groups.append(cur)
    for choice in product(*[permutations(gr) for gr in groups]):
        order = [c for gr in choice for c in gr]
        yield {c.node: pos for pos, c in enumerate(order)}


def stratum_key(s: StratumType) -> str:
    """Canonical one-line form, stable under relabeling of nodes and of
    identical components; used for deduplication, output and golden files."""
    if not s.components:
        return "empty"
    comps = sorted(s.components, key=_comp_data)
    data = [_comp_data(c) for c in comps]

    groups, start = [], 0
    for i in range(1, len(comps) + 1):
        if i == len(comps) or data[i] != data[start]:
            groups.append(list(range(start, i)))
            start = i

    body = "&".join(_comp_text(c) for c in comps)
    best = None
    for placement in product(*[permutations(g) for g in groups]):
        target = [None] * len(comps)
        for g, placed in zip(groups, placement):
            for src, dst in zip(g, placed):
                target[dst] = comps[src]
        slot_sets = [(list(_slot_orders(c.zero)), list(_slot_orders(c.inf)))
                     for c in target]
        for zmaps in product(*[z for z, _ in slot_sets]):
            for imaps in product(*[i for _, i in slot_sets]):
                pos = {}
                for ci, (zm, im) in enumerate(zip(zmaps, imaps)):
                    for node, p in zm.items():
                        pos[node] = (ci, "z", p)
                    for node, p in im.items():
                        pos[node] = (ci, "i", p)
                edges = sorted((pos[a], pos[b]) for a, b in s.matchings)
                text = ";".join(f"{a[0]}{a[1]}{a[2]}-{b[0]}{b[1]}{b[2]}"
                                for a, b in edges)
                if best is None or text < best:
                    best = text
    return body + "#" + (best or "")


# ---------------------------------------------------------------------------
# enumeration


def _multisets(pool, sizes, budget, sizes2=None, budget2=0):
    """Multisets drawn from `pool`, repeats allowed, whose `sizes` add up
    to exactly `budget` and, when given, whose `sizes2` add up to exactly
    `budget2`.

    Each multiset is a tuple listing its items in pool order; the tuples
    come in lexicographic order of the pool positions.  Sizes are
    non-negative integers and no item is of size zero in both, so the
    search ends.
    """
    if sizes2 is None:
        sizes2 = [0] * len(pool)
    for s, t in zip(sizes, sizes2):
        if s < 0 or t < 0 or s == t == 0:
            raise InvariantError("effectivity model produced a free class")
    out, acc = [], []

    def rec(start, left, left2):
        if left == 0 and left2 == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            if sizes[i] <= left and sizes2[i] <= left2:
                acc.append(pool[i])
                rec(i, left - sizes[i], left2 - sizes2[i])
                acc.pop()

    if budget >= 0 and budget2 >= 0:
        rec(0, budget, budget2)
    return out


def _partitions(total: int):
    """Multiplicity multisets (weakly decreasing) summing to total."""
    pool = range(total, 0, -1)
    return _multisets(pool, pool, total)


def _solve_preimage(pair: DivisorPair, target: HomologyClass) -> HomologyClass | None:
    """The divisor curve class pushing to `target`, if one exists.

    The catalog inclusions are injective on curve lattices, so the solution
    is unique when it exists; a dependent inclusion is a catalog bug.
    """
    D, X = pair.divisor, pair.ambient
    gens = D.basis.names(1)
    if not gens:
        return make_cls(D.basis, {}) if target.is_zero else None
    xgens = X.basis.names(1)
    cols = [pair.inclusion(gen(D.basis, g)) for g in gens]
    rows = [[Fraction(col.coeff(x)) for col in cols] + [Fraction(target.coeff(x))]
            for x in xgens]
    r = 0
    for c in range(len(gens)):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            raise CatalogError(f"{pair.name}: inclusion not injective on curves")
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    vals = {}
    for row, g in zip(rows[:r], gens):
        v = row[-1]
        if v.denominator != 1:
            return None
        if v:
            vals[g] = int(v)
    return make_cls(D.basis, vals)


def _multisets_with_budget(items, budget, cost):
    """Multisets of items whose costs (all positive) sum to <= budget."""
    items = list(items)
    sizes = [cost(c) for c in items]
    return [ms for b in range(budget + 1)
            for ms in _multisets(items, sizes, b)]


def _exact_decompositions(parts, target, measure):
    """Multisets drawn from `parts` summing exactly to `target`."""
    zero = make_cls(target.basis, {})
    return [ms for ms in _multisets(parts, [measure(p) for p in parts],
                                    measure(target))
            if sum(ms, zero) == target]


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
            c1 = q.total.c1(beta)
        capacity = (sq - c1) // 2 + 1 - comp.genus
        if charge > capacity:
            return False
    return True


def enumerate_strata(spec: InvariantSpec, max_levels: int, model=None):
    """All valid stratum types for the count, up to the level bound.

    Components are drawn from the effectivity models of the ambient space
    and the divisor; results are deduplicated by canonical encoding and
    returned sorted by it.
    """
    pair = spec.pair
    if pair is None:
        raise InvariantError("stratum enumeration needs a divisor pair")
    X = pair.ambient
    xmodel = model if model is not None else X.effective
    if xmodel is None:
        raise InvariantError(f"{X.name}: no effectivity model")
    raw_dimension(spec)   # validates contact data; may raise DefinedZero

    found = {}

    def add(s):
        if total_genus(s) != spec.genus:
            return
        if assemble_class(s) != spec.beta:
            return
        if validate(s):
            return
        if not _position_filter(s):
            return
        found.setdefault(stratum_key(s), s)

    main_inf = tuple(Contact(f"m{i}", ins.order, ins.cls)
                     for i, ins in enumerate(spec.relatives))
    add(StratumType(pair, (LevelComponent(0, spec.genus, cls=spec.beta,
                                          inf=main_inf),),
                    (), spec.absolutes))

    known = {}   # end degrees of level components, see _attach_contacts
    budget = X.area(spec.beta)
    xcands = [(c, gc) for c in xmodel.classes(budget)
              for gc in range(xmodel.min_genus(c), spec.genus + 1)]
    for k in range(1, max_levels + 1):
        for bottom in _multisets_with_budget(xcands, budget,
                                             lambda cg: X.area(cg[0])):
            used = make_cls(X.basis, {})
            for c, _ in bottom:
                used = used + c
            alpha_total = _solve_preimage(pair, spec.beta - used)
            if alpha_total is None:
                continue
            for s in _build_levels(spec, k, bottom, alpha_total, known):
                add(s)
    return [found[key] for key in sorted(found)]


def _build_levels(spec, k, bottom, alpha_total, known):
    """Fill levels 1..k over the chosen level-0 components."""
    pair = spec.pair
    D = pair.divisor
    dmodel = D.effective
    q = neck_model(pair)

    if alpha_total.is_zero:
        alpha_parts = []
    else:
        if dmodel is None:
            raise InvariantError(f"{D.name}: no effectivity model")
        abudget = D.area(alpha_total)
        alpha_parts = list(dmodel.classes(abudget)) if abudget > 0 else []

    bottom_deg = sum(pair.contact_count(c) for c, _ in bottom)

    def level_choices(remaining_alpha, prev_deg, level):
        if level == k:
            picks = _exact_decompositions(alpha_parts, remaining_alpha, D.area)
        else:
            room = D.area(remaining_alpha)
            picks = _multisets_with_budget(alpha_parts, room, D.area) \
                if room >= 0 else []
        for alphas in picks:
            gamma = make_cls(D.basis, {})
            for a in alphas:
                gamma = gamma + a
            total_d = prev_deg + pair.normal_degree(gamma)
            if total_d < 0:
                continue
            for m in range(0, total_d + 1):
                if not alphas and m == 0:
                    continue
                mins = [0] * len(alphas) + [1] * m
                for ds in _compositions(total_d, mins):
                    genus_ranges = [range(dmodel.min_genus(a), spec.genus + 1)
                                    for a in alphas]
                    genus_ranges += [range(0, spec.genus + 1)] * m
                    for gs in product(*genus_ranges):
                        if sum(gs) > spec.genus:
                            continue
                        comps = [(a, ds[i], gs[i]) for i, a in enumerate(alphas)]
                        comps += [(None, ds[len(alphas) + j], gs[len(alphas) + j])
                                  for j in range(m)]
                        yield comps, gamma

    def rec(level, remaining_alpha, prev_deg, acc):
        if level > k:
            if remaining_alpha.is_zero:
                yield list(acc)
            return
        for comps, gamma in level_choices(remaining_alpha, prev_deg, level):
            acc.append(comps)
            yield from rec(level + 1, remaining_alpha - gamma,
                           sum(d for _, d, _ in comps), acc)
            acc.pop()

    for level_plan in rec(1, alpha_total, bottom_deg, []):
        yield from _attach_contacts(spec, bottom, level_plan, q, known)


def _attach_contacts(spec, bottom, level_plan, q, known):
    """Choose end partitions, matchings and outer assignments.

    `known` memoizes the end degrees of a component, keyed on (level, data),
    and the partitions of an end degree, keyed on the degree; it is shared
    by every level plan of one enumeration.
    """
    pair = spec.pair
    D = pair.divisor
    k = len(level_plan)

    comps_by_level = {0: list(bottom)}
    for i, comps in enumerate(level_plan, start=1):
        comps_by_level[i] = comps

    def degrees(level, data):
        key = (level, data)
        if key in known:
            return known[key]
        if level == 0:
            c, _ = data
            out = None, pair.contact_count(c)
        else:
            a, d, _ = data
            alpha = a if a is not None else make_cls(D.basis, {})
            beta = q.class_of(alpha, d)
            out = (q.total.intersect(beta, q.dzero_class),
                   q.total.intersect(beta, q.dinf_class))
        known[key] = out
        return out

    def partitions(deg):
        if deg not in known:
            known[deg] = _partitions(deg) if deg >= 0 else [()]
        return known[deg]

    def boundary_options(i):
        lower = comps_by_level[i]
        upper = comps_by_level[i + 1]
        lower_infs = [partitions(degrees(i, data)[1]) for data in lower]
        upper_zeros = [partitions(degrees(i + 1, data)[0]) for data in upper]
        for low_choice in product(*lower_infs):
            low_pool = sorted(m for p in low_choice for m in p)
            for up_choice in product(*upper_zeros):
                up_pool = sorted(m for p in up_choice for m in p)
                if low_pool != up_pool:
                    continue
                yield low_choice, up_choice

    def outer_assignments():
        top = comps_by_level[k]
        rel = list(spec.relatives)
        degs = []
        for data in top:
            _, degi = degrees(k, data)
            if degi < 0:
                return
            degs.append(degi)
        if sum(i.order for i in rel) != sum(degs):
            return

        def rec(ci, remaining):
            if ci == len(top):
                if not remaining:
                    yield []
                return
            for subset in _order_subsets(remaining, degs[ci]):
                rest = list(remaining)
                for ins in subset:
                    rest.remove(ins)
                for tail in rec(ci + 1, rest):
                    yield [subset] + tail

        seen = set()
        for assign in rec(0, rel):
            key = tuple(tuple(sorted((i.order, i.cls.encode()) for i in part))
                        for part in assign)
            if key not in seen:
                seen.add(key)
                yield assign

    boundaries = [list(boundary_options(i)) for i in range(0, k)]
    outers = list(outer_assignments())
    for chosen in product(*boundaries):
        for outer in outers:
            yield from _materialize(spec, comps_by_level, chosen, outer, k, q)


def _order_subsets(items, need):
    """Sub-multisets of relative insertions with orders summing to `need`."""
    out = []

    def rec(i, acc, total):
        if total == need:
            out.append(list(acc))
            return
        if i == len(items) or total > need:
            return
        rec(i + 1, acc, total)
        acc.append(items[i])
        rec(i + 1, acc, total + items[i].order)
        acc.pop()

    rec(0, [], 0)
    seen, uniq = set(), []
    for ms in out:
        key = tuple(sorted((x.order, x.cls.encode()) for x in ms))
        if key not in seen:
            seen.add(key)
            uniq.append(ms)
    return uniq


def _materialize(spec, comps_by_level, chosen, outer, k, q):
    """Build concrete stratum objects for one structural choice."""
    pair = spec.pair
    D = pair.divisor
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    comps = {}
    inf_nodes = {}
    zero_nodes = {}
    for level in range(0, k + 1):
        for idx, data in enumerate(comps_by_level[level]):
            zero_part = ()
            inf_part = ()
            if level == 0:
                if k >= 1:
                    inf_part = chosen[0][0][idx]
            else:
                zero_part = chosen[level - 1][1][idx]
                if level < k:
                    inf_part = chosen[level][0][idx]
            zmarks = tuple(Contact(fresh(), m) for m in zero_part)
            if level == k:
                imarks = tuple(Contact(fresh(), ins.order, ins.cls)
                               for ins in outer[idx])
            else:
                imarks = tuple(Contact(fresh(), m) for m in inf_part)
            if level == 0:
                c, g = data
                comp = LevelComponent(0, g, cls=c, inf=imarks)
            else:
                a, d, g = data
                alpha = a if a is not None else make_cls(D.basis, {})
                comp = LevelComponent(level, g, alpha=alpha, fiber=d,
                                      zero=zmarks, inf=imarks)
            comps[(level, idx)] = comp
            inf_nodes[(level, idx)] = [(c.node, c.mult) for c in comp.inf]
            zero_nodes[(level, idx)] = [(c.node, c.mult) for c in comp.zero]

    per_boundary = []
    for i in range(0, k):
        lows = [nm for idx in range(len(comps_by_level[i]))
                for nm in inf_nodes[(i, idx)]]
        ups = [nm for idx in range(len(comps_by_level[i + 1]))
               for nm in zero_nodes[(i + 1, idx)]]
        by_mult_low, by_mult_up = {}, {}
        for node, m in lows:
            by_mult_low.setdefault(m, []).append(node)
        for node, m in ups:
            by_mult_up.setdefault(m, []).append(node)
        if sorted(by_mult_low) != sorted(by_mult_up):
            return
        options = []
        for m, lnodes in sorted(by_mult_low.items()):
            unodes = by_mult_up[m]
            if len(lnodes) != len(unodes):
                return
            options.append([list(zip(lnodes, perm))
                            for perm in permutations(unodes)])
        per_boundary.append([[pairing for block in combo for pairing in block]
                             for combo in product(*options)])

    all_comps = tuple(comps[key] for key in sorted(comps))
    for match_choice in product(*per_boundary):
        matchings = tuple((a, b) for boundary in match_choice
                          for a, b in boundary)
        yield StratumType(pair, all_comps, matchings, spec.absolutes)
