"""Invariant values: the knowledge base, rewrite rules, and a linear solver.

Values come from three places.  A small seed table holds the counts that the
rules and identities do not produce (genus-one section counts, the double
cover count, the line counts in P3 and the exceptional planes, the ruling
of S2xS2).  Rewrite rules reduce one bracket to others and are
value-preserving by the identity each rule encodes.  Finally, four-point
splitting identities give linear equations whose solution fills in unknowns
such as the conic count through two points and four lines.

Every knowledge-base key is an `InvariantSpec.key()` and every value an
exact `Fraction`.  A spec holds its insertions in key order and its key
from construction, so the evaluator reads a bracket, a rule's child or an
identity's side as it comes, and two brackets that differ only in the
written order of their insertions are one count.  `Evaluator`
orchestrates: knowledge-base lookup, vanishing verdict, rules in a fixed
order, then the splitting solver, memoizing along the way.  Every value carries a trace naming the rules and
entries it used.

The fixed tables (the seed entries, the hyperplane restrictions, the
identities and each identity's side keys) are built once per process; an
evaluator over a fresh `seed_table()` builds none of them again.  The solver
runs only the identities that have the target among their sides, since a
solution is read back by the target's key.  Identities are not solved
jointly: one without the target neither pins an unknown it shares with one
that has it nor checks a `--kb` value against itself.  Over the seed table
the standard identities share only sides the rules determine, so nothing is
lost today.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from math import comb, prod

from .dimension import Insertion, InvariantError, InvariantSpec
from .lattice import HomologyClass, cls, gen, row_reduce
from .scenario import ScenarioError, parse_key, split_lines
from .spaces import DivisorPair, Space, builtin
from .vanishing import check_degeneration_hypothesis, decide


class EvalError(Exception):
    """Conflicting or malformed knowledge-base state."""


@dataclass(frozen=True)
class KBEntry:
    """One stored value: the `InvariantSpec.key()` of a count, its exact
    value and where the value came from."""

    key: str
    value: Fraction
    provenance: str

    def value_text(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


class KnowledgeBase:
    """Append-only store of `InvariantSpec.key()` -> exact value.

    The text form (`dump`, `load`) is one `key<TAB>p/q<TAB>provenance` line
    per entry; a `--kb` file is loaded into the seeded base, so a value that
    conflicts with an entry already there is an error at its line.  `load`
    takes only canonical keys: it reads each key back into the count it
    names, and a key other than that count's `key()` could never be looked
    up.
    """

    def __init__(self, entries=()):
        self._entries: dict[str, KBEntry] = {}
        for e in entries:
            self.add(e.key, e.value, e.provenance)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> KBEntry | None:
        return self._entries.get(key)

    def entries(self) -> tuple[KBEntry, ...]:
        return tuple(self._entries[k] for k in sorted(self._entries))

    def add(self, key: str, value: Fraction, provenance: str) -> bool:
        """Store a value; returns False if the key was already present.

        Adding a different value for a known key is a hard error: the base
        must stay consistent.
        """
        old = self._entries.get(key)
        if old is not None:
            if old.value != value:
                raise EvalError(
                    f"conflicting values for {key}: {old.value} vs {value}")
            return False
        if not isinstance(value, Fraction):
            value = Fraction(value)
        self._entries[key] = KBEntry(key, value, provenance)
        return True

    def dump(self) -> str:
        lines = [f"{e.key}\t{e.value_text()}\t{e.provenance}"
                 for e in self.entries()]
        return "".join(line + "\n" for line in lines)

    def load(self, text: str) -> None:
        """Add the entries a text form holds.  A malformed line raises a
        ScenarioError at its line and at the column of what is wrong: the
        first tab (or the line's end) for a wrong field count, the value
        field for a bad value or one that conflicts with an entry of this
        base or an earlier line, and inside the key for a key that names
        no count or not in its canonical form."""
        for lineno, line in enumerate(split_lines(text), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ScenarioError("expected 3 tab fields", lineno,
                                    line.find("\t") + 1 or len(line) + 1)
            key, valtext, prov = parts
            try:
                num, den = valtext.split("/")
                value = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError) as err:
                raise ScenarioError(f"bad value {valtext!r}", lineno,
                                    len(key) + 2) from err
            canonical = parse_key(key, lineno).key()
            if canonical != key:
                col = next((i for i, (a, b) in enumerate(zip(key, canonical))
                            if a != b), min(len(key), len(canonical))) + 1
                raise ScenarioError(f"key {key} is not canonical; "
                                    f"write {canonical}", lineno, col)
            try:
                self.add(key, value, prov)
            except EvalError as err:
                raise ScenarioError(str(err), lineno, len(key) + 2) from err


def _plain(*classes: HomologyClass) -> tuple[Insertion, ...]:
    return tuple(Insertion(c) for c in classes)


_SEEDED: dict[str, KBEntry] = {}


def seed_table() -> KnowledgeBase:
    """The built-in values everything else is derived from.

    The entries are built and checked through `add` on the first call; every
    later call returns a fresh base whose store is a dict copy of them (the
    frozen entries are shared, the dicts are not), so what a solver or a
    `--kb` file adds to one base never reaches another.
    """
    if _SEEDED:
        kb = KnowledgeBase()
        kb._entries = _SEEDED.copy()
        return kb
    kb = KnowledgeBase()

    p3 = builtin("p3")
    pt, lam, pi = p3.point, p3.gen("lambda"), p3.gen("pi")
    kb.add(InvariantSpec(p3, 0, lam, _plain(lam, lam, lam, lam), ()).key(),
           Fraction(2), "seed(four-lines)")
    kb.add(InvariantSpec(p3, 0, lam, _plain(pt, lam, lam), ()).key(),
           Fraction(1), "seed(point-two-lines)")
    kb.add(InvariantSpec(p3, 0, lam, _plain(pt, pt, pi), ()).key(),
           Fraction(1), "seed(two-points-plane)")

    p3b = builtin("p3blow2")
    double = cls(p3b.basis, {"lambda": 2, "eps1": -2, "eps2": -2})
    kb.add(InvariantSpec(p3b, 0, double, (), ()).key(),
           Fraction(1, 8), "seed(double-cover)")

    t2p = builtin("t2_ruled_section")
    T, TD = t2p.ambient, t2p.divisor
    section = cls(T.basis, {"s": 1, "f": 1})
    kb.add(InvariantSpec(T, 1, section, _plain(T.point), ()).key(),
           Fraction(2), "seed(torus-sections)")
    kb.add(InvariantSpec(t2p, 1, section, _plain(T.point), ()).key(),
           Fraction(1), "seed(torus-sections)")

    y = builtin("y_of:t2_ruled_section")
    yp = y.infinity_pair
    ybeta = y.class_of(TD.fundamental, 1)
    kb.add(InvariantSpec(yp, 1, ybeta, (),
                         (Insertion(TD.point, order=1),)).key(),
           Fraction(1), "seed(torus-sections)")
    kb.add(InvariantSpec(yp, 1, ybeta, _plain(y.total.point),
                         (Insertion(TD.fundamental, order=1),)).key(),
           Fraction(2), "seed(torus-sections)")

    s2 = builtin("s2xs2_antidiag")
    S = s2.ambient
    kb.add(InvariantSpec(S, 0, S.gen("a1"), _plain(S.point), ()).key(),
           Fraction(1), "seed(product-ruling)")

    p4bp = builtin("p4blow2_hyperplane")
    XB, DB = p4bp.ambient, p4bp.divisor
    for j in ("1", "2"):  # one line class in each exceptional plane
        sig = XB.gen("sig" + j)
        kb.add(InvariantSpec(p4bp, 0, XB.gen("eps" + j), _plain(sig, sig),
                             (Insertion(gen(DB.basis, "eps" + j), order=1),)).key(),
               Fraction(1), "seed(exceptional-plane)")

    _SEEDED.update(kb._entries)
    return kb


# the value of every count that is zero, by a verdict or by a rule
_ZERO_FRACTION = Fraction(0)


@dataclass(frozen=True)
class Value:
    value: Fraction
    trace: tuple[str, ...]

    @property
    def known(self) -> bool:
        return True


@dataclass(frozen=True)
class Unknown:
    blockers: tuple[str, ...] = ()

    @property
    def known(self) -> bool:
        return False


@dataclass(frozen=True)
class SplitIdentity:
    """Four marked points with fixed cross ratio, evaluated two ways.

    Degenerating the cross ratio to either boundary point groups the four
    distinguished insertions as (1,2|3,4) or (1,3|2,4); both boundary sums
    run over class splittings, distributions of the extra insertions, and
    the diagonal basis, and they are equal.  Equal extras are not told
    apart: a distribution is the number of copies of each distinct extra
    that goes to the first side, weighted by the ways of choosing them.
    Both groupings' sides are built once per identity (`sides`), and sorted
    there into the live terms, where no side is structurally zero by
    `vanishing.decide`, and the keys of the sides that are; a term with a
    zero side adds nothing to its sum.  `side_keys` reads them from there.
    """

    space: Space
    beta: HomologyClass
    four: tuple[HomologyClass, HomologyClass, HomologyClass, HomologyClass]
    extras: tuple[HomologyClass, ...]
    name: str

    def groupings(self):
        """The two boundary groupings, (1,2|3,4) and (1,3|2,4)."""
        a, b, c, d = self.four
        return (((a, b), (c, d)), ((a, c), (b, d)))

    @cached_property
    def sides(self) -> dict:
        """(left, right) grouping -> (terms, live, vanishing): its
        (weight, side1, side2) terms, the terms with no structurally zero
        side, and the keys of the sides that are zero."""
        return {(left, right): _live(_sides(self, left, right))
                for left, right in self.groupings()}

    @cached_property
    def side_keys(self) -> frozenset[str]:
        """Keys of the sides of the live terms and of the zero
        sides: a solution of this identity can give a value only to a side
        of a live term, and a zero side is what makes a term not live."""
        keys = set()
        for _, live, vanishing in self.sides.values():
            keys |= vanishing
            keys.update(side.key() for _, side1, side2 in live
                        for side in (side1, side2))
        return frozenset(keys)


@dataclass(frozen=True)
class LinearEquation:
    """sum(coeff * unknown) = rhs, unknowns named by canonical keys."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rhs: Fraction
    origin: str


@cache
def standard_identities() -> tuple[SplitIdentity, ...]:
    p3 = builtin("p3")
    pt, lam, pi = p3.point, p3.gen("lambda"), p3.gen("pi")
    return (
        SplitIdentity(p3, lam.scale(2), (pt, pt, pi, pi), (lam, lam, lam),
                      "conics-two-points"),
        SplitIdentity(p3, lam, (lam, lam, pi, pi), (lam,),
                      "lines-four-lines"),
    )


class Evaluator:
    """Fixed-point rewriting over a knowledge base.

    The base is mutated only by the splitting solver (new derived entries);
    everything else is read-only.  The solver runs only the identities whose
    sides include the target (not every identity of the space jointly), and
    it is held off while a boundary sum of an
    identity evaluates its sides (`_grouping_sum`).  The tables the rules
    read are built once per process, so a new evaluator costs no rebuild.
    A count tries only the rules that serve its kind of target, in the
    order of their tuple: `_SPACE_RULES` for a Space, `_PAIR_RULES` for a
    DivisorPair.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._solver_on = True
        self._memo: dict[str, Value | Unknown] = {}
        self._active: list[str] = []
        self._hyp: dict[tuple[str, str], bool] = {}

    # -- entry points ------------------------------------------------------

    def evaluate(self, spec: InvariantSpec) -> Value | Unknown:
        key = spec.key()
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if key in self._active:
            cyc = " -> ".join(self._active[self._active.index(key):] + [key])
            return Unknown((f"cycle: {cyc}",))
        self._active.append(key)
        try:
            result = self._compute(spec, key)
        finally:
            self._active.pop()
        self._memo[key] = result
        return result

    # -- core --------------------------------------------------------------

    def _compute(self, spec: InvariantSpec, key: str) -> Value | Unknown:
        hit = self.kb.get(key)
        if hit is not None:
            return Value(hit.value, (f"kb: {key} [{hit.provenance}]",))
        verdict = decide(spec)
        if verdict.is_zero:
            return Value(_ZERO_FRACTION, (f"vanishing: {verdict.reason}",))
        for rule in _SPACE_RULES if spec.pair is None else _PAIR_RULES:
            hitr = rule(self, spec)
            if hitr is None:
                continue
            factor, children, label = hitr
            return self._combine(factor, children, label)
        if self._solver_on and spec.pair is None:
            solved = self._try_solver(key)
            if solved is not None:
                return solved
        return Unknown((f"no-rule: {key}",))

    def _combine(self, factor: int | Fraction, children,
                 label: str) -> Value | Unknown:
        """The value of a rule's result: its factor times the value of each
        child, or the child's blockers.  The factor is an int or a Fraction
        the rule already held; a known nonzero value is built as one
        Fraction here (a product with a child's value, or the int itself),
        and a zero shares `_ZERO_FRACTION`."""
        if factor == 0:
            return Value(_ZERO_FRACTION, (label, "factor 0"))
        total = factor
        blockers: list[str] = []
        traces: list[str] = [label]
        for child in children:
            res = self.evaluate(child)
            if isinstance(res, Value):
                if res.value == 0:
                    return Value(_ZERO_FRACTION, (label,) + res.trace)
                total *= res.value
                traces.extend(res.trace)
            else:
                blockers.extend(res.blockers)
        if blockers:
            return Unknown(tuple([label] + blockers))
        if type(total) is int:
            total = Fraction(total)
        return Value(total, tuple(traces))

    # -- splitting solver ---------------------------------------------------

    def _try_solver(self, key: str) -> Value | None:
        """Solve the identities that have the bracket `key` among their
        sides; its value once they determine it, else None."""
        equations = []
        for si in standard_identities():
            if key not in si.side_keys:
                continue
            eq, missing = splitting_identity(si, self)
            if eq is not None and not missing:
                equations.append(eq)
        if not equations:
            return None
        solutions = solve_unknowns(equations)
        if solutions:
            # results memoized while the system was open may be stale
            self._memo.clear()
        origin = ",".join(eq.origin for eq in equations)
        for skey, val in sorted(solutions.items()):
            self.kb.add(skey, val, f"derived(splitting:{origin})")
        hit = self.kb.get(key)
        if hit is not None:
            return Value(hit.value, (f"kb: {key} [{hit.provenance}]",))
        return None

    def hypothesis(self, pair: DivisorPair, beta: HomologyClass) -> bool:
        hkey = (pair.name, beta.encode())
        if hkey not in self._hyp:
            try:
                ok, _ = check_degeneration_hypothesis(pair, beta)
            except InvariantError:
                ok = False  # no effective model to check against
            self._hyp[hkey] = ok
        return self._hyp[hkey]


# -- rewrite rules -----------------------------------------------------------


def _rule_degree_zero(ev: Evaluator, spec: InvariantSpec):
    if not spec.beta.is_zero:
        return None
    if len(spec.absolutes) != 3:
        return (0, (), "degree-zero: not a three-point bracket")
    table = spec.space.products
    if table is None:
        return None
    val = table.point_coefficient([i.cls for i in spec.absolutes])
    return (val, (), "degree-zero triple product")


def _rule_fundamental(ev: Evaluator, spec: InvariantSpec):
    if spec.beta.is_zero:
        return None
    fundamental = spec.space.fundamental
    for ins in spec.absolutes:
        # the preimage of the whole divisor is the whole ambient space
        whole = spec.pair.divisor.fundamental if ins.pulled_back else fundamental
        if ins.cls.grade == whole.grade and ins.cls == whole:
            return (0, (), "fundamental-class insertion")
    return None


def _rule_isolated(ev: Evaluator, spec: InvariantSpec):
    model = spec.space.effective
    if model is None or spec.beta.is_zero:
        return None
    if not model.is_isolated(spec.beta):
        return None
    for ins in spec.absolutes:
        if model.in_missable(ins.cls):
            return (0, (),
                    f"isolated-locus: generic {ins.cls.encode()} misses it")
    return None


def _rule_exceptional_tail(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    xm, dm = pair.ambient.effective, pair.divisor.effective
    if xm is None or dm is None:
        return None
    if xm.has_exceptional_support(spec.beta):
        return None
    for tail in spec.relatives:
        if dm.has_exceptional_support(tail.cls):
            return (0, (),
                    f"exceptional-tail: {tail.cls.encode()} off the class")
    return None


def _rule_fiber(ev: Evaluator, spec: InvariantSpec):
    """Genus-zero count in one fiber class of a ruled pair: the point
    coefficient of the contact classes times the divisor class each
    absolute constraint cuts out.  Declines without a product table or when
    a constraint has no divisor counterpart."""
    pair = spec.pair
    if pair.ruled is None or spec.genus != 0:
        return None
    if pair.ruled.fiber_degree(spec.beta) != 1:
        return None
    D = pair.divisor
    if D.products is None:
        return None
    classes = [t.cls for t in spec.relatives]
    for ins in spec.absolutes:
        if ins.pulled_back:
            classes.append(ins.cls)
        elif ins.cls.grade == 0:
            classes.append(D.point)
        elif ins.cls == pair.ambient.fundamental:
            classes.append(D.fundamental)
        else:
            return None
    return (D.products.point_coefficient(classes), (), "fiber-count")


def _rule_section_double_cover(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair.ruled is None or spec.genus != 0:
        return None
    if spec.absolutes or len(spec.relatives) != 1:
        return None
    tail = spec.relatives[0]
    D, meta = pair.divisor, pair.ruled
    if (tail.order != 1 or tail.cls.grade != D.n - 1 or D.products is None
            or meta.lift is None):
        return None
    # beta = lift(2 alpha) + fiber: a section through the double cover
    double = meta.projection(spec.beta)
    if double.is_zero or spec.beta != meta.lift(double) + meta.fiber:
        return None
    if any(c % 2 for _, c in double.coeffs):
        return None
    alpha = cls(D.basis, {e: c // 2 for e, c in double.coeffs})
    seed_key = InvariantSpec(D, 0, double, (), ()).key()
    hit = ev.kb.get(seed_key)
    if hit is None:
        return None
    pairing = D.products.point_coefficient([tail.cls, alpha])
    value = hit.value * 2 * pairing
    return (value, (),
            f"section-double-cover: 2 x {hit.value} x ({tail.cls.encode()}"
            f" . {alpha.encode()})")


def _ambient_absolutes(pair: DivisorPair, absolutes):
    """The absolute constraints of a count moved off the pair onto its
    ambient space: a pulled-back class becomes its declared preimage.  None
    when some pulled-back class has none."""
    moved = []
    for ins in absolutes:
        if ins.pulled_back:
            pre = pair.ruled.preimage(ins.cls)
            if pre is None:
                return None
            ins = replace(ins, cls=pre, pulled_back=False)
        moved.append(ins)
    return tuple(moved)


def _rule_drop_fundamental_tails(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if spec.genus != 0:
        return None
    if any(t.order != 1 or t.cls != pair.divisor.fundamental
           for t in spec.relatives):
        return None
    absolutes = _ambient_absolutes(pair, spec.absolutes)
    if absolutes is None or not ev.hypothesis(pair, spec.beta):
        return None
    child = InvariantSpec(pair.ambient, 0, spec.beta, absolutes, ())
    return (1, (child,), "drop-fundamental-tails")


def _rule_push_tails(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if spec.genus != 0 or pair.push is None:
        return None
    if not spec.relatives or any(t.order != 1 for t in spec.relatives):
        return None
    absolutes = _ambient_absolutes(pair, spec.absolutes)
    if absolutes is None or not ev.hypothesis(pair, spec.beta):
        return None
    inserted = absolutes + tuple([Insertion(pair.push(t.cls))
                                  for t in spec.relatives])
    child = InvariantSpec(pair.ambient, 0, spec.beta, inserted, ())
    return (1, (child,), "push-tails-inward")


def _rule_divisor_axiom(ev: Evaluator, spec: InvariantSpec):
    if spec.genus != 0 or spec.beta.is_zero:
        return None
    X = spec.space
    for i, ins in enumerate(spec.absolutes):
        if ins.cls.grade == X.n - 1:
            factor = X.intersect(spec.beta, ins.cls)
            rest = spec.absolutes[:i] + spec.absolutes[i + 1:]
            child = InvariantSpec(X, 0, spec.beta, rest, ())
            return (factor, (child,),
                    f"divisor-axiom: {ins.cls.encode()} gives factor {factor}")
    return None


def _rule_blowup(ev: Evaluator, spec: InvariantSpec):
    """Point blow-up comparison (Gathmann, "Gromov-Witten invariants of
    blow-ups"; J. Hu, Math. Z. 2000).  On a blow-up of P^n at points, a
    genus-0 count in class k*lambda - sum m_i eps_i with k > 0 and every
    m_i in {0, 1}, whose constraints all come from the base, equals the base
    count in class pi_*(beta) with sum m_i extra point constraints.  Other
    genera and multiplicities are outside the theorem and do not fire."""
    blow = spec.space.blowdown
    if blow is None or spec.genus != 0:
        return None
    ms = [-spec.beta.coeff(e) for e in blow.exceptional]
    down = blow.push(spec.beta)
    if blow.base.area(down) <= 0 or any(m not in (0, 1) for m in ms):
        return None
    model = spec.space.effective
    for ins in spec.absolutes:
        if not model.in_missable(ins.cls):
            return None
    moved = [Insertion(blow.push(ins.cls)) for ins in spec.absolutes]
    moved += [Insertion(blow.base.point)] * sum(ms)
    child = InvariantSpec(blow.base, 0, down, tuple(moved), ())
    return (1, (child,),
            f"blowup-comparison: +{sum(ms)} point conditions")


@cache
def _restriction_table() -> dict[str, tuple[InvariantSpec, str]]:
    p4, p3 = builtin("p4"), builtin("p3")
    pt4, lam4, pi4 = p4.point, p4.gen("lambda"), p4.gen("pi")
    pt3, lam3, pi3 = p3.point, p3.gen("lambda"), p3.gen("pi")
    table = {}
    src = InvariantSpec(p4, 0, lam4.scale(2),
                        _plain(pt4, pt4, lam4, pi4, pi4, pi4), ())
    dst = InvariantSpec(p3, 0, lam3.scale(2),
                        _plain(pt3, pt3, lam3, lam3, lam3, lam3), ())
    table[src.key()] = (dst, "conics meeting three planes sit in one")
    src = InvariantSpec(p4, 0, lam4, _plain(pt4, pi4, pi4, pi4), ())
    dst = InvariantSpec(p3, 0, lam3, _plain(pt3, pi3, lam3, lam3), ())
    table[src.key()] = (dst, "lines through a point sit in a hyperplane")
    return table


def _rule_restriction(ev: Evaluator, spec: InvariantSpec):
    hit = _restriction_table().get(spec.key())
    if hit is None:
        return None
    target, why = hit
    return (1, (target,), f"hyperplane-restriction: {why}")


# A rule returns None to decline a count, or (factor, children, label): the
# count is the factor times the value of each child.  The factor is an int,
# or a Fraction the rule already holds; `Evaluator._combine` builds the one
# Fraction of the value.
# Each tuple lists, in trial order, the rules that serve one kind of count:
# `spec.pair` is None for every count `_SPACE_RULES` sees and a DivisorPair
# for every count `_PAIR_RULES` sees.
_SPACE_RULES = (
    _rule_degree_zero,
    _rule_fundamental,
    _rule_isolated,
    _rule_divisor_axiom,
    _rule_blowup,
    _rule_restriction,
)
_PAIR_RULES = (
    _rule_fundamental,
    _rule_isolated,
    _rule_exceptional_tail,
    _rule_fiber,
    _rule_section_double_cover,
    _rule_drop_fundamental_tails,
    _rule_push_tails,
)


# -- splitting identities ----------------------------------------------------


def _splittings(space: Space, beta: HomologyClass):
    """(b1, b2) with b1 + b2 = beta, each zero or effective."""
    model = space.effective
    zero = cls(space.basis, {})
    seen = []
    candidates = [zero]
    if model is not None:
        candidates += list(model.classes(int(space.area(beta))))
    for b2 in candidates:
        b1 = beta - b2
        if not b1.is_zero and (model is None or not model.is_effective(b1)):
            continue
        seen.append((b1, b2))
    return seen


def _sides(si: SplitIdentity, left, right):
    """The (weight, side1, side2) terms of one grouping's boundary sum: over
    class splittings, the number k_i of copies of each distinct extra (of
    m_i in all) that goes to the first side, and the diagonal basis.  A term
    stands for the prod C(m_i, k_i) distributions of the labeled extras
    that give it, and that count is its weight.  Each side keeps its
    insertions in key order, as every spec does."""
    space = si.space
    distinct = tuple(dict.fromkeys(si.extras))
    mults = [si.extras.count(c) for c in distinct]
    duals = [(space.gen(e), d) for e, d in space.duals.items()]
    sides = []
    for b1, b2 in _splittings(space, si.beta):
        for counts in itertools.product(*(range(m + 1) for m in mults)):
            weight = prod(comb(m, k) for m, k in zip(mults, counts))
            s_left = [c for c, k in zip(distinct, counts) for _ in range(k)]
            s_right = [c for c, m, k in zip(distinct, mults, counts)
                       for _ in range(m - k)]
            for e, edual in duals:
                sides.append((
                    weight,
                    InvariantSpec(
                        space, 0, b1, _plain(left[0], left[1], *s_left, e), ()),
                    InvariantSpec(
                        space, 0, b2,
                        _plain(edual, right[0], right[1], *s_right), ())))
    return tuple(sides)


def _live(terms):
    """(terms, live, vanishing) of one grouping: the live terms are those
    where no side is structurally zero by `decide`, which reads no
    knowledge base; `vanishing` holds the keys of the zero sides.  A term
    with a side whose verdict raises stays live, so the evaluator raises
    on it as before."""
    live, vanishing = [], set()
    for term in terms:
        try:
            zero = {side.key() for side in term[1:] if decide(side).is_zero}
        except InvariantError:
            zero = set()
        if zero:
            vanishing |= zero
        else:
            live.append(term)
    return terms, tuple(live), frozenset(vanishing)


def _grouping_sum(ev: Evaluator, si: SplitIdentity, left, right):
    """Boundary sum for one grouping; returns (constant, unknown-coeffs, missing).

    Each live term of `si.sides` counts its weight times: its product goes
    into the constant, or its known factor into the coefficient of the
    unknown one, multiplied by the weight.  `missing` names each term with
    two unknown factors once.  A term with a structurally zero side
    evaluates to 0 times its other side and is skipped, unless the
    evaluator's base holds a value for one of the zero sides: the base is
    read before the verdict, so that evaluator walks every term.  The sides
    evaluate with the solver held off: an unknown side is a coefficient of
    the identity, not the start of another solve.
    """
    terms, live, vanishing = si.sides[(left, right)]
    if not any(key in ev.kb for key in vanishing):
        terms = live
    held, ev._solver_on = ev._solver_on, False
    try:
        values = [(ev.evaluate(side1), ev.evaluate(side2))
                  for _, side1, side2 in terms]
    finally:
        ev._solver_on = held
    const = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    missing: list[str] = []
    for (weight, side1, side2), (v1, v2) in zip(terms, values):
        known1 = isinstance(v1, Value)
        known2 = isinstance(v2, Value)
        if known1 and known2:
            const += weight * v1.value * v2.value
        elif known1 and not known2:
            if v1.value != 0:
                k = side2.key()
                coeffs[k] = coeffs.get(k, Fraction(0)) + weight * v1.value
        elif known2 and not known1:
            if v2.value != 0:
                k = side1.key()
                coeffs[k] = coeffs.get(k, Fraction(0)) + weight * v2.value
        else:
            missing.append(f"{side1.key()} x {side2.key()}")
    return const, coeffs, missing


def splitting_identity(si: SplitIdentity, ev: Evaluator):
    """Equate the two boundary degenerations; returns (equation, missing).

    Terms where both factors are unknown make the identity nonlinear in the
    unknowns; those are reported in `missing` and the equation is withheld.
    """
    (constA, coeffA, missA), (constB, coeffB, missB) = (
        _grouping_sum(ev, si, left, right) for left, right in si.groupings())
    missing = missA + missB
    if missing:
        return None, tuple(missing)
    coeffs: dict[str, Fraction] = dict(coeffA)
    for k, v in coeffB.items():
        coeffs[k] = coeffs.get(k, Fraction(0)) - v
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    rhs = constB - constA
    if not coeffs:
        if rhs != 0:
            raise EvalError(f"identity {si.name} is inconsistent: 0 = {rhs}")
        return None, ()
    eq = LinearEquation(tuple(sorted(coeffs.items())), rhs, si.name)
    return eq, ()


def solve_unknowns(equations) -> dict[str, Fraction]:
    """Gaussian elimination over the rationals.

    Returns the uniquely determined values by key; an unknown the system
    leaves underdetermined is absent.  An inconsistent system raises with
    the origins of the clashing equations.
    """
    variables = sorted({k for eq in equations for k, _ in eq.coeffs})
    index = {k: i for i, k in enumerate(variables)}
    rows, origins = [], []
    for eq in equations:
        row = [Fraction(0)] * (len(variables) + 1)
        for k, v in eq.coeffs:
            row[index[k]] += v
        row[-1] = Fraction(eq.rhs)
        rows.append(row)
        origins.append(eq.origin)
    pivots = row_reduce(rows, origins)
    if pivots and pivots[-1] == len(variables):
        clash = origins[len(pivots) - 1]
        raise EvalError(f"inconsistent splitting system via {clash}")
    pivot_of = {col: r for r, col in enumerate(pivots)}
    solutions: dict[str, Fraction] = {}
    for col, var in enumerate(variables):
        row = rows[pivot_of[col]] if col in pivot_of else None
        if row is not None and not any(
                row[j] for j in range(len(variables)) if j != col):
            solutions[var] = row[-1]
    return solutions
