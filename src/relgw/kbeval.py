"""Invariant values: the knowledge base, rewrite rules, and a linear solver.

Values come from three places.  A small seed table holds the counts that the
genus-zero machinery cannot produce (genus-one section counts, the double
cover count, rubber values).  Rewrite rules reduce one bracket to others and
are value-preserving by the identity each rule encodes.  Finally, four-point
splitting identities give linear equations whose solution fills in unknowns
such as the conic count through two points and four lines.

`Evaluator` orchestrates: knowledge-base lookup, vanishing verdict, rules in
a fixed order, then the splitting solver, memoizing along the way.  Every
value carries a trace naming the rules and entries it used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dimension import Insertion, InvariantError, InvariantSpec, RubberTriple
from .lattice import HomologyClass, cls, gen
from .spaces import DivisorPair, Space, builtin
from .vanishing import check_degeneration_hypothesis, decide


class EvalError(Exception):
    """Conflicting or malformed knowledge-base state."""


NONZERO = "nonzero"


@dataclass(frozen=True)
class KBEntry:
    """One stored value.  `value` None means "known nonzero, value unknown"."""

    key: str
    value: Fraction | None
    provenance: str

    def value_text(self) -> str:
        if self.value is None:
            return NONZERO
        return f"{self.value.numerator}/{self.value.denominator}"


class KnowledgeBase:
    """Append-only store of canonical-key -> value.

    Entries from another base (a `--kb` file) come in through `merge`, which
    rejects conflicting values.
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

    def add(self, key: str, value: Fraction | None, provenance: str) -> bool:
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
        if value is not None and not isinstance(value, Fraction):
            value = Fraction(value)
        self._entries[key] = KBEntry(key, value, provenance)
        return True

    def remove(self, key: str) -> None:
        self._entries.pop(key, None)

    def merge(self, other: "KnowledgeBase") -> int:
        """Fold another base in; conflicting values raise.  Returns additions."""
        added = 0
        for e in other.entries():
            if self.add(e.key, e.value, e.provenance):
                added += 1
        return added

    def dump(self) -> str:
        lines = [f"{e.key}\t{e.value_text()}\t{e.provenance}"
                 for e in self.entries()]
        return "".join(line + "\n" for line in lines)

    @classmethod
    def parse(cls_, text: str) -> "KnowledgeBase":
        kb = cls_()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise EvalError(f"line {lineno}: expected 3 tab fields")
            key, valtext, prov = parts
            if valtext == NONZERO:
                value = None
            else:
                try:
                    num, den = valtext.split("/")
                    value = Fraction(int(num), int(den))
                except ValueError as err:
                    raise EvalError(f"line {lineno}: bad value {valtext!r}") from err
            kb.add(key, value, prov)
        return kb


def _plain(*classes: HomologyClass) -> tuple[Insertion, ...]:
    return tuple(Insertion(c) for c in classes)


def seed_table() -> KnowledgeBase:
    """The built-in values everything else is derived from."""
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
    kb.add(InvariantSpec(t2p, 0, T.gen("f"), _plain(T.point),
                         (Insertion(TD.fundamental, order=1),)).key(),
           Fraction(1), "seed(fiber-count)")
    kb.add(InvariantSpec(t2p, 0, T.gen("f"), (),
                         (Insertion(TD.point, order=1),)).key(),
           Fraction(1), "seed(fiber-count)")

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

    q2 = builtin("q_of:p2_hyperplane")
    P1 = q2.base.divisor
    nothing = cls(P1.basis, {})
    fiber2 = RubberTriple(q2, 0, nothing, 2,
                          ((1, P1.fundamental), (1, P1.fundamental)),
                          ((2, P1.point),))
    kb.add(fiber2.key(), Fraction(1), "seed(rubber-fiber)")
    kb.add(fiber2.mirrored().key(), Fraction(1), "derived(mirror)")
    positive = RubberTriple(q2, 0, P1.fundamental, 2,
                            ((1, P1.point),), ((2, P1.point),))
    kb.add(positive.key(), None, "seed(rubber-positive)")
    return kb


def normalize(spec: InvariantSpec) -> InvariantSpec:
    """Reorder insertions into the canonical order used by keys."""
    a = tuple(sorted(spec.absolutes,
                     key=lambda i: (i.cls.grade, i.cls.encode(),
                                    i.descendents, i.pulled_back)))
    r = tuple(sorted(spec.relatives,
                     key=lambda i: (-i.order, i.cls.encode())))
    if a == spec.absolutes and r == spec.relatives:
        return spec
    return InvariantSpec(spec.target, spec.genus, spec.beta, a, r,
                         spec.connected)


@dataclass(frozen=True)
class Value:
    value: Fraction
    trace: tuple[str, ...] = ()

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
    the diagonal basis, and they are equal.
    """

    space: Space
    beta: HomologyClass
    four: tuple[HomologyClass, HomologyClass, HomologyClass, HomologyClass]
    extras: tuple[HomologyClass, ...]
    name: str


@dataclass(frozen=True)
class LinearEquation:
    """sum(coeff * unknown) = rhs, unknowns named by canonical keys."""

    coeffs: tuple[tuple[str, Fraction], ...]
    rhs: Fraction
    origin: str


def standard_identities() -> tuple[SplitIdentity, ...]:
    p3 = builtin("p3")
    pt, lam, pi = p3.point, p3.gen("lambda"), p3.gen("pi")
    return (
        SplitIdentity(p3, lam.scale(2), (pt, pt, pi, pi), (lam, lam, lam),
                      "conics-two-points"),
        SplitIdentity(p3, lam, (lam, lam, pi, pi), (lam,),
                      "lines-four-lines"),
    )


def _duals(space: Space) -> tuple[tuple[HomologyClass, HomologyClass], ...]:
    """(e, e*) pairs with e.e* = 1, taken from the intersection form."""
    pairs = []
    names = [e for e, _ in space.basis.elements]
    lookup = {}
    for a, b, c in space.form.pairs:
        lookup.setdefault(a, []).append((b, c))
        if a != b:
            lookup.setdefault(b, []).append((a, c))
    for e in names:
        partners = lookup.get(e, [])
        if len(partners) != 1 or abs(partners[0][1]) != 1:
            raise EvalError(f"no unique dual for {e} in {space.name}")
        f, c = partners[0]
        pairs.append((gen(space.basis, e), gen(space.basis, f, c)))
    return tuple(pairs)


class Evaluator:
    """Fixed-point rewriting over a knowledge base.

    The base is mutated only by the splitting solver (new derived entries);
    everything else is read-only.
    """

    def __init__(self, kb: KnowledgeBase, identities=None, solver: bool = True):
        self.kb = kb
        self.identities = (standard_identities() if identities is None
                           else tuple(identities))
        self.solver = solver
        self._memo: dict[str, Value | Unknown] = {}
        self._active: list[str] = []
        self._hyp: dict[tuple[str, str], bool] = {}
        self._restrictions = _restriction_table()

    # -- entry points ------------------------------------------------------

    def evaluate(self, spec) -> Value | Unknown:
        if isinstance(spec, RubberTriple):
            return self._rubber(spec)
        spec = normalize(spec)
        key = spec.key()
        if key in self._memo:
            return self._memo[key]
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

    def _rubber(self, triple: RubberTriple) -> Value | Unknown:
        hit = self.kb.get(triple.key())
        label = triple.key()
        if hit is None:
            mirror = triple.mirrored()
            hit = self.kb.get(mirror.key())
            label = f"{mirror.key()} (mirrored)"
        if hit is None:
            return Unknown((f"no-rubber-value: {triple.key()}",))
        if hit.value is None:
            return Unknown((f"known-nonzero-only: {label}",))
        return Value(hit.value, (f"kb: {label} [{hit.provenance}]",))

    # -- core --------------------------------------------------------------

    def _compute(self, spec: InvariantSpec, key: str) -> Value | Unknown:
        hit = self.kb.get(key)
        if hit is not None:
            if hit.value is None:
                return Unknown((f"known-nonzero-only: {key}",))
            return Value(hit.value, (f"kb: {key} [{hit.provenance}]",))
        verdict = decide(spec)
        if verdict.is_zero:
            return Value(Fraction(0), (f"vanishing: {verdict.reason}",))
        for rule in _RULES:
            hitr = rule(self, spec)
            if hitr is None:
                continue
            factor, children, label = hitr
            return self._combine(factor, children, label)
        if self.solver and spec.pair is None:
            solved = self._try_solver(spec)
            if solved is not None:
                return solved
        return Unknown((f"no-rule: {key}",))

    def _combine(self, factor: Fraction, children, label: str) -> Value | Unknown:
        if factor == 0:
            return Value(Fraction(0), (label, "factor 0"))
        total = Fraction(factor)
        blockers: list[str] = []
        traces: list[str] = [label]
        for child in children:
            res = self.evaluate(child)
            if isinstance(res, Value):
                if res.value == 0:
                    return Value(Fraction(0), (label,) + res.trace)
                total *= res.value
                traces.extend(res.trace)
            else:
                blockers.extend(res.blockers)
        if blockers:
            return Unknown(tuple([label] + blockers))
        return Value(total, tuple(traces))

    # -- splitting solver ---------------------------------------------------

    def _try_solver(self, spec: InvariantSpec) -> Value | Unknown | None:
        relevant = [si for si in self.identities
                    if si.space.name == spec.space.name]
        if not relevant:
            return None
        equations = []
        for si in relevant:
            eq, missing = splitting_identity(si, self)
            if eq is not None and not missing:
                equations.append(eq)
        if not equations:
            return None
        solutions, _free = solve_unknowns(equations)
        if solutions:
            # results memoized while the system was open may be stale
            self._memo.clear()
        for skey, val in sorted(solutions.items()):
            origin = ",".join(eq.origin for eq in equations)
            self.kb.add(skey, val, f"derived(splitting:{origin})")
        hit = self.kb.get(spec.key())
        if hit is not None and hit.value is not None:
            return Value(hit.value,
                         (f"kb: {spec.key()} [{hit.provenance}]",))
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


def evaluate(spec, kb: KnowledgeBase, **kwargs) -> Value | Unknown:
    return Evaluator(kb, **kwargs).evaluate(spec)


# -- rewrite rules -----------------------------------------------------------


def _rule_degree_zero(ev: Evaluator, spec: InvariantSpec):
    if not spec.beta.is_zero or spec.pair is not None:
        return None
    if any(i.descendents or i.pulled_back for i in spec.absolutes):
        return None
    if len(spec.absolutes) != 3:
        return (Fraction(0), (), "degree-zero: not a three-point bracket")
    table = spec.space.products
    if table is None:
        return None
    val = table.point_coefficient([i.cls for i in spec.absolutes])
    return (Fraction(val), (), "degree-zero triple product")


def _rule_fundamental(ev: Evaluator, spec: InvariantSpec):
    if spec.beta.is_zero:
        return None
    X = spec.space
    for ins in spec.absolutes:
        if ins.cls == X.fundamental and not ins.descendents:
            return (Fraction(0), (), "fundamental-class insertion")
    return None


def _rule_isolated(ev: Evaluator, spec: InvariantSpec):
    model = spec.space.effective
    if model is None or spec.beta.is_zero:
        return None
    if not model.is_isolated(spec.beta):
        return None
    for ins in spec.absolutes:
        if model.in_missable(ins.cls):
            return (Fraction(0), (),
                    f"isolated-locus: generic {ins.cls.encode()} misses it")
    return None


def _rule_exceptional_tail(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair is None:
        return None
    xm, dm = pair.ambient.effective, pair.divisor.effective
    if xm is None or dm is None:
        return None
    if xm.has_exceptional_support(spec.beta):
        return None
    for tail in spec.relatives:
        if dm.has_exceptional_support(tail.cls):
            return (Fraction(0), (),
                    f"exceptional-tail: {tail.cls.encode()} off the class")
    return None


def _rule_fiber(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair is None or pair.ruled is None or spec.genus != 0:
        return None
    if pair.ruled.fiber_degree(spec.beta) != 1:
        return None
    val = fiber_count(pair, [t.cls for t in spec.relatives], spec.absolutes)
    if val is None:
        return None
    return (val, (), "fiber-count")


def fiber_count(pair: DivisorPair, classes, absolutes) -> Fraction | None:
    """Genus-zero count in one fiber class of a ruled pair: the point
    coefficient of the divisor `classes` times the divisor class each
    absolute constraint cuts out.  None without a product table or when a
    constraint has no divisor counterpart."""
    D = pair.divisor
    table = D.products
    if table is None:
        return None
    classes = list(classes)
    for ins in absolutes:
        if ins.descendents:
            return None
        if ins.pulled_back:
            source = _pullback_source(pair, ins.cls)
            if source is None:
                return None
            classes.append(source)
        elif ins.cls.grade == 0:
            classes.append(D.point)
        elif ins.cls == pair.ambient.fundamental:
            classes.append(D.fundamental)
        else:
            return None
    return Fraction(table.point_coefficient(classes))


def _pullback_source(pair: DivisorPair, c: HomologyClass) -> HomologyClass | None:
    if pair.ruled is not None and c == pair.ruled.fiber:
        return pair.divisor.point
    if c == pair.ambient.fundamental:
        return pair.divisor.fundamental
    return None


def _rule_section_double_cover(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair is None or pair.ruled is None or spec.genus != 0:
        return None
    if spec.absolutes or len(spec.relatives) != 1:
        return None
    tail = spec.relatives[0]
    D = pair.divisor
    if tail.order != 1 or tail.cls.grade != D.n - 1 or D.products is None:
        return None
    Y = pair.ambient
    fiber = pair.ruled.fiber
    if len(fiber.coeffs) != 1 or fiber.coeffs[0][1] != 1:
        return None
    fname = fiber.coeffs[0][0]
    curve_gens = [e for e, g in D.basis.elements if g == 1]
    lift_names = {g: f"{g}_0" for g in curve_gens}
    ynames = {e for e, _ in Y.basis.elements}
    if not all(name in ynames for name in lift_names.values()):
        return None
    if spec.beta.coeff(fname) != 1:
        return None
    halves = {}
    residual = spec.beta - fiber
    for g in curve_gens:
        c = spec.beta.coeff(lift_names[g])
        if c % 2:
            return None
        if c:
            halves[g] = c // 2
        residual = residual - gen(Y.basis, lift_names[g], c)
    if not halves or not residual.is_zero:
        return None
    alpha = cls(D.basis, halves)
    seed_key = InvariantSpec(D, 0, alpha.scale(2), (), ()).key()
    hit = ev.kb.get(seed_key)
    if hit is None or hit.value is None:
        return None
    pairing = D.products.point_coefficient([tail.cls, alpha])
    value = hit.value * 2 * pairing
    return (Fraction(value), (),
            f"section-double-cover: 2 x {hit.value} x ({tail.cls.encode()}"
            f" . {alpha.encode()})")


def _rule_drop_fundamental_tails(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair is None or spec.genus != 0:
        return None
    if any(t.order != 1 or t.cls != pair.divisor.fundamental
           for t in spec.relatives):
        return None
    if not ev.hypothesis(pair, spec.beta):
        return None
    child = InvariantSpec(pair.ambient, 0, spec.beta, spec.absolutes, ())
    return (Fraction(1), (child,), "drop-fundamental-tails")


def _rule_push_tails(ev: Evaluator, spec: InvariantSpec):
    pair = spec.pair
    if pair is None or spec.genus != 0 or pair.push is None:
        return None
    if not spec.relatives or any(t.order != 1 for t in spec.relatives):
        return None
    if not ev.hypothesis(pair, spec.beta):
        return None
    pushed = tuple(Insertion(pair.push(t.cls)) for t in spec.relatives)
    child = InvariantSpec(pair.ambient, 0, spec.beta,
                          spec.absolutes + pushed, ())
    return (Fraction(1), (child,), "push-tails-inward")


def _rule_divisor_axiom(ev: Evaluator, spec: InvariantSpec):
    if spec.pair is not None or spec.genus != 0 or spec.beta.is_zero:
        return None
    X = spec.space
    for i, ins in enumerate(spec.absolutes):
        if ins.cls.grade == X.n - 1 and not ins.descendents:
            factor = X.intersect(spec.beta, ins.cls)
            rest = spec.absolutes[:i] + spec.absolutes[i + 1:]
            child = InvariantSpec(X, 0, spec.beta, rest, ())
            return (Fraction(factor), (child,),
                    f"divisor-axiom: {ins.cls.encode()} gives factor {factor}")
    return None


_BLOWUP_SHAPES = {(0, 0), (1, 0), (0, 1), (1, 1)}


def _rule_blowup(ev: Evaluator, spec: InvariantSpec):
    if spec.pair is not None or spec.space.name != "p4blow2":
        return None
    X = spec.space
    k = spec.beta.coeff("lambda")
    m1, m2 = -spec.beta.coeff("eps1"), -spec.beta.coeff("eps2")
    if k <= 0 or (m1, m2) not in _BLOWUP_SHAPES:
        return None
    model = X.effective
    for ins in spec.absolutes:
        if ins.descendents or ins.pulled_back or not model.in_missable(ins.cls):
            return None
    p4 = builtin("p4")
    rename = {"pt": "pt", "lambda": "lambda", "pi": "pi", "h": "h3",
              "fund": "fund"}
    moved = []
    for ins in spec.absolutes:
        moved.append(Insertion(cls(p4.basis,
                                   {rename[e]: c for e, c in ins.cls.coeffs})))
    moved.extend(Insertion(p4.point) for _ in range(m1 + m2))
    child = InvariantSpec(p4, 0, gen(p4.basis, "lambda", k), tuple(moved), ())
    return (Fraction(1), (child,),
            f"blowup-comparison: +{m1 + m2} point conditions")


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
    if spec.pair is not None:
        return None
    hit = ev._restrictions.get(spec.key())
    if hit is None:
        return None
    target, why = hit
    return (Fraction(1), (target,), f"hyperplane-restriction: {why}")


_RULES = (
    _rule_degree_zero,
    _rule_fundamental,
    _rule_isolated,
    _rule_exceptional_tail,
    _rule_fiber,
    _rule_section_double_cover,
    _rule_drop_fundamental_tails,
    _rule_push_tails,
    _rule_divisor_axiom,
    _rule_blowup,
    _rule_restriction,
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


def _grouping_sum(ev: Evaluator, si: SplitIdentity, left, right):
    """Boundary sum for one grouping; returns (constant, unknown-coeffs, missing)."""
    space = si.space
    const = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    missing: list[str] = []
    n_extras = len(si.extras)
    duals = _duals(space)
    for b1, b2 in _splittings(space, si.beta):
        for r in range(n_extras + 1):
            for picked in itertools.combinations(range(n_extras), r):
                s_left = [si.extras[i] for i in picked]
                s_right = [si.extras[i] for i in range(n_extras)
                           if i not in picked]
                for e, edual in duals:
                    side1 = InvariantSpec(
                        space, 0, b1,
                        _plain(left[0], left[1], *s_left, e), ())
                    side2 = InvariantSpec(
                        space, 0, b2,
                        _plain(edual, right[0], right[1], *s_right), ())
                    v1 = ev.evaluate(side1)
                    v2 = ev.evaluate(side2)
                    known1 = isinstance(v1, Value)
                    known2 = isinstance(v2, Value)
                    if known1 and known2:
                        const += v1.value * v2.value
                    elif known1 and not known2:
                        if v1.value != 0:
                            k = normalize(side2).key()
                            coeffs[k] = coeffs.get(k, Fraction(0)) + v1.value
                    elif known2 and not known1:
                        if v2.value != 0:
                            k = normalize(side1).key()
                            coeffs[k] = coeffs.get(k, Fraction(0)) + v2.value
                    else:
                        missing.append(f"{normalize(side1).key()} x "
                                       f"{normalize(side2).key()}")
    return const, coeffs, missing


def splitting_identity(si: SplitIdentity, ev: Evaluator):
    """Equate the two boundary degenerations; returns (equation, missing).

    Terms where both factors are unknown make the identity nonlinear in the
    unknowns; those are reported in `missing` and the equation is withheld.
    """
    solver_state = ev.solver
    ev.solver = False
    try:
        a, b, c, d = si.four
        constA, coeffA, missA = _grouping_sum(ev, si, (a, b), (c, d))
        constB, coeffB, missB = _grouping_sum(ev, si, (a, c), (b, d))
    finally:
        ev.solver = solver_state
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


def solve_unknowns(equations) -> tuple[dict[str, Fraction], tuple[str, ...]]:
    """Gaussian elimination over the rationals.

    Returns (uniquely determined values, free unknowns).  An inconsistent
    system raises with the origins of the clashing equations.
    """
    variables = sorted({k for eq in equations for k, _ in eq.coeffs})
    index = {k: i for i, k in enumerate(variables)}
    rows = []
    for eq in equations:
        row = [Fraction(0)] * len(variables)
        for k, v in eq.coeffs:
            row[index[k]] += v
        rows.append((row, Fraction(eq.rhs), eq.origin))
    pivot_of: dict[int, int] = {}
    rank = 0
    for col in range(len(variables)):
        pivot = next((i for i in range(rank, len(rows))
                      if rows[i][0][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow, prhs, porig = rows[rank]
        inv = Fraction(1) / prow[col]
        prow = [x * inv for x in prow]
        prhs = prhs * inv
        rows[rank] = (prow, prhs, porig)
        for i in range(len(rows)):
            if i != rank and rows[i][0][col] != 0:
                f = rows[i][0][col]
                newrow = [a - f * b for a, b in zip(rows[i][0], prow)]
                rows[i] = (newrow, rows[i][1] - f * prhs, rows[i][2])
        pivot_of[col] = rank
        rank += 1
    for row, rhs, origin in rows[rank:]:
        if rhs != 0:
            raise EvalError(f"inconsistent splitting system via {origin}")
    solutions: dict[str, Fraction] = {}
    free: list[str] = []
    for col, var in enumerate(variables):
        if col not in pivot_of:
            free.append(var)
            continue
        row, rhs, _ = rows[pivot_of[col]]
        if any(row[j] != 0 for j in range(len(variables)) if j != col):
            free.append(var)
            continue
        solutions[var] = rhs
    return solutions, tuple(free)
