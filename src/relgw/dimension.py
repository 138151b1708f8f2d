"""Expected dimensions of curve counts and indices of degeneration strata.

Everything here is exact integer bookkeeping.  The raw dimension of a moduli
problem ignores homological constraints; each constraint subtracts its
codimension, and a count is admissible exactly when the result is zero.
Multi-level strata are indexed by the strata module, one index per level
component; `projection_index` here is the closed form that a genus-0
component at a positive level is checked against.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

from .lattice import HomologyClass
from .spaces import DivisorPair, Space


class InvariantError(Exception):
    """An ill-posed invariant: wrong basis, bad contact data, bad genus."""


class DefinedZero(Exception):
    """The count is zero by definition, not by a dimension argument.

    Raised when a class pairs negatively with the chosen divisor, so the
    relative moduli space is empty before any constraint is imposed.  Callers
    catch this; it is a verdict, not a failure.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_PLACES = ("X", "Y", "split")


@dataclass(frozen=True)
class Insertion:
    """One primary constraint: a homology class, possibly tied to the
    divisor with a contact order.  Every field after `cls` is keyword-only.

    `order` is None for an absolute insertion and the contact multiplicity
    (>= 1) otherwise.  `pulled_back` marks an absolute constraint pi^-1(c)
    on a pair whose ambient space is ruled over the divisor: `cls` is then
    the class c of the divisor, and the constraint can always be pushed off
    a fixed fiber direction.  `place` (X, Y or split) is only meaningful as
    input to the splitting enumeration and never enters a canonical key.

    Construction also stores the text `token()` returns and the sort key
    `_sort_key` reads, by which each `InvariantSpec` orders its insertions
    when it is built, as attributes, not fields, so equality, hashing and
    repr do not see them; `dataclasses.replace` builds them again from the
    new fields.
    """

    cls: HomologyClass
    _: KW_ONLY
    order: int | None = None
    pulled_back: bool = False
    place: str = "X"

    def __post_init__(self):
        c = self.cls
        if c.grade is None:
            raise InvariantError("constraint classes must be homogeneous and nonzero")
        if self.order is not None and self.order < 1:
            raise InvariantError("contact order must be >= 1")
        if self.place not in _PLACES:
            raise InvariantError(f"unknown placement {self.place!r}")
        code = c.encode()
        if self.order is not None:
            token, sort = f"({self.order},{code})", (-self.order, code)
        else:
            token = ("pb:" if self.pulled_back else "") + code
            sort = (c.grade, code, self.pulled_back)
        object.__setattr__(self, "_token", token)
        object.__setattr__(self, "_sort", sort)

    def token(self) -> str:
        return self._token


def _sort_key(ins: Insertion):
    """Canonical order of a spec's insertions: absolute ones by (grade,
    class, pulled back), relative ones by decreasing contact order, then
    class."""
    return ins._sort


@dataclass(frozen=True)
class InvariantSpec:
    """A single connected-domain count: target, genus, class, constraints.

    `target` is a Space for absolute counts or a DivisorPair for relative
    ones.  Relative insertions use classes in the divisor's basis; absolute
    insertions use the ambient basis, except pulled-back ones, which need a
    pair with `ruled` and use the divisor's basis.

    Construction makes the spec canonical.  It checks the insertions as
    given (any sequence), so an error names the first bad one as written.
    Then it keeps each insertion tuple in key order by a stable sort on
    `_sort_key`, so equal insertions keep the `place` order `decompose`
    reads, and builds the text `key()` returns.  Two specs that differ
    only in the written order of their insertions are equal.  The key
    text, `pair` (the target when it is a DivisorPair, else None), `space`
    (the ambient space), `n` (its dimension) and `contact_orders` (the
    orders of the relative insertions, in key order) are attributes, not
    fields, so equality, hashing and repr do not see them;
    `dataclasses.replace` builds them again from the new fields.  Each
    basis check compares the bases by identity before it compares their
    names: catalog bases are shared objects.

    `raw_dimension` and `vanishing.decide` keep their answers on the
    instance (`_raw`, `_verdict`) the first time they are asked, and a
    replaced spec starts with none.  Both stores stay: without them the
    `bracket_mix` benchmark pass went from 0.298 to 0.312 s (+4.8%,
    slower in 4 of 4 alternating pairs of 8 s runs, CPython 3.11).
    """

    target: Space | DivisorPair
    genus: int
    beta: HomologyClass
    absolutes: tuple[Insertion, ...] = ()
    relatives: tuple[Insertion, ...] = ()

    def __post_init__(self):
        put = object.__setattr__
        absolutes, relatives = self.absolutes, self.relatives
        target = self.target
        pair = target if isinstance(target, DivisorPair) else None
        space = target if pair is None else pair.ambient
        if self.genus < 0:
            raise InvariantError("genus must be >= 0")
        if relatives and pair is None:
            raise InvariantError("contact insertions need a divisor pair target")
        ambient = space.basis
        b = self.beta.basis
        if b is not ambient and b.name != ambient.name:
            raise InvariantError("class lives in the wrong basis")
        for ins in absolutes:
            if ins.order is not None:
                raise InvariantError("contact insertion listed as absolute")
            if not ins.pulled_back:
                basis = ambient
            elif pair is None or pair.ruled is None:
                raise InvariantError(f"pulled-back constraint {ins.token()} "
                                     "needs a pair whose ambient is ruled")
            else:
                basis = pair.divisor.basis
            b = ins.cls.basis
            if b is not basis and b.name != basis.name:
                raise InvariantError(f"absolute constraint {ins.token()} in wrong basis")
        if relatives:
            basis = pair.divisor.basis
            for ins in relatives:
                if ins.order is None:
                    raise InvariantError("absolute insertion listed as relative")
                b = ins.cls.basis
                if b is not basis and b.name != basis.name:
                    raise InvariantError(f"contact constraint {ins.token()} in wrong basis")
        absolutes = tuple(sorted(absolutes, key=_sort_key))
        relatives = tuple(sorted(relatives, key=_sort_key))
        put(self, "absolutes", absolutes)
        put(self, "relatives", relatives)
        put(self, "pair", pair)
        put(self, "space", space)
        put(self, "n", space.n)
        put(self, "contact_orders", tuple([ins.order for ins in relatives]))
        key = (f"{'space' if pair is None else 'pair'}:{target.name};"
               f"g={self.genus};b={self.beta.encode()};"
               f"abs={','.join([ins.token() for ins in absolutes])}")
        if pair is not None:
            key += f";rel={','.join([ins.token() for ins in relatives])}"
        put(self, "_key", key)

    def key(self) -> str:
        """Canonical text form, built at construction; equal keys mean the
        same count."""
        return self._key


# ---------------------------------------------------------------------------
# dimension formulas


def check_contact_orders(spec: InvariantSpec) -> None:
    """The contact data of a relative count: DefinedZero when the class
    meets the divisor negatively, InvariantError when the contact orders do
    not add up to the number of points it meets the divisor in."""
    d = spec.pair.contact_count(spec.beta)
    if d < 0:
        raise DefinedZero(f"class meets divisor in {d} < 0 points")
    if sum(spec.contact_orders) != d:
        raise InvariantError(f"contact orders must sum to {d}")


def raw_dimension(spec: InvariantSpec) -> int:
    """Dimension of the moduli problem before homological constraints.

    Contact points only contribute their tangency excess here; the condition
    that they land on the divisor at all is charged per constraint by
    constraint_codim, with the fundamental class as the free default.

    The answer is kept on the spec, outside the dataclass fields, so a
    second call on the same instance reads it back; a spec is frozen and
    its catalog immutable.  A DefinedZero or InvariantError is never kept:
    it is raised again on every call.
    """
    out = spec.__dict__.get("_raw")
    if out is not None:
        return out
    if spec.pair is not None:
        check_contact_orders(spec)
    n, g = spec.n, spec.genus
    k, r = len(spec.absolutes), len(spec.relatives)
    excess = sum(spec.contact_orders) - r
    out = n * (1 - g) + spec.space.c1(spec.beta) + k + r + 3 * (g - 1) - excess
    object.__setattr__(spec, "_raw", out)
    return out


def constraint_codim(ins: Insertion, n: int) -> int:
    """Codimension charged by one insertion in an n-fold.

    A pulled-back class lives in the (n-1)-dimensional divisor, and its
    preimage has the codimension it has there."""
    return (n - 1 if ins.pulled_back else n) - ins.cls.grade


def expected_dimension(spec: InvariantSpec) -> int:
    """Raw dimension minus the codimension of every constraint."""
    total = raw_dimension(spec)
    n = spec.n
    for ins in spec.absolutes + spec.relatives:
        total -= constraint_codim(ins, n)
    return total


def projection_index(n: int, c1_alpha: int, contacts: int, delta: int) -> int:
    """Dimension of the projected count down in the divisor.

    For a genus-0 component at a positive level with `contacts` contact
    points whose constraint classes have total grade `delta`, this equals
    the index the strata module gives that component, less one for the
    scaling of the level; `acceptance.check_projection_identity` walks the
    identity over a grid.
    """
    return (n - 1) + c1_alpha + contacts - 3 + delta - contacts * (n - 1)

