"""Structural vanishing verdicts and the degeneration hypothesis.

`decide` runs a fixed sequence of cheap structural checks against an
invariant specification and reports the first that applies.  A verdict is
never a computation of the number itself; it only says "this count is zero
and here is why" or "nothing rules it out".  `check_degeneration_hypothesis`
tests the positivity condition under which the evaluator may trade a
genus-0 relative count for an absolute one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimension import DefinedZero, InvariantError, InvariantSpec, expected_dimension
from .lattice import HomologyClass
from .spaces import DivisorPair

ZERO = "zero"
ADMISSIBLE = "admissible"

NEGATIVE_INTERSECTION = "negative-intersection"
DIMENSION_MISMATCH = "dimension-mismatch"
NEGATIVE_AREA = "negative-area"
PROJECTIVE_HYPERPLANE = "projective-hyperplane"
RULED_PULLED_BACK = "ruled-pulled-back"
FIBER_MULTIPLE = "fiber-multiple"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural check.

    kind is ZERO or ADMISSIBLE; zero verdicts carry a machine-readable
    reason.
    """

    kind: str
    reason: str | None = None
    trace: tuple[str, ...] = ()

    @property
    def is_zero(self) -> bool:
        return self.kind == ZERO

    def describe(self) -> str:
        if self.kind == ZERO:
            return f"zero[{self.reason}]"
        return "admissible"


def _kept(spec: InvariantSpec, verdict: Verdict) -> Verdict:
    """Keep `verdict` on `spec` for `decide` to read back, and return it."""
    object.__setattr__(spec, "_verdict", verdict)
    return verdict


def decide(spec: InvariantSpec) -> Verdict:
    """Apply the vanishing checks in their fixed order.

    This is the only structural vanishing rule, for plain counts and for
    the components of a splitting alike.

    Order matters: negative contact degree first (the count is zero by
    definition), then the dimension gate, then negative area (no curve has
    negative energy; area 0 stays admissible, as the effective class
    a1 - a2 of S2xS2 shows), then the three geometric rules that only see
    genus-zero relative specifications.

    The verdict is kept on the spec, outside the dataclass fields, so a
    second call on the same instance reads it back; a spec is frozen and
    its catalog immutable.  An InvariantError of an ill-posed spec is never
    kept: it is raised again on every call.
    """
    out = spec.__dict__.get("_verdict")
    if out is not None:
        return out
    pair = spec.pair
    try:
        e = expected_dimension(spec)
    except DefinedZero as stop:
        return _kept(spec, Verdict(ZERO, NEGATIVE_INTERSECTION,
                                   trace=(str(stop),)))

    # a hyperplane of P^n (complement C^n) vanishes as a family, so it
    # outranks the instance-by-instance dimension gate in the report
    if (pair is not None and spec.genus == 0
            and pair.affine_complement and not spec.absolutes):
        d = pair.contact_count(spec.beta)
        n = spec.n
        if d > 0 and (n > 1 or d > 1):
            return _kept(spec, Verdict(
                ZERO, PROJECTIVE_HYPERPLANE,
                trace=(f"degree {d} curves against the hyperplane in dimension {n}",)))

    if e != 0:
        return _kept(spec, Verdict(ZERO, DIMENSION_MISMATCH,
                                   trace=(f"expected dimension {e}",)))
    area = spec.space.area(spec.beta)
    if area < 0:
        return _kept(spec, Verdict(
            ZERO, NEGATIVE_AREA,
            trace=(f"class of area {area}: no curve represents it",)))
    if pair is None or spec.genus != 0:
        return _kept(spec, Verdict(ADMISSIBLE))

    s, r = len(spec.absolutes), len(spec.relatives)

    meta = pair.ruled
    if meta is not None:
        ell = meta.fiber_degree(spec.beta)
        X = pair.ambient
        if (ell is None
                and X.intersect(spec.beta, meta.dzero_class) >= 0
                and all(a.pulled_back for a in spec.absolutes)):
            return _kept(spec, Verdict(
                ZERO, RULED_PULLED_BACK,
                trace=("every constraint is invariant under translation "
                       "along the ruling",)))
        if ell is not None and ell > 1:
            return _kept(spec, Verdict(ZERO, FIBER_MULTIPLE,
                                       trace=(f"class is {ell} times the fiber",)))
        if ell == 1 and s > 0 and s + r > 3:
            return _kept(spec, Verdict(
                ZERO, FIBER_MULTIPLE,
                trace=(f"fiber class with {s} absolute and {r} relative "
                       "insertions",)))

    return _kept(spec, Verdict(ADMISSIBLE))


def check_degeneration_hypothesis(
        pair: DivisorPair,
        beta: HomologyClass) -> tuple[bool, HomologyClass | None]:
    """Test the positivity hypothesis behind the absolute-relative identity.

    The identity fails when some effective curve class alpha inside the
    divisor meets it to order -k with k >= 2, has small enough first Chern
    number, and leaves an effective remainder beta - i(alpha) in the ambient
    space.  Returns (True, None) when no such class exists, otherwise
    (False, witness).

    Candidates are enumerated by their area inside the divisor, in
    (area, encode()) order; the budget is wide enough to cover every
    catalog geometry, including ones where the inclusion collapses area.
    Only the branches of the divisor's cone on which the normal degree can
    reach -2 are enumerated (`DivisorPair._negative`), so the first witness
    is the one the whole cone gives; with no such branch the answer is
    (True, None) and no class is built.
    """
    X, D = pair.ambient, pair.divisor
    xmodel = X.effective
    if xmodel is None or D.effective is None:
        raise InvariantError(
            f"pair {pair.name} has no effective-class model on both sides")
    negative = pair._negative
    if negative is None:
        return True, None
    n = X.n
    for alpha in negative.classes(2 * int(X.area(beta)) + 2):
        k = -pair.normal_degree(alpha)
        if k < 2:
            continue
        image = pair.inclusion(alpha)
        remainder = beta - image
        if remainder.is_zero or not xmodel.is_effective(remainder):
            continue
        bound = (n - 3) * (k - 2) if n >= 3 else 0
        if X.c1(image) <= bound:
            return False, alpha
    return True, None
