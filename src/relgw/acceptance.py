"""End-to-end regression checks behind the `verify` command.

Every check pins exact rational values that were worked out by hand; a
failure message names the first value that moved.  run_all returns one
(name, passed, detail) row per check so the CLI can print a pass/fail
line for each.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction

from .decompose import compare_abs_rel, enumerate_terms, evaluate_decomposition
from .dimension import (Insertion, InvariantSpec, expected_dimension,
                        projection_index)
from .kbeval import (Evaluator, KnowledgeBase, Value, _grouping_sum, seed_table,
                     standard_identities)
from .lattice import cls, gen
from .spaces import builtin
from .strata import (Contact, LevelComponent, StratumType, _partitions,
                     component_index, enumerate_strata, multilevel_index,
                     stratum_flags)
from .vanishing import NEGATIVE_INTERSECTION, ZERO, decide

__all__ = ["CheckFailure", "run_all", "CHECKS"]


class CheckFailure(Exception):
    pass


def need(condition, message):
    if not condition:
        raise CheckFailure(message)


def _value(result, what):
    need(isinstance(result, Value), f"{what} did not evaluate: {result}")
    return result.value


# -- 1: frozen dimensions and stratum indices ------------------------------


def _tangency_setting():
    pair = builtin("p2_hyperplane")
    X, d = pair.ambient, pair.divisor.basis
    marks = tuple(Insertion(X.fundamental) for _ in range(3))
    conic = InvariantSpec(pair, 0, X.gen("lambda", 2), marks,
                          (Insertion(gen(d, "pt"), order=2),))
    split = InvariantSpec(pair, 0, X.gen("lambda", 2), marks,
                          (Insertion(gen(d, "fund"), order=1),
                           Insertion(gen(d, "fund"), order=1)))
    cubic = InvariantSpec(pair, 1, X.gen("lambda", 3), (),
                          (Insertion(gen(d, "fund"), order=2),
                           Insertion(gen(d, "fund"), order=1)))
    return pair, conic, split, cubic


def check_dimension_suite():
    exc = builtin("p2blow1_exc")
    lines = InvariantSpec(exc, 0, exc.ambient.gen("lambda"),
                          (Insertion(exc.ambient.point),))
    need(expected_dimension(lines) == 1,
         f"line family dimension {expected_dimension(lines)} != 1")

    pair, conic, split, cubic = _tangency_setting()
    X, d = pair.ambient, pair.divisor.basis
    need(expected_dimension(conic) == 6, "tangency count dimension != 6")
    need(expected_dimension(split) == 8, "split-contact dimension != 8")
    need(expected_dimension(cubic) == 8, "genus-one cubic dimension != 8")

    bubble_a = StratumType(pair, (
        LevelComponent(0, 0, cls=X.gen("lambda"), inf=(Contact("a", 1),)),
        LevelComponent(1, 0, alpha=gen(d, "fund"), fiber=2,
                       zero=(Contact("b", 1),),
                       inf=(Contact("c", 2, gen(d, "pt")),)),
    ), (("a", "b"),), conic.absolutes)
    bubble_b = StratumType(pair, (
        LevelComponent(0, 0, cls=X.gen("lambda"), inf=(Contact("a1", 1),)),
        LevelComponent(0, 0, cls=X.gen("lambda"), inf=(Contact("a2", 1),)),
        LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                       zero=(Contact("b1", 1), Contact("b2", 1)),
                       inf=(Contact("c", 2, gen(d, "pt")),)),
    ), (("a1", "b1"), ("a2", "b2")), conic.absolutes)
    for s, label in ((bubble_a, "one-line"), (bubble_b, "two-line")):
        need(multilevel_index(s) == 5, f"{label} tangency stratum index != 5")

    pushed = StratumType(pair, (
        LevelComponent(0, 0, cls=X.gen("lambda", 2), inf=(Contact("a", 2),)),
        LevelComponent(1, 0, alpha=cls(d, {}), fiber=2,
                       zero=(Contact("b", 2),),
                       inf=(Contact("c1", 1, gen(d, "fund")),
                            Contact("c2", 1, gen(d, "fund")))),
    ), (("a", "b"),), split.absolutes)
    need(multilevel_index(pushed) == 7, "pushed-off conic stratum index != 7")

    zero = cls(d, {})
    node_on = StratumType(pair, (
        LevelComponent(0, 0, cls=X.gen("lambda", 3),
                       inf=(Contact("a1", 1), Contact("a2", 1),
                            Contact("a3", 1))),
        LevelComponent(1, 0, alpha=zero, fiber=2,
                       zero=(Contact("b1", 1), Contact("b2", 1)),
                       inf=(Contact("c1", 2, gen(d, "fund")),)),
        LevelComponent(1, 0, alpha=zero, fiber=1,
                       zero=(Contact("b3", 1),),
                       inf=(Contact("c2", 1, gen(d, "fund")),)),
    ), (("a1", "b1"), ("a2", "b2"), ("a3", "b3")), ())
    two_levels = StratumType(pair, (
        LevelComponent(0, 0, cls=X.gen("lambda", 3),
                       inf=(Contact("a1", 2), Contact("a2", 1))),
        LevelComponent(1, 0, alpha=zero, fiber=2, zero=(Contact("b1", 2),),
                       inf=(Contact("c1", 1), Contact("c2", 1))),
        LevelComponent(1, 0, alpha=zero, fiber=1, zero=(Contact("b2", 1),),
                       inf=(Contact("c3", 1),)),
        LevelComponent(2, 0, alpha=zero, fiber=2,
                       zero=(Contact("d1", 1), Contact("d2", 1)),
                       inf=(Contact("e1", 2, gen(d, "fund")),)),
        LevelComponent(2, 0, alpha=zero, fiber=1, zero=(Contact("d3", 1),),
                       inf=(Contact("e2", 1, gen(d, "fund")),)),
    ), (("a1", "b1"), ("a2", "b2"), ("c1", "d1"), ("c2", "d2"),
        ("c3", "d3")), ())
    need(multilevel_index(node_on) == 7, "one-level torus stratum index != 7")
    need(stratum_flags(node_on) == (), "one-level torus stratum flagged")
    need(multilevel_index(two_levels) == 6,
         "two-level torus stratum index != 6")
    need(stratum_flags(two_levels) != (),
         "two-level torus stratum must carry its index flag")


# -- 2: a positive-level component's index equals its projection ---------


def check_projection_identity():
    setups = [f"{twist}_of:{pair}" for twist in ("q", "y")
              for pair in ("p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
                           "p2blow1_exc", "p4blow2_hyperplane",
                           "t2_ruled_section", "s2xs2_antidiag")]
    checked = 0
    for name in setups:
        setup = builtin(name)
        D = setup.base.divisor
        curves = D.basis.names(1)
        named = [gen(D.basis, x) for x in D.basis.names()]
        for box in itertools.product(range(-3, 4), repeat=len(curves)):
            alpha = cls(D.basis, dict(zip(curves, box)))
            c1_alpha = D.c1(alpha)
            for deg in range(0, 5):
                if alpha.is_zero and deg == 0:
                    continue
                deg0, degi = setup.end_degrees(alpha, deg)
                z_opts = [()] if deg0 < 0 else [
                    zp for zp in _partitions(deg0) if len(zp) <= 4]
                for zp in z_opts:
                    i_opts = [()] if degi < 0 else [
                        ip for ip in _partitions(degi) if len(zp + ip) <= 4]
                    for ip in i_opts:
                        flat = zp + ip
                        plans = (
                            [D.fundamental] * len(flat),
                            [named[k % len(named)] for k in range(len(flat))],
                        )
                        for plan in plans:
                            ends = [Contact(f"e{k}", m, c) for k, (m, c)
                                    in enumerate(zip(flat, plan))]
                            comp = LevelComponent(
                                1, 0, alpha=alpha, fiber=deg,
                                zero=ends[:len(zp)], inf=ends[len(zp):])
                            # less one for the scaling of the level
                            got = component_index(setup.base, setup, comp) - 1
                            delta = sum(c.grade for c in plan)
                            want = projection_index(
                                setup.total.n, c1_alpha, len(flat), delta)
                            need(got == want,
                                 f"{name} alpha={alpha.encode()} d={deg} "
                                 f"zero={zp} inf={ip}: {got} != {want}")
                            checked += 1
    need(checked > 10000, f"grid too small ({checked} cases)")


# -- 3: each extra level costs exactly one -------------------------------


def check_level_count_identity():
    _, conic, split, _ = _tangency_setting()
    total = 0
    for spec in (conic, split):
        base = expected_dimension(spec)
        for s in enumerate_strata(spec, 2):
            need(s.depth <= 2, "enumeration ignored the level bound")
            got = multilevel_index(s)
            need(got == base - s.depth,
                 f"stratum {s.depth} levels deep has index {got}, "
                 f"expected {base} - {s.depth}")
            total += 1
    need(total >= 8, f"too few strata enumerated ({total})")


# -- 4: hyperplane-family census -----------------------------------------


def check_hyperplane_vanishing():
    family = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane")
    admissible, total = [], 0
    for name in family:
        pair = builtin(name)
        X, D = pair.ambient, pair.divisor
        for d in range(1, 6):
            beta = X.gen(X.basis.names(1)[0], d)
            degree = pair.contact_count(beta)
            for part in _partitions(degree):
                for constraint in itertools.product(D.basis.names(),
                                                    repeat=len(part)):
                    rel = tuple(Insertion(gen(D.basis, nm), order=o)
                                for o, nm in zip(part, constraint))
                    spec = InvariantSpec(pair, 0, beta, (), rel)
                    total += 1
                    if expected_dimension(spec) == 0:
                        admissible.append((name, d, part, constraint))
    need(total > 2000, f"census too small ({total} brackets)")
    need(admissible == [("p1_point", 1, (1,), ("pt",))],
         f"admissible census changed: {admissible}")


# -- 5: the splitting solver and its inputs ------------------------------


def _quartic_relative():
    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    return InvariantSpec(pair, 0, X.gen("lambda", 2),
                         tuple(Insertion(c) for c in
                               (X.point, X.point, X.gen("pi"),
                                X.gen("pi"), X.gen("pi"))),
                         (Insertion(gen(D.basis, "lambda"), order=1),
                          Insertion(D.fundamental, order=1)))


def check_splitting_evaluator():
    p4 = builtin("p4")
    kb = seed_table()
    planes = InvariantSpec(p4, 0, p4.gen("lambda", 2),
                           tuple(Insertion(c) for c in
                                 (p4.point, p4.point, p4.gen("lambda"),
                                  p4.gen("pi"), p4.gen("pi"), p4.gen("pi"))))
    got = _value(Evaluator(kb).evaluate(planes), "plane-conic count")
    need(got == 4, f"plane-conic count {got} != 4")

    p3 = builtin("p3")
    conics = InvariantSpec(p3, 0, p3.gen("lambda", 2),
                           tuple(Insertion(c) for c in
                                 (p3.point, p3.point)
                                 + (p3.gen("lambda"),) * 4))
    entry = kb.get(conics.key())
    need(entry is not None
         and entry.provenance.startswith("derived(splitting"),
         "conic count was not derived through the splitting solver")

    # the two boundary groupings of the identity that pins the conic count:
    # one reads (unknown + 2), the other is the pure number 6
    si = standard_identities()[0]
    ev = Evaluator(seed_table())
    a, b, c, d = si.four
    const_a, coeff_a, miss_a = _grouping_sum(ev, si, (a, b), (c, d))
    const_b, coeff_b, miss_b = _grouping_sum(ev, si, (a, c), (b, d))
    need(not miss_a and not miss_b, "identity terms with two unknown factors")
    need(const_a == 2 and coeff_a == {conics.key(): 1},
         f"first grouping gave {const_a} + {coeff_a}")
    need(const_b == 6 and not coeff_b,
         f"second grouping gave {const_b} + {coeff_b}, expected 6")

    got = _value(Evaluator(seed_table()).evaluate(_quartic_relative()),
                 "relative conic bracket")
    need(got == 8, f"relative conic bracket {got} != 8")

    pair = builtin("p4blow2_hyperplane")
    X, D = pair.ambient, pair.divisor
    for j in ("1", "2"):
        spec = InvariantSpec(pair, 0, X.gen("eps" + j),
                             (Insertion(X.gen("sig" + j)),) * 2,
                             (Insertion(gen(D.basis, "eps" + j), order=1),))
        got = _value(Evaluator(seed_table()).evaluate(spec),
                     f"plane-line bracket {j}")
        need(got == 1, f"plane-line bracket {j} = {got} != 1")


# -- 6: the section double-cover formula ---------------------------------


def _double_cover_bracket(rho):
    y = builtin("y_of:p4blow2_hyperplane")
    D = y.base.divisor
    alpha = cls(D.basis, {"lambda": 1, "eps1": -1, "eps2": -1})
    beta = y.class_of(alpha.scale(2), 1)
    return InvariantSpec(y.infinity_pair, 0, beta, (),
                         (Insertion(rho, order=1),))


def check_ruled_section_formula():
    D = builtin("p4blow2_hyperplane").divisor
    ev = Evaluator(seed_table())

    def val(rho):
        return _value(ev.evaluate(_double_cover_bracket(rho)),
                      f"double-cover bracket at {rho.encode()}")

    need(val(gen(D.basis, "pi")) == Fraction(1, 4),
         f"plane constraint gives {val(gen(D.basis, 'pi'))} != 1/4")

    middle = D.basis.names(D.n - 1)
    single = {nm: val(gen(D.basis, nm)) for nm in middle}
    for a, b in itertools.combinations_with_replacement(middle, 2):
        combined = gen(D.basis, a) + gen(D.basis, b)
        if combined.is_zero:
            continue
        got = val(combined)
        need(got == single[a] + single[b], f"not additive at {a}+{b}: {got}")
    need(val(gen(D.basis, "pi", 3)) == 3 * single["pi"],
         "not linear under scaling")


# -- 7: splitting ledgers -------------------------------------------------


def _section_case(place="X"):
    setup = builtin("fibersum_of:t2_ruled_section")
    X = setup.total
    spec = InvariantSpec(X, 1, X.cls({"s": 1, "f": 1}),
                         (Insertion(X.point, place=place),))
    return setup, spec


def _quartic_case():
    setup = builtin("fibersum_of:p4blow2_hyperplane")
    P = setup.total
    spec = InvariantSpec(P, 0, P.cls({"lambda": 4, "eps1": -2, "eps2": -2}), (
        Insertion(P.point), Insertion(P.point),
        Insertion(P.gen("pi"), place="split"),
        Insertion(P.gen("pi"), place="split"),
        Insertion(P.gen("pi"), place="split"),
    ))
    return setup, spec


def check_decomposition_ledgers(golden=None):
    setup, spec = _section_case()
    ledger_x = evaluate_decomposition(setup, spec)
    values = sorted(r.contribution for r in ledger_x.reports)
    need(values == [1, 1] and ledger_x.total == 2,
         f"section ledger gives {values}, total {ledger_x.total}")

    setup, spec = _section_case(place="Y")
    ledger_y = evaluate_decomposition(setup, spec)
    need([r.contribution for r in ledger_y.reports] == [2]
         and ledger_y.total == 2,
         f"bundle-side ledger total {ledger_y.total} != 2")

    setup, spec = _quartic_case()
    difference, ledger_q = compare_abs_rel(setup, spec)
    need(difference == 2, f"quartic difference {difference} != 2")
    need(not ledger_q.partial, "quartic ledger is partial")
    need(ledger_q.distinguished is not None
         and ledger_q.distinguished.status == "unresolved",
         "the relative-count row should be singled out, unresolved")
    live = [r for r in ledger_q.reports
            if r.status == "ok" and r.contribution != 0]
    need(len(live) == 1 and live[0].contribution == 2,
         "expected a single contributing term worth 2")
    for r in ledger_q.reports:
        if r is live[0] or r is ledger_q.distinguished:
            continue
        need(r.status == "pruned"
             or (r.status == "ok" and r.contribution == 0),
             f"unaccounted term {r.term.encode()}")
        need(bool(r.reason), f"no reason recorded for {r.term.encode()}")

    blow = builtin("fibersum_of:p2blow1_exc")
    X = blow.total
    lines = InvariantSpec(X, 0, X.gen("lambda"),
                          (Insertion(X.point), Insertion(X.point)))
    difference, ledger_b = compare_abs_rel(blow, lines)
    need(difference == 0 and not ledger_b.partial,
         f"no-contact comparison gave {difference}")

    if golden:
        expected = {
            "quartic_difference.tsv": ledger_q,
            "torus_section_x.tsv": ledger_x,
            "torus_section_y.tsv": ledger_y,
            "blowup_line.tsv": ledger_b,
        }
        for fname, ledger in expected.items():
            path = os.path.join(golden, fname)
            try:
                with open(path, encoding="utf-8") as fh:
                    want = fh.read()
            except OSError as e:
                raise CheckFailure(f"cannot read golden file: {e}")
            need(ledger.dump() == want, f"ledger drifted from {fname}")


# -- 8: the two sides of the antidiagonal --------------------------------


def check_antidiagonal_contrast():
    pair = builtin("s2xs2_antidiag")
    X = pair.ambient
    relative = InvariantSpec(pair, 0, X.gen("a1"), (Insertion(X.point),), ())
    verdict = decide(relative)
    need(verdict.kind == ZERO and verdict.reason == NEGATIVE_INTERSECTION,
         f"relative ruling verdict {verdict.describe()}")
    absolute = InvariantSpec(X, 0, X.gen("a1"), (Insertion(X.point),), ())
    got = _value(Evaluator(seed_table()).evaluate(absolute),
                 "absolute ruling count")
    need(got == 1, f"absolute ruling count {got} != 1")


# -- 9: cross-cutting properties -----------------------------------------


def _diagonal_identity(space):
    for x_name in space.basis.names():
        x = gen(space.basis, x_name)
        for y_name in space.basis.names(space.n - x.grade):
            y = gen(space.basis, y_name)
            through = sum(space.intersect(x, gen(space.basis, b))
                          * space.intersect(space.duals[b], y)
                          for b in space.basis.names())
            need(through == space.intersect(x, y),
                 f"diagonal identity fails on {space.name}: "
                 f"{x_name} against {y_name}")


def _in_cone(c, pieces, area):
    """Is c a sum (possibly empty) of the given positive-area pieces?"""
    if c.is_zero:
        return True
    return any(area(p) <= area(c) and _in_cone(c - p, pieces, area)
               for p in pieces)


def _oracle_multisets(pieces, target, area):
    """Multisets of pieces summing exactly to target."""
    out = []

    def rec(i, rest, chosen):
        if rest.is_zero:
            out.append(tuple(chosen))
            return
        if i == len(pieces) or area(rest) <= 0:
            return
        rec(i + 1, rest, chosen)
        if area(pieces[i]) <= area(rest):
            chosen.append(pieces[i])
            rec(i, rest - pieces[i], chosen)
            chosen.pop()

    rec(0, target, [])
    return out


def _oracle_terms(setup, spec):
    """Splitting terms by plain generate-then-filter, as label signatures.

    Independent of the engine's enumeration order: candidate classes on the
    bundle side come from a coefficient box, kept iff they project into the
    effective cone of the divisor, and every graph over the candidates is
    kept iff it satisfies the stated admissibility conditions.  Sized for
    the toy cases only, whose constraints are placed on X or on Y.
    """
    X, D = setup.total, setup.left.divisor
    Y = setup.ruled.total
    xmodel, dmodel = X.effective, D.effective
    duals = D.duals
    budget = int(X.area(spec.beta))
    xpieces = xmodel.classes(budget)
    dpieces = dmodel.classes(budget)
    (fname, _), = setup.ruled.fiber.coeffs

    ycands = []
    ynames = Y.basis.names(1)
    for box in itertools.product(range(-budget, budget + 1),
                                 repeat=len(ynames)):
        c = cls(Y.basis, dict(zip(ynames, box)))
        ell = c.coeff(fname)
        if c.is_zero or ell < 1:
            continue
        alpha = setup.ruled.projection(c)
        if c != setup.ruled.class_of(alpha, ell):
            continue
        if not alpha.is_zero and D.area(alpha) > budget:
            continue
        if _in_cone(alpha, dpieces, D.area):
            ycands.append(c)

    def right_multisets(contacts, alpha_tot):
        found = []

        def rec(start, ell_left, alpha_left, chosen):
            if ell_left == 0 and alpha_left.is_zero:
                found.append(tuple(chosen))
            for k in range(start, len(ycands)):
                ell = ycands[k].coeff(fname)
                if ell > ell_left:
                    continue
                rest = alpha_left - setup.ruled.projection(ycands[k])
                if not rest.is_zero and D.area(rest) <= 0:
                    continue
                chosen.append(ycands[k])
                rec(k, ell_left - ell, rest, chosen)
                chosen.pop()

        rec(0, contacts, alpha_tot, [])
        return found

    alpha_tots = [cls(D.basis, {})]
    dcurves = D.basis.names(1)
    for box in itertools.product(range(-budget, budget + 1),
                                 repeat=len(dcurves)):
        a = cls(D.basis, dict(zip(dcurves, box)))
        if (not a.is_zero and D.area(a) <= budget
                and _in_cone(a, dpieces, D.area)):
            alpha_tots.append(a)

    signatures = set()
    for alpha_tot in alpha_tots:
        beta1 = spec.beta - setup.left.inclusion(alpha_tot)
        if not beta1.is_zero and X.area(beta1) <= 0:
            continue
        if beta1.is_zero:
            # the whole curve moves into the bundle side
            splits = [((), (setup.ruled.class_of(alpha_tot, 0),))]
        else:
            d = setup.left.contact_count(beta1)
            if d < 0:
                continue
            splits = [(parts1, parts2)
                      for parts1 in _oracle_multisets(xpieces, beta1, X.area)
                      for parts2 in right_multisets(d, alpha_tot)]
        for parts1, parts2 in splits:
            for sig in _oracle_graphs(setup, spec, duals, parts1, parts2):
                signatures.add(sig)
    return signatures


def _oracle_graphs(setup, spec, duals, parts1, parts2):
    """All admissible labelled graphs over fixed component classes."""
    D = setup.left.divisor
    xmodel, dmodel = setup.total.effective, D.effective
    (fname, _), = setup.ruled.fiber.coeffs
    p, q = len(parts1), len(parts2)
    if p + q == 0:
        return
    degrees1 = [setup.left.contact_count(c) for c in parts1]
    degrees2 = [c.coeff(fname) for c in parts2]
    if any(deg < 0 for deg in degrees1 + degrees2):
        return
    minima = [xmodel.min_genus(c) for c in parts1]
    for c in parts2:
        alpha = setup.ruled.projection(c)
        minima.append(0 if alpha.is_zero else dmodel.min_genus(alpha))

    points = list(spec.absolutes)
    sides = [i.place for i in points]
    slot_ranges = [range(p) if side == "X" else range(p, p + q)
                   for side in sides]
    for assign in itertools.product(*slot_ranges):
        ins1 = [tuple(Insertion(points[k].cls) for k in range(len(points))
                      if sides[k] == "X" and assign[k] == j)
                for j in range(p)]
        ins2 = [tuple(Insertion(setup.ruled.total.point)
                      for k in range(len(points))
                      if sides[k] == "Y" and assign[k] == p + i)
                for i in range(q)]
        per_comp = []
        for j in range(p):
            options = []
            for part in _oracle_partitions(degrees1[j]):
                for names in itertools.product(D.basis.names(),
                                               repeat=len(part)):
                    for targets in itertools.product(range(q),
                                                     repeat=len(part)):
                        options.append(tuple(zip(part, names, targets)))
            per_comp.append(options)
        for combo in itertools.product(*per_comp):
            edges = [(o, nm, j, t) for j, tails in enumerate(combo)
                     for o, nm, t in tails]
            if [sum(o for o, _, _, t in edges if t == i)
                    for i in range(q)] != degrees2:
                continue
            rank = len(edges) - (p + q) + 1
            if rank < 0 or not _oracle_connected(p, q, edges):
                continue
            genus_left = spec.genus - rank
            for genera in itertools.product(
                    *(range(m, genus_left + 1) for m in minima)):
                if sum(genera) != genus_left:
                    continue
                if not _oracle_zero_dim(setup, duals, parts1, parts2,
                                        ins1, ins2, genera, edges):
                    continue
                yield (
                    tuple(sorted((parts1[j].encode(), genera[j],
                                  tuple(sorted(i.token() for i in ins1[j])))
                                 for j in range(p))),
                    tuple(sorted((parts2[i].encode(), genera[p + i],
                                  tuple(sorted(x.token() for x in ins2[i])))
                                 for i in range(q))),
                    tuple(sorted((o, nm, parts1[j].encode(),
                                  parts2[t].encode())
                                 for o, nm, j, t in edges)),
                )


def _oracle_partitions(total):
    """Partitions of total, as weakly decreasing tuples, by brute force."""
    return [part for r in range(total + 1)
            for part in itertools.combinations_with_replacement(
                range(total, 0, -1), r)
            if sum(part) == total]


def _oracle_connected(p, q, edges):
    parent = list(range(p + q))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for _, _, j, t in edges:
        parent[find(j)] = find(p + t)
    return len({find(v) for v in range(p + q)}) <= 1


def _oracle_zero_dim(setup, duals, parts1, parts2, ins1, ins2, genera, edges):
    D = setup.left.divisor
    p = len(parts1)
    for j, c in enumerate(parts1):
        rels = tuple(Insertion(gen(D.basis, nm), order=o)
                     for o, nm, jj, _ in edges if jj == j)
        spec = InvariantSpec(setup.left, genera[j], c, ins1[j], rels)
        if expected_dimension(spec) != 0:
            return False
    for i, c in enumerate(parts2):
        rels = tuple(Insertion(duals[nm], order=o)
                     for o, nm, _, t in edges if t == i)
        spec = InvariantSpec(setup.right, genera[p + i], c, ins2[i], rels)
        if expected_dimension(spec) != 0:
            return False
    return True


def _term_signature(term):
    left = tuple(sorted((c.cls.encode(), c.genus,
                         tuple(sorted(i.token() for i in c.insertions)))
                        for c in term.gamma1))
    right = tuple(sorted((c.cls.encode(), c.genus,
                          tuple(sorted(i.token() for i in c.insertions)))
                         for c in term.gamma2))
    edges = tuple(sorted((t.order, t.cls.coeffs[0][0],
                          term.gamma1[t.left].cls.encode(),
                          term.gamma2[t.right].cls.encode())
                         for t in term.tails))
    return (left, right, edges)


def check_property_suite():
    # dual bases diagonalize the pairing on every divisor in the catalog
    for name in ("p2_hyperplane", "p3_hyperplane", "p4blow2_hyperplane",
                 "p2blow1_exc", "t2_ruled_section", "s2xs2_antidiag"):
        _diagonal_identity(builtin(name).divisor)

    # pairing against the dual is 1 and taking duals twice is the identity
    for name in ("p4blow2_hyperplane", "t2_ruled_section"):
        D = builtin(name).divisor
        for e, dual in D.duals.items():
            need(D.intersect(gen(D.basis, e), dual) == 1,
                 f"{name}: {e} does not pair to 1 with its dual")
            dname, k = dual.coeffs[0]
            need(D.duals[dname].scale(k) == gen(D.basis, e),
                 f"{name}: taking the dual twice moves {e}")

    # enumeration agrees with a plain generate-then-filter pass
    for place, want in (("X", 2), ("Y", 1)):
        setup, spec = _section_case(place)
        terms = enumerate_terms(setup, spec)
        got = {_term_signature(t) for t in terms}
        oracle = _oracle_terms(setup, spec)
        need(len(terms) == want and len(got) == want,
             f"toy census size {len(terms)} != {want}")
        need(got == oracle,
             f"enumeration disagrees with the oracle: "
             f"engine-only={got - oracle} oracle-only={oracle - got}")

    # every knowledge-base reference in a trace survives a dump/parse
    # round trip, and the enriched base reproduces the value directly
    kb = seed_table()
    spec = _quartic_relative()
    first = Evaluator(kb).evaluate(spec)
    need(isinstance(first, Value), "relative conic bracket did not evaluate")
    snapshot = KnowledgeBase()
    snapshot.load(kb.dump())
    for step in first.trace:
        if step.startswith("kb: "):
            key = step[4:].rsplit(" [", 1)[0]
            need(key in snapshot, f"trace references a lost entry: {key}")
    replay = Evaluator(snapshot).evaluate(spec)
    need(isinstance(replay, Value) and replay.value == first.value,
         "replaying through the dumped base changed the value")


CHECKS = (
    ("dimension-suite", check_dimension_suite),
    ("projection-identity", check_projection_identity),
    ("level-count-identity", check_level_count_identity),
    ("hyperplane-vanishing", check_hyperplane_vanishing),
    ("splitting-evaluator", check_splitting_evaluator),
    ("ruled-section-formula", check_ruled_section_formula),
    ("decomposition-ledgers", check_decomposition_ledgers),
    ("antidiagonal-contrast", check_antidiagonal_contrast),
    ("property-suite", check_property_suite),
)


def run_all(golden=None):
    """Run every check; returns (name, passed, detail) triples."""
    results = []
    for name, check in CHECKS:
        try:
            if name == "decomposition-ledgers":
                check(golden=golden)
            else:
                check()
            results.append((name, True, ""))
        except CheckFailure as e:
            results.append((name, False, str(e)))
        except Exception as e:  # noqa: BLE001 - a crash is a failing check
            results.append((name, False, f"{type(e).__name__}: {e}"))
    return results
