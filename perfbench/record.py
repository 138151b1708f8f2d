"""Record the reference tables the benchmark checks outputs against.

    python3 perfbench/record.py

Run it at the commit whose outputs define "correct"; it rewrites
`reference/brackets.tsv`, `reference/strata.tsv` and
`reference/scenarios.tsv`.  The bracket table is also the universe the
bracket_mix stream draws from: every row is a count with expected
dimension 0 over a catalog space or divisor pair.  Degree-zero rows cannot
go through the scenario parser (it rejects `class = 0`), so their reference
comes from the same commands run on a scenario built in code.
"""

from __future__ import annotations

import csv
import itertools
import sys
import time

from workloads import (GOLDEN, HEAVY_STRATA, REFERENCE, ROOT, SCENARIO_FILES,
                       STRATA_PAIRS, Relgw, bracket_text, digest, partitions,
                       report_line, split_chunks, strata_case_id,
                       strata_shapes, strata_text)

SPACES = ("p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2", "t2_ruled",
          "t2_base", "s2xs2", "antidiag_sphere")
PAIRS = ("p1_point", "p2_hyperplane", "p3_hyperplane", "p4_hyperplane",
         "p2blow1_exc", "p4blow2_hyperplane", "t2_ruled_section",
         "s2xs2_antidiag")
CLASSES_PER_TARGET = 5     # smallest-area effective classes, plus zero
MAX_ABSOLUTES = 6
ROWS_PER_TARGET = 160      # evenly spaced pick from each target's brackets

# Hand-worked values every stream opens with.
HAND = (
    # conics in P3 through two points and four lines
    dict(space="p3", pair="-", genus="0", **{"class": "2*lambda"},
         abs="pt, pt, lambda, lambda, lambda, lambda", rel="-", hand="4"),
    # the relative conic bracket on the two-point blowup of P4
    dict(space="p4blow2", pair="p4blow2_hyperplane", genus="0",
         **{"class": "2*lambda"}, abs="pt, pt, pi, pi, pi",
         rel="(1,lambda), (1,fund)", hand="8"),
    # one ruling of S2xS2 through a point
    dict(space="s2xs2", pair="-", genus="0", **{"class": "a1"}, abs="pt",
         rel="-", hand="1"),
)

COLUMNS = ("space", "pair", "genus", "class", "abs", "rel", "hand",
           "dim_sha", "verdict", "value")


def _candidates(rg, target_name):
    from relgw.dimension import (DefinedZero, Insertion, InvariantError,
                                 InvariantSpec, expected_dimension)
    target = rg.spaces.builtin(target_name)
    pair = target if target_name in PAIRS else None
    space = target.ambient if pair else target
    names = [e for e, g in space.basis.elements if g < space.n]
    betas = [space.zero()]
    if space.effective is not None:
        betas += space.effective.classes(8)[:CLASSES_PER_TARGET]
    for beta in betas:
        rels = [()]
        if pair is not None:
            d = pair.contact_count(beta)
            if d < 0:
                continue
            dnames = [e for e, _ in pair.divisor.basis.elements]
            rels = sorted({tuple(sorted(zip(p, cs)))
                           for p in partitions(d)
                           for cs in itertools.product(dnames, repeat=len(p))})
        # genus-one constant maps pass the dimension test with any number
        # of point-like insertions; they would crowd out the genus-zero
        # degree-zero brackets without reaching different code
        for genus in ((0,) if beta.is_zero else (0, 1)):
            for rel in rels:
                for k in range(MAX_ABSOLUTES + 1):
                    for ab in itertools.combinations_with_replacement(names, k):
                        try:
                            spec = InvariantSpec(
                                target, genus, beta,
                                tuple(Insertion(space.gen(a)) for a in ab),
                                tuple(Insertion(pair.divisor.gen(c), order=o)
                                      for o, c in rel))
                            if expected_dimension(spec) != 0:
                                continue
                        except (DefinedZero, InvariantError):
                            continue
                        yield spec, dict(
                            space=space.name,
                            pair=pair.name if pair else "-",
                            genus=str(genus),
                            **{"class": beta.encode()},
                            abs=", ".join(ab) or "-",
                            rel=", ".join(f"({o},{c})" for o, c in rel) or "-",
                            hand="-")


def _outputs(rg, row, spec=None):
    if spec is None:
        sc = rg.scenario.parse_scenario(bracket_text(row))
    else:
        sc = rg.scenario.Scenario(invariants={"b": spec})
    dim, _ = rg.cli.run("dim", sc, ("b",))
    vanish, _ = rg.cli.run("vanish", sc, ("b",))
    ev, _ = rg.cli.run("eval", sc, ("b",))
    return dict(row, dim_sha=digest(dim),
                verdict=report_line(vanish, "verdict"),
                value=report_line(ev, "value"))


def record_brackets(rg) -> list[dict]:
    rows = []
    for target in SPACES + PAIRS:
        found = list(_candidates(rg, target))
        step = max(1, len(found) / ROWS_PER_TARGET)
        picked = [found[int(i * step)]
                  for i in range(min(len(found), ROWS_PER_TARGET))]
        for spec, row in picked:
            if row["class"] == "0":
                rows.append(_outputs(rg, row, spec))
                continue
            parsed = rg.scenario.parse_scenario(bracket_text(row))
            if parsed.invariants["b"].key() != spec.key():
                raise SystemExit(f"bracket text does not round-trip: {row}")
            rows.append(_outputs(rg, row))
    for row in HAND:
        out = _outputs(rg, row)
        if out["value"] != row["hand"]:
            raise SystemExit(f"hand-worked value {row['hand']} is "
                             f"{out['value']} here: {row}")
        rows.append(out)
    return rows


def record_strata(rg) -> list[dict]:
    rows = []
    cases = [(p, d, g, o, k) for d, g, o, k in strata_shapes()
             for p in STRATA_PAIRS if (d, g, k) not in HEAVY_STRATA]
    cases.append(("p2_hyperplane", 3, 1, (2, 1), 2))
    for pair, d, g, orders, k in cases:
        spec = rg.scenario.parse_scenario(
            strata_text(pair, d, g, orders)).invariants["c"]
        found = rg.strata.enumerate_strata(spec, k)
        keys = [rg.strata.stratum_key(s) for s in found]
        if g == 0:
            e = rg.dimension.expected_dimension(spec)
            bad = [s for s in found if rg.strata.multilevel_index(s) != e - s.depth]
            if bad:
                raise SystemExit(f"index check fails at the reference: {pair}")
        rows.append(dict(case=strata_case_id(pair, d, g, orders, k),
                         count=str(len(keys)), sha=digest("\n".join(keys))))
    return rows


def record_scenarios(rg) -> list[dict]:
    rows = []
    for fname in SCENARIO_FILES:
        text = (ROOT / "scenarios" / fname).read_text(encoding="utf-8")
        out, status = rg.cli.run("run", rg.scenario.parse_scenario(text))
        if status != 0:
            raise SystemExit(f"{fname}: exit status {status}")
        for head, body in split_chunks(out):
            golden = GOLDEN.get((fname, head))
            if golden is not None:
                want = (ROOT / "scenarios" / "golden" / golden).read_text(
                    encoding="utf-8")
                if body != want:
                    raise SystemExit(f"{fname}: {head} differs from {golden}")
            rows.append(dict(file=fname, directive=head, sha=digest(body)))
    return rows


def write(name, columns, rows) -> None:
    with open(REFERENCE / name, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, columns, delimiter="\t", lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def main() -> int:
    rg = Relgw()
    t = time.perf_counter()
    brackets = record_brackets(rg)
    write("brackets.tsv", COLUMNS, brackets)
    print(f"brackets: {len(brackets)} rows, {time.perf_counter() - t:.1f} s",
          file=sys.stderr)
    t = time.perf_counter()
    strata = record_strata(rg)
    write("strata.tsv", ("case", "count", "sha"), strata)
    print(f"strata: {len(strata)} rows, {time.perf_counter() - t:.1f} s",
          file=sys.stderr)
    write("scenarios.tsv", ("file", "directive", "sha"), record_scenarios(rg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
