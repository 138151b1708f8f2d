"""The three benchmark workloads: inputs from a seed, one op, its check.

Inputs are made from the seed and the reference tables in `reference/`
only; the program sees nothing but the generated inputs.  Every op goes
through relgw's public entry points by module attribute (`cli.run`,
`scenario.parse_scenario`, `strata.enumerate_strata`), so a traced run sees
the same calls as an untraced one.
"""

from __future__ import annotations

import csv
import hashlib
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

# (d, g, k) shapes left out of the strata draw: each costs 3-15 s, which
# would make one pass a minute long.  torus_cubics is the one kept.
HEAVY_STRATA = {(3, 1, 2)}
STRATA_PAIRS = ("p2_hyperplane", "p3_hyperplane")

DEGREE_ZERO_GAP = "ScenarioError: expected a class term"


class Relgw:
    """The program's modules, imported from the checkout's `src/`."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "relgw").is_dir():
            raise RuntimeError(f"no relgw package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import relgw.cli
        import relgw.dimension
        import relgw.kbeval
        import relgw.scenario
        import relgw.spaces
        import relgw.strata
        self.cli = relgw.cli
        self.dimension = relgw.dimension
        self.kbeval = relgw.kbeval
        self.scenario = relgw.scenario
        self.spaces = relgw.spaces
        self.strata = relgw.strata

    def setup(self, entries) -> None:
        for name in entries:
            self.spaces.builtin(name)
        self.kbeval.seed_table()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def read_tsv(name: str) -> list[dict]:
    with open(REFERENCE / name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def failure_reason(exc: BaseException) -> str:
    message = getattr(exc, "message", None) or str(exc)
    return f"{type(exc).__name__}: {message}"


# ---------------------------------------------------------------------------
# scenario_files


SCENARIO_FILES = ("blowup_line.gw", "conic_tangent.gw", "quartic_difference.gw",
                  "torus_section.gw", "vanishing_checks.gw")
GOLDEN = {
    ("quartic_difference.gw", "decompose p4blow2_hyperplane main"):
        "quartic_difference.tsv",
    ("blowup_line.gw", "decompose p2blow1_exc lines"): "blowup_line.tsv",
    ("torus_section.gw", "decompose t2_ruled_section through_point"):
        "torus_section_x.tsv",
    ("torus_section.gw", "decompose t2_ruled_section point_on_bundle"):
        "torus_section_y.tsv",
}
_CHUNK = re.compile(r"^== (.*)$", re.M)


def split_chunks(text: str) -> list[tuple[str, str]]:
    """`relgw run` output -> [(directive, report text)]."""
    heads = list(_CHUNK.finditer(text))
    out = []
    for i, m in enumerate(heads):
        end = heads[i + 1].start() if i + 1 < len(heads) else len(text)
        out.append((m.group(1), text[m.end() + 1:end]))
    return out


class ScenarioFiles:
    """The shipped scenario files through `relgw run`; one op is one file."""

    name = "scenario_files"
    setup_entries = (
        "p2", "p2_hyperplane", "p3", "p3_hyperplane", "p2blow1", "p2blow1_exc",
        "p4blow2", "p4blow2_hyperplane", "t2_ruled", "t2_ruled_section",
        "s2xs2", "s2xs2_antidiag", "fibersum_of:p2blow1_exc",
        "fibersum_of:p4blow2_hyperplane", "fibersum_of:t2_ruled_section")

    def __init__(self, seed: int):
        names = list(SCENARIO_FILES)
        random.Random(seed).shuffle(names)
        self.ops = [(n, (ROOT / "scenarios" / n).read_text(encoding="utf-8"))
                    for n in names]
        self.reference: dict[str, list[tuple[str, str]]] = {}
        for row in read_tsv("scenarios.tsv"):
            self.reference.setdefault(row["file"], []).append(
                (row["directive"], row["sha"]))
        self.golden = {key: (ROOT / "scenarios" / "golden" / fname).read_text(
            encoding="utf-8") for key, fname in GOLDEN.items()}

    def prepare(self, rg: Relgw) -> None:
        pass

    def run(self, rg: Relgw, op):
        return rg.cli.run("run", rg.scenario.parse_scenario(op[1]))

    def check(self, rg: Relgw, op, out) -> str | None:
        fname = op[0]
        text, status = out
        if status != 0:
            return f"exit status {status}"
        chunks = split_chunks(text)
        want = self.reference[fname]
        if [head for head, _ in chunks] != [head for head, _ in want]:
            return "directive list changed"
        for (head, body), (_, sha) in zip(chunks, want):
            golden = self.golden.get((fname, head))
            if golden is not None:
                if body != golden:
                    return f"ledger differs from golden for {head}"
            elif digest(body) != sha:
                return f"report changed for {head}"
        return None

    def degree_zero(self, op) -> bool:
        return False


# ---------------------------------------------------------------------------
# bracket_mix


def bracket_text(row: dict) -> str:
    """A one-invariant scenario file for a bracket row."""
    lines = [f"[space {row['space']}]"]
    if row["pair"] != "-":
        lines.append(f"[divisor {row['pair']} in {row['space']}]")
    lines += ["[invariant b]",
              f"pair = {row['pair']}" if row["pair"] != "-"
              else f"space = {row['space']}",
              f"genus = {row['genus']}",
              f"class = {row['class']}"]
    if row["abs"] != "-":
        lines.append(f"abs = {row['abs']}")
    if row["rel"] != "-":
        lines.append(f"rel = {row['rel']}")
    return "\n".join(lines) + "\n"


def eval_check(recorded: str, got: str) -> str | None:
    """A recorded value must stay; a recorded `unknown` may become known."""
    if recorded == "unknown" or recorded == got:
        return None
    return f"eval value {recorded} became {got}"


def report_line(text: str, head: str) -> str:
    for line in text.splitlines():
        if line.startswith(head + " "):
            return line[len(head) + 1:]
    return ""


class BracketMix:
    """A seeded stream of dim/vanish/eval brackets over the whole catalog.

    The stream is every row of the recorded bracket table, the hand-worked
    brackets first and the rest in seeded order.  Bracket costs are heavy
    tailed (solver and blowup-cone rows take 10-60 ms, most take under 2),
    so a seeded subset would move the pass time by several percent from
    seed to seed; with the whole table every seed does the same work.
    """

    name = "bracket_mix"
    setup_entries = (
        "p1", "p2", "p3", "p4", "p2blow1", "p3blow2", "p4blow2", "t2_ruled",
        "t2_base", "s2xs2", "antidiag_sphere", "p1_point", "p2_hyperplane",
        "p3_hyperplane", "p4_hyperplane", "p2blow1_exc", "p4blow2_hyperplane",
        "t2_ruled_section", "s2xs2_antidiag")

    def __init__(self, seed: int):
        self.rows = read_tsv("brackets.tsv")
        hand = [i for i, r in enumerate(self.rows) if r["hand"] != "-"]
        rest = [i for i, r in enumerate(self.rows) if r["hand"] == "-"]
        random.Random(seed).shuffle(rest)
        self.ops = [(i, bracket_text(self.rows[i])) for i in hand + rest]

    def prepare(self, rg: Relgw) -> None:
        pass

    def run(self, rg: Relgw, op):
        sc = rg.scenario.parse_scenario(op[1])
        run = rg.cli.run
        return (run("dim", sc, ("b",)), run("vanish", sc, ("b",)),
                run("eval", sc, ("b",)))

    def check(self, rg: Relgw, op, out) -> str | None:
        row = self.rows[op[0]]
        (dim, s1), (vanish, s2), (ev, s3) = out
        if (s1, s2, s3) != (0, 0, 0):
            return f"exit status {(s1, s2, s3)}"
        if digest(dim) != row["dim_sha"]:
            return "dim report changed"
        if report_line(vanish, "verdict") != row["verdict"]:
            return (f"verdict {row['verdict']} became "
                    f"{report_line(vanish, 'verdict')}")
        got = report_line(ev, "value")
        if row["hand"] != "-" and got != row["hand"]:
            return f"hand-worked value {row['hand']} became {got}"
        return eval_check(row["value"], got)

    def degree_zero(self, op) -> bool:
        return self.rows[op[0]]["class"] == "0"


# ---------------------------------------------------------------------------
# strata_census


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def strata_text(pair: str, degree: int, genus: int, orders) -> str:
    rel = ", ".join(f"({o},fund)" for o in orders)
    return (f"[space {pair[:2]}]\n[divisor {pair} in {pair[:2]}]\n"
            f"[invariant c]\npair = {pair}\ngenus = {genus}\n"
            f"class = {degree}*lambda\nrel = {rel}\n")


def strata_shapes():
    """(degree, genus, contact orders, depth) over degree 1-3, genus 0-1."""
    for d in (1, 2, 3):
        for g in (0, 1):
            for orders in partitions(d):
                for k in (1, 2):
                    yield d, g, orders, k


def strata_case_id(pair, d, g, orders, k) -> str:
    return f"{pair}/d{d}/g{g}/{'+'.join(map(str, orders))}/k{k}"


class StrataCensus:
    """Seeded relative counts on the hyperplane pairs through enumerate_strata.

    For each light (degree, genus, contacts, depth) shape the seed picks the
    pair, P2 or P3, whose costs are alike; torus_cubics from
    conic_tangent.gw at depth 2 is always in.  The seed also sets the order.
    """

    name = "strata_census"
    setup_entries = ("p2", "p3", "p2_hyperplane", "p3_hyperplane",
                     "q_of:p2_hyperplane", "q_of:p3_hyperplane")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.reference = {r["case"]: r for r in read_tsv("strata.tsv")}
        cases = []
        for d, g, orders, k in strata_shapes():
            if (d, g, k) in HEAVY_STRATA:
                continue
            pair = rng.choice(STRATA_PAIRS)
            cases.append((strata_case_id(pair, d, g, orders, k),
                          strata_text(pair, d, g, orders), "c", k))
        torus = (ROOT / "scenarios" / "conic_tangent.gw").read_text(
            encoding="utf-8")
        cases.append((strata_case_id("p2_hyperplane", 3, 1, (2, 1), 2),
                      torus, "torus_cubics", 2))
        rng.shuffle(cases)
        self.cases = cases
        self.ops: list = []

    def prepare(self, rg: Relgw) -> None:
        """Parse the counts before timing: the op is the enumeration."""
        self.ops = [(case, rg.scenario.parse_scenario(text).invariants[name], k)
                    for case, text, name, k in self.cases]

    def run(self, rg: Relgw, op):
        return rg.strata.enumerate_strata(op[1], op[2])

    def check(self, rg: Relgw, op, out) -> str | None:
        case, spec, _ = op
        ref = self.reference[case]
        keys = [rg.strata.stratum_key(s) for s in out]
        if len(keys) != int(ref["count"]) or digest("\n".join(keys)) != ref["sha"]:
            return f"stratum list changed ({len(keys)} vs {ref['count']})"
        if spec.genus == 0:
            want = rg.dimension.expected_dimension(spec)
            for s in out:
                if rg.strata.multilevel_index(s) != want - s.depth:
                    return f"index of {rg.strata.stratum_key(s)} is off"
        return None

    def degree_zero(self, op) -> bool:
        return False


WORKLOADS = {w.name: w for w in (ScenarioFiles, BracketMix, StrataCensus)}
