"""Every report `relgw run` writes for the shipped scenario files is pinned,
and so is every bracket of the benchmark's bracket table.

`perfbench/reference/scenarios.tsv` lists, per file, the directives in
order and the first 16 hex digits of the sha256 of each report.  A report
that has a golden ledger in `scenarios/golden` must equal it byte for
byte; every other report must match its digest.

`perfbench/reference/brackets.tsv` lists 1,870 one-invariant brackets over
every catalog space and pair, with the digest of each `dim` report, the
`vanish` verdict and the `eval` value.  A recorded value must stay, a
recorded `unknown` may become a number, and a hand-worked value must hold.
After the three reports, the raw dimension and verdict each bracket's spec
keeps must equal those of an equal spec built anew.  The whole `vanish` and
`eval` reports of the table are pinned too, by one sha256 per command
(`BRACKET_REPORTS_SHA`); a change that moves a value records it again.
"""

import csv
import hashlib
import re
from pathlib import Path

import pytest

from relgw import cli
from relgw.dimension import DefinedZero, InvariantSpec, raw_dimension
from relgw.scenario import parse_scenario
from relgw.vanishing import decide

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = {hashlib.sha256(path.read_bytes()).hexdigest()[:16]:
          path.read_text(encoding="utf-8")
          for path in sorted((SCENARIOS / "golden").glob("*.tsv"))}
_HEAD = re.compile(r"^== (.*)$", re.M)


def reference() -> dict[str, list[tuple[str, str]]]:
    """file -> [(directive, digest)] in the order `relgw run` prints them."""
    table = {}
    path = ROOT / "perfbench" / "reference" / "scenarios.tsv"
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh, delimiter="\t"):
            table.setdefault(row["file"], []).append(
                (row["directive"], row["sha"]))
    return table


def reports(text: str) -> list[tuple[str, str]]:
    """`relgw run` output -> [(directive, report text)]."""
    heads = list(_HEAD.finditer(text))
    ends = [m.start() for m in heads[1:]] + [len(text)]
    return [(m.group(1), text[m.end() + 1:end]) for m, end in zip(heads, ends)]


REFERENCE = reference()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def bracket_rows() -> list[dict]:
    path = ROOT / "perfbench" / "reference" / "brackets.tsv"
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


BRACKETS = bracket_rows()


def bracket_text(row: dict) -> str:
    """The one-invariant scenario text of a bracket row, named `b`."""
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


def report_line(text: str, head: str) -> str:
    for line in text.splitlines():
        if line.startswith(head + " "):
            return line[len(head) + 1:]
    return ""


def test_every_shipped_file_is_pinned():
    assert sorted(REFERENCE) == sorted(p.name for p in SCENARIOS.glob("*.gw"))
    assert sum(len(rows) for rows in REFERENCE.values()) == 18


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_run_reports_match_the_reference(name):
    text = (SCENARIOS / name).read_text(encoding="utf-8")
    out, status = cli.run("run", parse_scenario(text))
    assert status == 0
    got = reports(out)
    want = REFERENCE[name]
    assert [head for head, _ in got] == [head for head, _ in want]
    for (head, body), (_, sha) in zip(got, want):
        if sha in GOLDEN:
            assert body == GOLDEN[sha], f"{name}: {head} differs from its golden ledger"
        else:
            assert hashlib.sha256(body.encode("utf-8")).hexdigest()[:16] == sha, \
                f"{name}: {head} changed"


def test_the_bracket_table_covers_the_catalog():
    assert len(BRACKETS) == 1870
    assert len({row["space"] for row in BRACKETS}) == 11
    assert len({row["pair"] for row in BRACKETS} - {"-"}) == 8
    assert sorted(row["hand"] for row in BRACKETS if row["hand"] != "-") == [
        "1", "4", "8"]


@pytest.mark.parametrize("space", sorted({row["space"] for row in BRACKETS}))
def test_bracket_reports_match_the_reference(space):
    moved = []
    for row in BRACKETS:
        if row["space"] != space:
            continue
        sc = parse_scenario(bracket_text(row))
        (dim, s1), (vanish, s2), (ev, s3) = (
            cli.run(command, sc, ("b",)) for command in ("dim", "vanish", "eval"))
        assert (s1, s2, s3) == (0, 0, 0), bracket_text(row)
        value = report_line(ev, "value")
        if digest(dim) != row["dim_sha"]:
            moved.append(("dim", row))
        if report_line(vanish, "verdict") != row["verdict"]:
            moved.append(("verdict", row))
        if row["value"] not in ("unknown", value):
            moved.append(("value", row))
        if row["hand"] != "-" and value != row["hand"]:
            moved.append(("hand", row))
    assert moved == []


# sha256 of the `vanish` and of the `eval` reports of all 1,870 brackets,
# each command's reports joined in table order, every line included
BRACKET_REPORTS_SHA = {
    "vanish": "226285bab18b775c1b315fe60b6208acca4a0162859204ddb35cfdbc0927be01",
    "eval": "d37ef3114b55b6b7d04aa2c1dc23ba8b7ea3817583869b69a5954dc4079dd762",
}


def test_bracket_vanish_and_eval_reports_are_pinned():
    """Whole reports, trace, blocker and cycle lines included, not only the
    verdict and value lines the per-space test reads; `eval` runs after
    `dim` and `vanish`, as the benchmark runs it."""
    shas = {command: hashlib.sha256() for command in BRACKET_REPORTS_SHA}
    for row in BRACKETS:
        sc = parse_scenario(bracket_text(row))
        cli.run("dim", sc, ("b",))
        for command, sha in shas.items():
            sha.update(cli.run(command, sc, ("b",))[0].encode("utf-8"))
    assert {command: sha.hexdigest() for command, sha in shas.items()} == \
        BRACKET_REPORTS_SHA


def answers(spec):
    """The raw dimension, or the text of its DefinedZero, and the verdict."""
    try:
        raw = raw_dimension(spec)
    except DefinedZero as e:
        raw = str(e)
    return raw, decide(spec)


@pytest.mark.parametrize("space", sorted({row["space"] for row in BRACKETS}))
def test_bracket_specs_keep_fresh_answers(space):
    moved = []
    for row in BRACKETS:
        if row["space"] != space:
            continue
        sc = parse_scenario(bracket_text(row))
        for command in ("dim", "vanish", "eval"):
            cli.run(command, sc, ("b",))
        spec = sc.invariants["b"]
        fresh = InvariantSpec(spec.target, spec.genus, spec.beta,
                              spec.absolutes, spec.relatives)
        if answers(spec) != answers(fresh):
            moved.append(row)
    assert moved == []
