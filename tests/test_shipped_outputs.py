"""Every report `relgw run` writes for the shipped scenario files is pinned.

`perfbench/reference/scenarios.tsv` lists, per file, the directives in
order and the first 16 hex digits of the sha256 of each report.  A report
that has a golden ledger in `scenarios/golden` must equal it byte for
byte; every other report must match its digest.
"""

import csv
import hashlib
import re
from pathlib import Path

import pytest

from relgw import cli
from relgw.scenario import parse_scenario

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
