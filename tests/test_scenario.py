import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relgw import cli
from relgw.scenario import ScenarioError, parse_scenario, serialize

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ZERO_CLASS = """\
[space p3]
[invariant triple]
space = p3
genus = 0
class = 0
abs = pi, pi, pi
"""

STRATUM = """\
[space p2]
[divisor p2_hyperplane in p2]
[stratum s]
pair = p2_hyperplane
comp {}
"""


# -- parse . serialize is the identity -----------------------------------


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.gw")),
                         ids=lambda p: p.name)
def test_shipped_scenarios_round_trip(path):
    sc = parse_scenario(path.read_text(encoding="utf-8"))
    assert parse_scenario(serialize(sc)) == sc


def test_zero_class_round_trip():
    sc = parse_scenario(ZERO_CLASS)
    assert sc.invariants["triple"].beta.is_zero
    assert parse_scenario(serialize(sc)) == sc


# -- any text parses or fails with a ScenarioError -----------------------

SHIPPED = [p.read_text(encoding="utf-8").splitlines()
           for p in sorted(SCENARIOS.glob("*.gw"))]
TOKENS = sorted({tok for lines in SHIPPED for line in lines
                 for tok in re.split(r"(\W)", line) if tok})


@st.composite
def edited_scenarios(draw):
    """A shipped file with a few lines dropped, copied or spliced."""
    lines = list(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "copy", "splice")))
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            k = draw(st.integers(j, len(line)))
            piece = draw(st.sampled_from(TOKENS) | st.text(max_size=4))
            lines[i] = line[:j] + piece + line[k:]
    return "\n".join(lines)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(edited_scenarios() | st.text(max_size=80))
def test_any_text_parses_or_raises_scenario_error(text):
    try:
        sc = parse_scenario(text)
    except ScenarioError:
        return
    once = serialize(sc)
    assert serialize(parse_scenario(once)) == once


# -- malformed component lines fail at a position ------------------------


@pytest.mark.parametrize("before, after", [
    ("level=0 genus=", "x class=lambda inf=1:a"),
    ("level=0 genus=", "\u00b2 class=lambda inf=1:a"),
    ("level=1 genus=0 alpha=fund fiber=", "z zero=1:b inf=1:c"),
    ("level=", "x class=lambda inf=1:a"),
    ("level=0 genus=0 class=lambda inf=", "0:a"),
    ("level=0 ", "genis=1 class=lambda inf=1:a"),
    ("level=0 genus=0 class=lambda inf=1:a:", "0"),
], ids=["genus", "genus-superscript", "fiber", "level", "zero-mult",
        "unknown-key", "zero-constraint"])
def test_malformed_component_is_positioned(before, after):
    """The error points at the first character of `after`."""
    with pytest.raises(ScenarioError) as info:
        parse_scenario(STRATUM.format(before + after))
    assert (info.value.line, info.value.col) == (5, len("comp " + before) + 1)


# -- exit statuses of the command line -----------------------------------


def status(*argv):
    return cli.main([str(a) for a in argv])


def test_exit_zero_on_success(capsys):
    assert status("run", SCENARIOS / "vanishing_checks.gw") == 0
    assert "verdict" in capsys.readouterr().out


def test_exit_one_on_failed_check(capsys):
    assert status("index", SCENARIOS / "conic_tangent.gw",
                  "--max-levels", "0") == 1
    assert "exceeds --max-levels 0" in capsys.readouterr().out


def test_exit_two_on_unknown_name(capsys):
    assert status("dim", SCENARIOS / "conic_tangent.gw", "nosuch") == 2
    assert "unknown invariant 'nosuch'" in capsys.readouterr().err


def test_exit_two_on_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.gw"
    path.write_text(STRATUM.format("level=0 genus=x class=lambda inf=1:a"),
                    encoding="utf-8")
    assert status("index", path) == 2
    assert "line 5, col 20" in capsys.readouterr().err
    path.write_bytes(b"\xff")
    assert status("dim", path, "x") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "decode" in err


@pytest.mark.parametrize("line", [
    "only-two\tfields",
    "key\tnot-a-number\tprov",
    "pair:t2_ruled_section;g=0;b=f;abs=;rel=(1,pt)\t2/1\tconflict",
], ids=["two-fields", "bad-value", "conflicts-with-seed"])
def test_exit_two_on_malformed_kb(tmp_path, capsys, line):
    path = tmp_path / "extra.kb"
    path.write_text(line + "\n", encoding="utf-8")
    assert status("eval", SCENARIOS / "vanishing_checks.gw",
                  "ruling_absolute", "--kb", path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kb file ")
    assert "Traceback" not in err
