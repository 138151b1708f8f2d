from pathlib import Path

import pytest

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
