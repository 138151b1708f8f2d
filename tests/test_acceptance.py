import shutil
from pathlib import Path

from relgw import cli
from relgw.acceptance import CHECKS, run_all

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden"


def test_run_all_passes_with_golden_ledgers():
    results = run_all(golden=str(GOLDEN))
    assert results == [(name, True, "") for name, _ in CHECKS]
    assert len(results) == 9


def test_verify_command_reports_a_drifted_golden(tmp_path, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    with open(golden / "torus_section_y.tsv", "a", encoding="utf-8") as fh:
        fh.write("# one more line\n")
    assert cli.main(["verify", "--golden", str(golden)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL decomposition-ledgers: ledger drifted from "
            "torus_section_y.tsv") in lines
    assert len([line for line in lines if line.startswith("ok   ")]) == 8
    assert lines[-1] == "passed 8/9"
