from pathlib import Path

from relgw.acceptance import CHECKS, run_all

GOLDEN = Path(__file__).resolve().parent.parent / "scenarios" / "golden"


def test_run_all_passes_with_golden_ledgers():
    results = run_all(golden=str(GOLDEN))
    assert results == [(name, True, "") for name, _ in CHECKS]
    assert len(results) == 9
