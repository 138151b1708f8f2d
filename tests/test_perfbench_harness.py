"""The benchmark harness's own self-tests pass against this tree.

`perfbench/tracer.py` wraps relgw methods on their classes (for example
`HomologyClass.__post_init__`, `__add__` and `encode`), so a change that moves
one of them off its class breaks the traced benchmark; running the harness
self-tests here makes Tier-1 fail on it as well.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
