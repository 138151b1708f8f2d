"""A failing `hypothesis` test fails as a test under the repository's
pytest settings.

`pyproject.toml` turns every warning into an error.  When a `given` test
fails, the hypothesis plugin's report hook imports a deprecated
`mypy_extensions.TypedDict`; as an error, that warning ends the run in
INTERNALERROR with no falsifying example, so the settings ignore it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

FAILING = '''\
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_small(n):
    assert n < 5
'''


def test_a_failing_given_test_shows_its_example(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out, out
    assert "Falsifying example: test_small(" in out, out
