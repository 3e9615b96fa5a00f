"""The suite's own configuration: a failing test must be reported, not stop the run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n != n
'''


def test_a_failing_hypothesis_test_is_reported_normally(tmp_path):
    """Reporting a failing example imports ``libcst``, whose import warns a
    ``DeprecationWarning``; under the suite's ``error::DeprecationWarning``
    that ended the whole session with an ``INTERNALERROR``."""
    (tmp_path / "test_child.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output and "Falsifying example" in output
