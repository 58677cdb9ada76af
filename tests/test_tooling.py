"""The suite's own configuration: a failing test must be reported as a
failure, and the warning filters must still turn petdom's and numpy's
deprecations into errors."""

import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_GIVEN = """
from hypothesis import given, strategies as st

@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""

DEPRECATED = """
import warnings

def test_warns():
    warnings.warn("old call", DeprecationWarning)
"""


def pytest_exit_code(tmp_path, source):
    """The exit code of pytest, under this repo's configuration, on one
    test file holding source."""
    (tmp_path / "test_probe.py").write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize("source", [FAILING_GIVEN, DEPRECATED], ids=["given", "deprecation"])
def test_failure_is_reported_not_internal_error(tmp_path, source):
    # a failing @given makes hypothesis import libcst, whose import warns;
    # that warning must not become an INTERNALERROR (exit 3), while any
    # other DeprecationWarning must still fail its test (not exit 0)
    code, out = pytest_exit_code(tmp_path, source)
    assert code == 1, out
    assert "1 failed" in out
