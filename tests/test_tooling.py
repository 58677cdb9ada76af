"""The suite's own configuration: a failing test must be reported as a
failure, the warning filters must still turn petdom's and numpy's
deprecations, and leaked file handles, into errors, and strict mode must
refuse unregistered markers and passing xfail tests."""

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

LEAKED_FILE = """
def test_leaks(tmp_path):
    open(tmp_path / "probe.txt", "w")
"""

UNKNOWN_MARKER = """
import pytest

@pytest.mark.unregistered
def test_marked():
    pass
"""

PASSING_XFAIL = """
import pytest

@pytest.mark.xfail(reason="expected to fail")
def test_passes():
    pass
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


def test_leaked_file_fails(tmp_path):
    # the dropped file's ResourceWarning is raised in its finalizer, where
    # pytest can only report it as an unraisable exception: both must be
    # errors, or the test passes with "1 warning"
    code, out = pytest_exit_code(tmp_path, LEAKED_FILE)
    assert code == 1, out
    assert "1 failed" in out


def test_unknown_marker_is_an_error(tmp_path):
    # a misspelt marker must stop the run, not pass with "1 warning"
    code, out = pytest_exit_code(tmp_path, UNKNOWN_MARKER)
    assert code == 2, out


def test_passing_xfail_fails(tmp_path):
    # an xfail test that passes no longer marks a known failure
    code, out = pytest_exit_code(tmp_path, PASSING_XFAIL)
    assert code == 1, out
    assert "1 failed" in out
