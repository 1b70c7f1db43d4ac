"""The suite's pytest settings in pyproject.toml, run on a test file of
their own in a child pytest."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ONE_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_fails_alone(tmp_path):
    # reporting a failing @given test imports libcst, which warns that a
    # mypy_extensions class is deprecated; with every DeprecationWarning an
    # error that was an INTERNALERROR, and the run stopped at that test
    (tmp_path / "test_child.py").write_text(ONE_FAILING_PROPERTY, encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout
