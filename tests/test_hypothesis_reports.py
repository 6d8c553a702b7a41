"""A failing Hypothesis property is reported under the project's pytest
settings, and the tests after it still run."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None)
@given(st.integers())
def test_small(n):
    assert n < 10

def test_after():
    pass
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_toy.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_toy.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_small(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
