"""Every script in demos/ runs to completion against the library in src/."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    # TMPDIR keeps the demos' scratch directories inside the test's tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_package_import_loads_no_test_support():
    """oracle, corpusgen and mock_api are imported by name, never by
    `import analogue`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, analogue; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('analogue.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "analogue.miner" in loaded
    assert not loaded & {"analogue.oracle", "analogue.corpusgen", "analogue.mock_api"}
