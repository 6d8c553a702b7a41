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
    # TMPDIR keeps the demos' scratch directories inside the test's tmp_path,
    # where none may be left behind
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.glob("analogue-*")) == []


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


def test_export_list_names_each_name_once_in_order_and_each_resolves():
    import analogue
    names = analogue.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(analogue, n)] == []
    namespace: dict = {}
    exec("from analogue import *", namespace)
    assert set(names) <= set(namespace)


# Each step runs in a fresh interpreter; sys.argv[1:] is the seed, the
# queries directory, the repository list and the output directory.
FOOTPRINT_STEPS = {
    "import analogue": "import analogue",
    "import analogue.cli": "import analogue.cli",
    "mine --jobs 1": (
        "from analogue import cli\n"
        "seed, queries, repos, out = sys.argv[1:]\n"
        "assert cli.main(['derive', seed, '--lines', '5:6',\n"
        "                 '-o', queries + '/sqli.tmpl.jsonl']) == 0\n"
        "assert cli.main(['mine', '--repos', repos, '--queries', queries,\n"
        "                 '--out', out, '--jobs', '1']) == 0\n"),
}


@pytest.mark.parametrize("step", FOOTPRINT_STEPS)
def test_only_a_spider_request_loads_the_http_client(step, tmp_path):
    """requests is imported inside spider._get alone, so importing the
    package or the CLI, or mining, never loads it."""
    seed = ROOT / "tests" / "fixtures" / "tutorial_books.php"
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "index.php").write_bytes(seed.read_bytes())
    (tmp_path / "queries").mkdir()
    (tmp_path / "repos.txt").write_text(str(repo) + "\n")
    code = "import sys\n%s\nprint('requests' in sys.modules)\n" % FOOTPRINT_STEPS[step]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(seed), str(tmp_path / "queries"),
         str(tmp_path / "repos.txt"), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    if step.startswith("mine"):
        assert len((tmp_path / "out" / "matches.jsonl").read_text().splitlines()) == 1
