"""Tests of the benchmark harness itself, on tiny corpora.

Run from the repository root:  python -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import corpora
from analogue import miner

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--seconds", "0.1", "--scale", "0.02"]


def checkout(dest: Path, with_source: bool = True) -> Path:
    """A copy of what the benchmark needs, as a fresh checkout would hold it."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    root = checkout(tmp_path)
    p = run_cli(root, "--workload", workload, "--seed", "5", "--trace", str(trace), *TINY)
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = bench.load_spec(ROOT)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.startswith(name + " ") and (" %s" % unit) in line
                   for line in p.stdout.splitlines()), name
    assert "failed_repos_ratio" in p.stdout
    assert not (root / ".bench_work").exists() or not any((root / ".bench_work").iterdir())


def test_targets_name_every_per_layer_metric():
    spec = bench.load_spec(ROOT)
    targets = json.loads((ROOT / "perfbench" / "targets.json").read_text())
    assert set(targets["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(targets["unmeasured"]) == {"interchange", "spider"}


def test_same_seed_same_inputs(tmp_path):
    a = corpora.build("many-repos", 9, tmp_path / "a", scale=0.02)
    b = corpora.build("many-repos", 9, tmp_path / "b", scale=0.02)
    assert a.plants == b.plants and a.skips == b.skips and a.lines == b.lines
    for f in sorted((tmp_path / "a").rglob("*.php")):
        assert f.read_bytes() == (tmp_path / "b" / f.relative_to(tmp_path / "a")).read_bytes()


# seeds for which 20 distinct snippets of 2 to 4 statements cannot be drawn
@pytest.mark.parametrize("seed", [28, 31, 67])
def test_queries_heavy_draws_its_seeds(tmp_path, seed):
    corpus = corpora.build("queries-heavy", seed, tmp_path, scale=0.02)
    assert len(corpus.seeds) == 20 and corpus.plants


def tamper_on_call(monkeypatch, n: int, edit) -> None:
    """Make the n-th write_mining_outputs call (1-based) rewrite matches.jsonl."""
    orig = miner.write_mining_outputs
    calls = []

    def write(results, out_dir):
        paths = orig(results, out_dir)
        calls.append(1)
        if len(calls) == n:
            path = paths["matches"]
            path.write_text(edit(path.read_text()))
        return paths

    monkeypatch.setattr(miner, "write_mining_outputs", write)


@pytest.mark.parametrize("n, edit", [
    (1, lambda text: "".join(text.splitlines(True)[1:])),   # a ledger match lost
    (3, lambda text: text.replace('"excerpt": "', '"excerpt": "x', 1)),  # jobs differ
])
def test_gate_trips_on_tampered_matches(tmp_path, monkeypatch, capsys, n, edit):
    monkeypatch.setattr(bench, "ROOT", checkout(tmp_path, with_source=False))
    tamper_on_call(monkeypatch, n, edit)
    code = bench.main(["--workload", "queries-heavy", "--seed", "2", *TINY])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "CHECK FAILED" in out and "CHECK FAILED" in err


def test_digest_of_a_seed_must_repeat(tmp_path, monkeypatch, capsys):
    root = checkout(tmp_path, with_source=False)
    monkeypatch.setattr(bench, "ROOT", root)
    args = ["--workload", "parse-heavy", "--seed", "4", *TINY]
    assert bench.main(args) == 0
    digests = root / ".bench_out" / "digests.json"
    known = json.loads(digests.read_text())
    assert len(known) == 1
    assert bench.main(args) == 0
    digests.write_text(json.dumps({k: "0" * 64 for k in known}))
    capsys.readouterr()
    assert bench.main(args) == 1
    assert "digest" in capsys.readouterr().out


def test_fails_without_the_source_tree(tmp_path):
    root = checkout(tmp_path, with_source=False)
    p = run_cli(root, "--workload", "many-repos", "--seed", "1", *TINY)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
