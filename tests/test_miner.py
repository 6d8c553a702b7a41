from __future__ import annotations

import functools
import gc
import json
import logging
import multiprocessing
import os
import random
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analogue.astree import slice_statements
from analogue import miner, php_parser
from analogue.compiler import MatcherProgram, compile_template
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                random_snippet, render_file, render_snippet)
from analogue.miner import (MinerOptions, RepoScanResult, ScanStats,
                            SKIP_BINARY, SKIP_ERROR, SKIP_PARSE_ERROR,
                            SKIP_TOO_DEEP, SKIP_TOO_LARGE, SKIP_UNREADABLE,
                            discover_files, mine_repositories,
                            scan_repository, write_mining_outputs)
from analogue.engine import match_to_record
from analogue.php_parser import parse_source
from analogue.template import derive_template

FIXTURES = Path(__file__).parent / "fixtures"


def strict_programs():
    unit = parse_source((FIXTURES / "tutorial_books.php").read_text(),
                        path="tutorial_books.php")
    out = []
    for lines in [(5, 6), (11, 12)]:
        t = derive_template(unit, slice_statements(unit, *lines), mode="strict")
        out.append(compile_template(t))
    return out


def seed_programs(seeds):
    programs = {}
    for s in seeds:
        unit = parse_source(render_file(render_snippet(s)), path=s.name)
        t = derive_template(unit, unit.children_of(unit.nodes[unit.root]))
        programs[compile_template(t).query_id] = s.name
    compiled = []
    for s in seeds:
        unit = parse_source(render_file(render_snippet(s)), path=s.name)
        t = derive_template(unit, unit.children_of(unit.nodes[unit.root]))
        compiled.append(compile_template(t))
    return compiled, programs


def test_single_repo_with_tutorial_yields_one_match_per_query(tmp_path):
    repo = tmp_path / "tutorialrepo"
    repo.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "index.php")
    programs = strict_programs()
    results = mine_repositories([repo], programs)
    assert len(results) == 1
    r = results[0]
    assert r.files_scanned == 1 and not r.error
    per_query = {s.query_id: s.match_count for s in r.stats}
    assert per_query == {p.query_id: 1 for p in programs}
    spans = sorted((m.line_start, m.line_end) for m in r.matches)
    assert spans == [(5, 6), (11, 12)]
    assert all(m.excerpt for m in r.matches)


def test_empty_repository(tmp_path):
    repo = tmp_path / "empty"
    repo.mkdir()
    results = mine_repositories([repo], strict_programs())
    assert results[0].files_scanned == 0
    assert results[0].matches == []


def test_missing_repository_is_recorded_not_fatal(tmp_path):
    ok = tmp_path / "ok"
    ok.mkdir()
    (ok / "a.php").write_text("<?php echo 1;\n")
    results = mine_repositories([tmp_path / "nope", ok], strict_programs())
    assert results[0].error == "missing repository path"
    assert results[1].error is None
    assert results[1].files_scanned == 1


def test_skip_reasons(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    (repo / "good.php").write_text("<?php $a = $_GET['x']; sink(\"q $a\");\n")
    (repo / "broken.php").write_text("<?php $a = 'unterminated\n")
    (repo / "blob.php").write_bytes(b"<?php\x00\x01binary")
    (repo / "big.php").write_text("<?php // " + "x" * 4096 + "\n")
    (repo / "notes.txt").write_text("not a source file")
    (repo / "sub" / "inner.inc").write_text("<?php echo 2;\n")
    (repo / "locked.php").write_text("<?php echo 3;\n")

    def fake_open(path, mode):
        if path.endswith("/locked.php"):
            raise OSError("permission denied")
        return open(path, mode)

    monkeypatch.setattr(miner, "open", fake_open, raising=False)
    opts = MinerOptions(max_file_bytes=2048)
    result = scan_repository(repo, strict_programs(), opts)
    reasons = {s.path.split("/")[-1]: s.reason for s in result.files_skipped}
    assert reasons == {"broken.php": SKIP_PARSE_ERROR,
                       "blob.php": SKIP_BINARY,
                       "big.php": SKIP_TOO_LARGE,
                       "locked.php": SKIP_UNREADABLE}
    assert result.files_scanned == 2  # good.php and sub/inner.inc
    assert result.files_scanned + len(result.files_skipped) == 6


def test_front_end_is_called_through_the_module_globals(tmp_path, monkeypatch):
    """perfbench times the front end by wrapping php_parser.tokenize and
    miner.parse_source, so every parse must go through both names."""
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    (repo / "good.php").write_text("<?php $a = $_GET['x']; sink(\"q $a\");\n")
    (repo / "sub" / "inner.inc").write_text("<p>html</p><?php echo 2;\n")
    (repo / "lexbad.php").write_text("<?php $a = 'unterminated\n")
    (repo / "parsebad.php").write_text("<?php { $a = 1;\n")
    (repo / "deep.php").write_text(DEEP_FILES["parens"])
    (repo / "blob.php").write_bytes(b"<?php\x00binary")
    programs = strict_programs()
    parsed, tokenized = [], []

    def tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    def parse_source(text, path="<memory>"):
        parsed.append((path, text))
        return real_parse(text, path)

    real_tokenize, real_parse = php_parser.tokenize, miner.parse_source
    monkeypatch.setattr(php_parser, "tokenize", tokenize)
    monkeypatch.setattr(miner, "parse_source", parse_source)
    result = scan_repository(repo, programs)
    assert sorted(path for path, _ in parsed) == [
        "repo/deep.php", "repo/good.php", "repo/lexbad.php", "repo/parsebad.php",
        "repo/sub/inner.inc"]
    assert tokenized == [text for _, text in parsed]
    assert result.files_scanned == 2
    assert len(result.files_skipped) == 4


def test_parse_failure_does_not_suppress_other_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "broken.php").write_text("<?php $x = 'nope\n")
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "ok.php")
    result = scan_repository(repo, strict_programs())
    assert len(result.matches) == 2


DEEP_FILES = {
    "parens": "<?php\n$x = " + "(" * 3000 + "1" + ")" * 3000 + ";\n",
    "ifs": "<?php\n" + "if ($a) {\n" * 1500 + "echo 1;\n" + "}\n" * 1500,
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("shape", sorted(DEEP_FILES))
def test_too_deep_file_is_skipped_not_fatal(tmp_path, shape, jobs):
    rng = random.Random(13)
    seeds = distinct_snippets(rng, 2, n_statements=3)
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=3, rng_seed=2)
    programs, _ = seed_programs(seeds)
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())
    before = mine_repositories(repos, programs, jobs=jobs)
    (repos[1] / "src" / "deep.php").write_text(DEEP_FILES[shape])
    after = mine_repositories(repos, programs, jobs=jobs)
    assert [s for r in before for s in r.files_skipped] == []
    assert [(s.path, s.reason) for r in after for s in r.files_skipped] \
        == [("repo001/src/deep.php", SKIP_TOO_DEEP)]
    assert [r.error for r in after] == [None] * 3
    assert [match_to_record(m) for r in after for m in r.matches] \
        == [match_to_record(m) for r in before for m in r.matches]
    assert any(r.matches for r in after)


def walk_discover_files(repo_path: Path, opts: MinerOptions) -> list[str]:
    """discover_files as written with os.walk: the oracle for the scandir walk."""
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(repo_path, followlinks=False):
        dirnames.sort()
        for fn in sorted(filenames):
            if os.path.splitext(fn)[1].lower() not in opts.extensions:
                continue
            full = Path(dirpath) / fn
            if full.is_symlink():
                continue
            found.append(str(full.relative_to(repo_path)).replace(os.sep, "/"))
    return sorted(found)


def random_tree(rng: random.Random, root: Path) -> None:
    """Nested directories, source and other files, and links to files, to
    directories (ancestors included) and to nothing."""
    root.mkdir()
    dirs, files = [root], []
    for i in range(rng.randint(10, 60)):
        parent = rng.choice(dirs)
        stem = rng.choice(["a", "Index", "lib", ".hidden", "x.php", "v1.2"]) + str(i)
        ext = rng.choice([".php", ".PHP", ".Inc", ".inc", ".phtml", ".txt",
                          ".js", "", ".php.bak", ".php"])
        what = rng.random()
        if what < 0.25:
            (parent / stem).mkdir()
            dirs.append(parent / stem)
        elif what < 0.3:
            (parent / (stem + ".php")).mkdir()
            dirs.append(parent / (stem + ".php"))
        elif what < 0.75:
            (parent / (stem + ext)).write_text("<?php echo %d;\n" % i)
            files.append(parent / (stem + ext))
        elif what < 0.85 and files:
            (parent / (stem + ext)).symlink_to(rng.choice(files))
        elif what < 0.95:
            (parent / (stem + ext)).symlink_to(rng.choice(dirs), target_is_directory=True)
        else:
            (parent / (stem + ext)).symlink_to(parent / "missing")


class FaultyListing:
    """An os.scandir iterator that fails after its first two entries."""

    def __init__(self, entries):
        self.entries = entries
        self.left = 2

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.entries.close()

    def __iter__(self):
        return self

    def __next__(self):
        if not self.left:
            raise OSError("listing failed")
        self.left -= 1
        return next(self.entries)


@pytest.mark.parametrize("faults", [False, True])
@pytest.mark.parametrize("seed", range(25))
def test_discovery_equals_the_os_walk_oracle(tmp_path, monkeypatch, seed, faults):
    rng = random.Random(seed)
    repo = tmp_path / "repo"
    random_tree(rng, repo)
    if faults:
        # Directories that cannot be opened, or whose listing fails part-way.
        real_scandir = os.scandir

        def faulty_scandir(path):
            name = os.path.basename(path)
            if name.startswith("lib"):
                raise PermissionError("cannot list %s" % path)
            if name.startswith("Index"):
                return FaultyListing(real_scandir(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", faulty_scandir)
    for opts in (MinerOptions(), MinerOptions(extensions=(".php",))):
        assert discover_files(repo, opts) == walk_discover_files(repo, opts)
        assert discover_files(str(repo), opts) == walk_discover_files(repo, opts)


def test_symlinks_are_ignored(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "real.php").write_text("<?php echo 1;\n")
    (repo / "link.php").symlink_to(repo / "real.php")
    files = discover_files(repo, MinerOptions())
    assert files == ["real.php"]


def test_stats_are_consistent(tmp_path):
    rng = random.Random(5)
    seeds = [random_snippet(rng, name="s%d" % i) for i in range(3)]
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=6, rng_seed=1)
    programs, _ = seed_programs(seeds)
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())
    results = mine_repositories(repos, programs)
    for r in results:
        assert sum(s.match_count for s in r.stats) == len(r.matches)
        assert all(s.wall_time_s >= 0 for s in r.stats)
        assert all(s.nodes_scanned > 0 for s in r.stats)


def test_corpus_ledger_reconciliation(tmp_path):
    rng = random.Random(42)
    seeds = distinct_snippets(rng, 4, n_statements=3)
    ledger = generate_test_corpus(seeds, tmp_path / "corpus", repo_count=12,
                                  rng_seed=7)
    programs, names = seed_programs(seeds)
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())
    results = mine_repositories(repos, programs, jobs=2)
    found = {(names[m.query_id], m.unit_path)
             for r in results for m in r.matches}
    assert found == ledger.expected()
    # the surviving mutants match exactly at their planted line
    plant_line = {(p.seed, p.file): p.line_start for p in ledger.plants}
    for r in results:
        for m in r.matches:
            assert m.line_start == plant_line[(names[m.query_id], m.unit_path)]


def test_mining_is_deterministic_across_job_counts(tmp_path):
    rng = random.Random(3)
    seeds = [random_snippet(rng, name="d%d" % i) for i in range(3)]
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=8, rng_seed=11)
    programs, _ = seed_programs(seeds)
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())

    outs = []
    for jobs, out_name in [(1, "o1"), (4, "o4")]:
        results = mine_repositories(repos, programs, jobs=jobs)
        paths = write_mining_outputs(results, tmp_path / out_name)
        outs.append(paths["matches"].read_bytes())
    assert outs[0] == outs[1]


ODD_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\udc80é€😀'),
                             st.characters()), max_size=12)


@settings(max_examples=300, deadline=None)
@given(repo=ODD_TEXT, query=ODD_TEXT,
       wall=st.one_of(st.sampled_from([0.0, 4e-7, 1e-05, 1234.5]),
                      st.floats(min_value=0, max_value=1e7)),
       counts=st.lists(st.integers(0, 2 ** 63), min_size=5, max_size=5))
@example(repo='r"\\', query="q\u2028\n", wall=4e-7, counts=[0] * 5)
def test_stats_line_equals_json_dumps(repo, query, wall, counts):
    nodes, comparisons, candidates, found, units_skipped = counts
    stats = ScanStats(query_id=query, repo=repo, wall_time_s=wall,
                      nodes_scanned=nodes, node_comparisons=comparisons,
                      candidates_tried=candidates, match_count=found,
                      units_skipped=units_skipped)
    record = {"repo": repo, "query": query, "wall_time_s": round(wall, 6),
              "nodes_scanned": nodes, "node_comparisons": comparisons,
              "candidates_tried": candidates, "matches": found,
              "units_skipped": units_skipped}
    with tempfile.TemporaryDirectory() as out:
        paths = write_mining_outputs(
            [RepoScanResult(repo_id=repo, path=repo, stats=[stats])], out)
        line = paths["stats"].read_bytes()
    assert line == (json.dumps(record, sort_keys=True) + "\n").encode()


def test_mine_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        mine_repositories([tmp_path], [])
    with pytest.raises(ValueError):
        mine_repositories([tmp_path], strict_programs(), jobs=0)


def test_output_files_shape(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "index.php")
    (repo / "broken.php").write_text("<?php $x = 'nope\n")
    results = mine_repositories([repo], strict_programs())
    paths = write_mining_outputs(results, tmp_path / "out")
    match_lines = [json.loads(ln) for ln in
                   paths["matches"].read_text().splitlines()]
    assert len(match_lines) == 2
    assert all(set(r) == {"query", "file", "lines", "stmt_index", "bindings",
                          "excerpt"} for r in match_lines)
    stats_lines = [json.loads(ln) for ln in paths["stats"].read_text().splitlines()]
    assert {s["query"] for s in stats_lines} == {p.query_id for p in strict_programs()}
    skipped = [json.loads(ln) for ln in paths["skipped"].read_text().splitlines()]
    assert [s["reason"] for s in skipped] == [SKIP_PARSE_ERROR]


@pytest.fixture(scope="module")
def many_repos(tmp_path_factory):
    """41 small repositories, so no jobs value splits them into equal batches;
    every tenth holds an unparsable file."""
    root = tmp_path_factory.mktemp("many")
    rng = random.Random(17)
    seeds = distinct_snippets(rng, 3, n_statements=3)
    generate_test_corpus(seeds, root, repo_count=41, rng_seed=5, files_per_repo=2)
    repos = sorted(p for p in root.iterdir() if p.is_dir())
    for repo in repos[::10]:
        (repo / "src" / "broken.php").write_text("<?php $x = 'nope\n")
    programs, _ = seed_programs(seeds)
    return repos, programs


def mined_outputs(repos, programs, jobs, out_dir):
    """matches.jsonl and skipped.jsonl bytes, and the stats records without
    their timings."""
    paths = write_mining_outputs(mine_repositories(repos, programs, jobs=jobs),
                                 out_dir)
    stats = [json.loads(ln) for ln in paths["stats"].read_text().splitlines()]
    for s in stats:
        s.pop("wall_time_s", None)
    return (paths["matches"].read_bytes(), paths["skipped"].read_bytes(), stats)


def test_batched_mining_is_identical_across_job_counts(tmp_path, many_repos):
    repos, programs = many_repos
    outs = [mined_outputs(repos, programs, jobs, tmp_path / ("j%d" % jobs))
            for jobs in (1, 2, 3)]
    matches, skipped, stats = outs[0]
    assert matches.count(b"\n") > 20
    assert skipped.count(b"\n") == 5
    assert len(stats) == len(repos) * len(programs)
    assert outs[1] == outs[0]
    assert outs[2] == outs[0]


def test_programs_are_shipped_once_per_worker(monkeypatch, many_repos):
    repos, programs = many_repos
    repos = repos[:40]
    pickled = []
    real = MatcherProgram.__reduce_ex__

    def counting(self, protocol):
        pickled.append(self.query_id)
        return real(self, protocol)

    monkeypatch.setattr(MatcherProgram, "__reduce_ex__", counting)
    results = mine_repositories(repos, programs, jobs=2)
    assert [r.repo_id for r in results] == [p.name for p in repos]
    assert len(pickled) <= 2 * len(programs)


def test_mining_under_spawn_matches_jobs_1(tmp_path, monkeypatch, many_repos):
    repos, programs = many_repos
    expected = mined_outputs(repos, programs, 1, tmp_path / "j1")
    monkeypatch.setattr(miner, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    assert mined_outputs(repos, programs, 2, tmp_path / "spawn") == expected


def test_no_more_workers_than_repositories(monkeypatch, many_repos):
    repos, programs = many_repos
    started = []

    def recording(**kwargs):
        started.append(kwargs["max_workers"])
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(miner, "ProcessPoolExecutor", recording)
    results = mine_repositories(repos[:3], programs, jobs=8)
    assert started == [3]
    assert [r.repo_id for r in results] == [p.name for p in repos[:3]]


def fork_workers(monkeypatch):
    """Start mining workers by fork, so that patches reach them."""
    monkeypatch.setattr(miner, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_repository_is_isolated(tmp_path, monkeypatch, many_repos, jobs):
    repos, programs = many_repos
    repos = repos[:6]
    before = mine_repositories(repos, programs, jobs=jobs)
    real_scan = miner.scan_unit

    def flaky_scan(program, unit, opts=None):
        if unit.path.startswith("repo002/"):
            raise ValueError("cannot handle %s" % unit.path)
        return real_scan(program, unit, opts)

    monkeypatch.setattr(miner, "scan_unit", flaky_scan)
    fork_workers(monkeypatch)
    after = mine_repositories(repos, programs, jobs=jobs)
    assert [r.repo_id for r in after] == [p.name for p in repos]
    bad = after[2]
    assert bad.error.startswith("ValueError: cannot handle repo002/")
    assert (bad.matches, bad.stats) == ([], [])
    assert before[2].matches
    for b, a in zip(before[:2] + before[3:], after[:2] + after[3:]):
        assert a.error is None
        assert [match_to_record(m) for m in a.matches] \
            == [match_to_record(m) for m in b.matches]
    assert any(a.matches for a in after)
    paths = write_mining_outputs(after, tmp_path / "out")
    errors = [rec for rec in map(json.loads, paths["stats"].read_text().splitlines())
              if "error" in rec]
    assert errors == [{"repo": "repo002", "error": bad.error}]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_file_is_isolated(tmp_path, monkeypatch, many_repos, jobs):
    """A parser exception other than the three it is known to raise skips
    the one file, and the repository's other files keep their matches."""
    repos, programs = many_repos
    repos = repos[:6]
    before = mine_repositories(repos, programs, jobs=jobs)
    real_parse = miner.parse_source

    def flaky_parse(text, path=""):
        if path == "repo002/src/file1.php":
            raise ValueError("cannot handle %s" % path)
        return real_parse(text, path=path)

    monkeypatch.setattr(miner, "parse_source", flaky_parse)
    fork_workers(monkeypatch)
    after = mine_repositories(repos, programs, jobs=jobs)
    assert [r.error for r in after] == [None] * len(repos)
    assert [r.files_skipped for r in after[:2] + after[3:]] \
        == [r.files_skipped for r in before[:2] + before[3:]]
    assert [(s.path, s.reason, s.detail) for s in after[2].files_skipped] \
        == [("repo002/src/file1.php", SKIP_ERROR,
             "ValueError: cannot handle repo002/src/file1.php")]
    assert (before[2].files_scanned, after[2].files_scanned) == (2, 1)
    assert before[2].matches
    assert [match_to_record(m) for r in after for m in r.matches] \
        == [match_to_record(m) for r in before for m in r.matches]
    paths = write_mining_outputs(after, tmp_path / "out")
    assert {"repo": "repo002", "file": "repo002/src/file1.php", "reason": "error",
            "detail": "ValueError: cannot handle repo002/src/file1.php"} \
        in map(json.loads, paths["skipped"].read_text().splitlines())


def test_mining_makes_no_reference_cycles(tmp_path, monkeypatch):
    """The collector is paused while a repository is scanned, which is safe
    only while a scan builds no reference cycle.  With the collector off, a
    pass over matches, every skip reason, a repository whose scan raises and
    a missing one leaves nothing for gc.collect() to find."""
    good = tmp_path / "good"
    (good / "sub").mkdir(parents=True)
    shutil.copy(FIXTURES / "tutorial_books.php", good / "books.php")
    (good / "lexbad.php").write_text("<?php $a = 'unterminated\n")
    (good / "parsebad.php").write_text("<?php { $a = 1;\n")
    (good / "deep.php").write_text(DEEP_FILES["parens"])
    (good / "blob.php").write_bytes(b"<?php\x00binary")
    (good / "big.php").write_text("<?php // " + "x" * 20000 + "\n")
    (good / "locked.php").write_text("<?php echo 3;\n")
    (good / "sub" / "odd.php").write_text("<?php echo 1;\n")
    failing = tmp_path / "failing"
    failing.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", failing / "books.php")
    repos = [good, failing, tmp_path / "missing"]
    real_open, real_parse, real_scan = open, miner.parse_source, miner.scan_unit

    def fake_open(path, mode):
        if path.endswith("/locked.php"):
            raise OSError("permission denied")
        return real_open(path, mode)

    def flaky_parse(text, path=""):
        if path == "good/sub/odd.php":
            raise ValueError("cannot handle %s" % path)
        return real_parse(text, path=path)

    def flaky_scan(program, unit, opts=None):
        if unit.path.startswith("failing/"):
            raise ValueError("cannot handle %s" % unit.path)
        return real_scan(program, unit, opts)

    monkeypatch.setattr(miner, "open", fake_open, raising=False)
    monkeypatch.setattr(miner, "parse_source", flaky_parse)
    monkeypatch.setattr(miner, "scan_unit", flaky_scan)
    programs, opts = strict_programs(), MinerOptions(max_file_bytes=16384)
    mine_repositories(repos, programs, opts=opts)  # one-time caches and imports
    gc.collect()
    gc.disable()
    try:
        results = mine_repositories(repos, programs, opts=opts)
        outcome = ([len(r.matches) for r in results], [r.error for r in results],
                   sorted(s.reason for s in results[0].files_skipped))
        del results
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outcome == (
        [2, 0, 0],
        [None, "ValueError: cannot handle failing/books.php", "missing repository path"],
        sorted([SKIP_BINARY, SKIP_ERROR, SKIP_PARSE_ERROR, SKIP_PARSE_ERROR,
                SKIP_TOO_DEEP, SKIP_TOO_LARGE, SKIP_UNREADABLE]))


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("was_on", [True, False])
def test_collector_is_paused_for_each_scan_and_then_restored(tmp_path, monkeypatch,
                                                             was_on, raises):
    seen = []

    def scan(repo, programs, opts=None, repo_id=None):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("scan failed")
        return RepoScanResult(repo_id=Path(repo).name, path=str(repo))

    monkeypatch.setattr(miner, "scan_repository", scan)
    programs = strict_programs()
    (gc.enable if was_on else gc.disable)()
    try:
        results = mine_repositories([tmp_path / "a", tmp_path / "b"], programs)
        left_on = gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]
    assert left_on is was_on
    assert [r.error for r in results] == ["RuntimeError: scan failed" if raises else None] * 2


def test_workers_scan_with_the_collector_paused(monkeypatch, many_repos):
    repos, programs = many_repos

    def scan(repo, programs, opts=None, repo_id=None):
        raise RuntimeError("gc enabled: %s" % gc.isenabled())

    monkeypatch.setattr(miner, "scan_repository", scan)
    fork_workers(monkeypatch)
    results = mine_repositories(repos[:6], programs, jobs=2)
    assert [r.error for r in results] == ["RuntimeError: gc enabled: False"] * 6
    assert gc.isenabled()


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_repository_is_logged_in_input_order(tmp_path, caplog, many_repos, jobs):
    repos, programs = many_repos
    repos = repos[:5] + [tmp_path / "missing"]
    caplog.set_level(logging.INFO, logger="analogue.miner")
    results = mine_repositories(repos, programs, jobs=jobs)
    lines = [r.getMessage() for r in caplog.records if r.name == "analogue.miner"]
    assert len(lines) == len(repos)
    found = 0
    for n, (line, r) in enumerate(zip(lines, results), 1):
        found += len(r.matches)
        assert line.startswith("%d/6 %s%s: %d matches so far, " % (
            n, r.repo_id, " (error)" if r.error else "", found))
    assert [r.repo_id for r in results] == [p.name for p in repos]
    assert lines[-1].startswith("6/6 missing (error): ") and found > 0
