from __future__ import annotations

import dataclasses
import functools
import gc
import json
import logging
import multiprocessing
import os
import pickle
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genutil import HOST_CONTEXTS, move_into_context
from analogue.astree import SourceUnit, slice_statements
from analogue import astree, miner, php_parser
from analogue.compiler import MatcherProgram, compile_template
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                random_snippet, render_file, render_snippet,
                                scaled_file)
from analogue.miner import (EXTENSIONS, MinerOptions, RepoScanResult, ScanStats,
                            SkippedFile, SKIP_BINARY, SKIP_ERROR, SKIP_PARSE_ERROR,
                            SKIP_TOO_DEEP, SKIP_TOO_LARGE, SKIP_UNREADABLE,
                            discover_files, mine_repositories,
                            scan_repository, write_mining_outputs)
from analogue.engine import Match, ScanOptions, match_to_record
from analogue.php_parser import parse_source
from analogue.template import derive_template

FIXTURES = Path(__file__).parent / "fixtures"


def strict_programs():
    unit = parse_source((FIXTURES / "tutorial_books.php").read_text(),
                        path="tutorial_books.php")
    out = []
    for lines in [(5, 6), (11, 12)]:
        t = derive_template(unit, slice_statements(unit, *lines))
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


def test_a_seed_finds_a_plant_whose_hole_holds_double_quotes(tmp_path):
    """A '"' inside a {$...} hole does not end the string, so the plant is an
    assignment like the seed's, not an opaque statement."""
    seed = parse_source("<?php\n$q = \"SELECT * FROM users WHERE id = {$_GET['id']}\";\n"
                        "mysql_query($q);\n")
    program = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root])))
    repo = tmp_path / "repo"
    repo.mkdir()
    plant = ('<?php\necho "hi";\n'
             '$sql = "SELECT name FROM accounts WHERE uid = {$_GET["uid"]}";\n'
             "mysql_query($sql);\n")
    (repo / "a.php").write_text(plant)
    result = mine_repositories([repo], [program])[0]
    assert [(m.line_start, m.line_end) for m in result.matches] == [(3, 4)]
    unit = parse_source(plant)
    assign = unit.children_of(unit.nodes[unit.root])[1]
    encapsed = unit.children_of(assign)[1]
    dim = unit.children_of(encapsed)[1]
    assert (assign.kind, encapsed.kind, dim.kind) == \
        (astree.ASSIGN, astree.ENCAPSED, astree.ARRAY_DIM)
    assert [(n.kind, n.symbol, n.value) for n in unit.children_of(dim)] == \
        [(astree.VAR, "$_GET", None), (astree.LITERAL, None, "uid")]


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


def test_each_file_is_scanned_by_every_program_before_the_next_is_parsed(
        tmp_path, monkeypatch):
    """perfbench times scanning by wrapping miner.scan_unit: it must be
    called once per program and unit that holds the program's preserved
    symbols, with the unit miner.parse_source returned, before the next file
    is parsed."""
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "a.php")
    (repo / "b.php").write_text("<?php echo 1;\n")
    (repo / "c.php").write_text("<?php $row = 1; echo 'x' . $row['title'] . 'y';\n")
    (repo / "d.php").write_text("<?php { $a = 1;\n")
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "sub" / "e.php")
    programs = strict_programs()
    events = []

    def parse_source(text, path="<memory>"):
        unit = real_parse(text, path)
        events.append(("parse", unit))
        return unit

    def scan_unit(program, unit, opts=None):
        events.append(("scan", program, unit))
        return real_scan(program, unit, opts)

    real_parse, real_scan = miner.parse_source, miner.scan_unit
    monkeypatch.setattr(miner, "parse_source", parse_source)
    monkeypatch.setattr(miner, "scan_unit", scan_unit)
    result = scan_repository(repo, programs)
    units = [e[1] for e in events if e[0] == "parse"]
    assert [u.path for u in units] == ["repo/a.php", "repo/b.php", "repo/c.php",
                                       "repo/sub/e.php"]
    expected, latest = [], None
    for e in events:
        if e[0] == "parse":
            latest = e[1]
            expected += [("scan", p, latest) for p in programs
                         if p.preserved_symbols <= latest.anchor_index().symbols]
        else:
            assert e[2] is latest
    assert [e for e in events if e[0] == "scan"] == expected
    assert 0 < len(expected) < len(programs) * len(units)
    assert sum(s.units_skipped for s in result.stats) == (
        len(programs) * len(units) - len(expected))


def test_a_repository_scan_holds_one_parsed_file_at_a_time(tmp_path):
    """The traced peak of a scan grows with the largest file, not with the
    number of files."""
    def traced_peak(n_files):
        repo = tmp_path / ("repo%d" % n_files)
        repo.mkdir()
        for i in range(n_files):
            (repo / ("f%d.php" % i)).write_text(text)
        tracemalloc.start()
        try:
            result = scan_repository(repo, programs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.files_scanned == n_files
        return peak

    text = scaled_file(random.Random(1), 400, nest_every=4)
    programs = strict_programs()
    one, twelve = traced_peak(1), traced_peak(12)
    assert twelve < 2 * one


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


def walk_discover_files(repo_path: Path) -> list[str]:
    """discover_files as written with os.walk: the oracle for the scandir walk."""
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(repo_path, followlinks=False):
        dirnames.sort()
        for fn in sorted(filenames):
            if os.path.splitext(fn)[1].lower() not in EXTENSIONS:
                continue
            full = Path(dirpath) / fn
            if full.is_symlink() or not full.is_file():
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
    assert discover_files(repo) == walk_discover_files(repo)
    assert discover_files(str(repo)) == walk_discover_files(repo)


def test_symlinks_are_ignored(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "real.php").write_text("<?php echo 1;\n")
    (repo / "link.php").symlink_to(repo / "real.php")
    files = discover_files(repo)
    assert files == ["real.php"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_is_not_a_candidate_and_mining_completes(tmp_path):
    """Opening a FIFO blocks until a writer comes, so it must never be read.
    Mining runs in a child process, so that a regression fails on the
    timeout instead of hanging the suite."""
    fixture = Path(__file__).parent / "fixtures" / "tutorial_books.php"
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.php").write_bytes(fixture.read_bytes())
    os.mkfifo(repo / "b.php")
    (repo / "c.php").write_text("<?php echo 1;\n")
    assert discover_files(repo) == ["a.php", "c.php"]
    (tmp_path / "queries").mkdir()
    (tmp_path / "repos.txt").write_text(str(repo) + "\n")
    code = ("import sys\nfrom analogue import cli\n"
            "q, repos, out = sys.argv[1:]\n"
            "assert cli.main(['derive', %r, '--lines', '5:6',"
            " '-o', q + '/sqli.tmpl.jsonl']) == 0\n"
            "sys.exit(cli.main(['mine', '--repos', repos, '--queries', q,"
            " '--out', out]))\n" % str(fixture))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "queries"),
                           str(tmp_path / "repos.txt"), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    matches = (tmp_path / "out" / "matches.jsonl").read_text().splitlines()
    assert [json.loads(m)["file"] for m in matches] == ["repo/a.php"]
    assert (tmp_path / "out" / "skipped.jsonl").read_text() == ""


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
        assert r.nodes_scanned > 0


def test_wall_time_leaves_out_the_shared_anchor_index(tmp_path, monkeypatch):
    """Building a file's anchor index is charged to no query: on a clock that
    the index advances by 100 s and each scan by 1 s, every query reads 1 s."""
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "index.php")
    clock = [0.0]

    class FakeTime:
        @staticmethod
        def perf_counter():
            return clock[0]

    def anchor_index(unit, real=SourceUnit.anchor_index):
        if unit._index is None:  # built on first use, then cached
            clock[0] += 100.0
        return real(unit)

    def scan_unit(*args, real=miner.scan_unit):
        clock[0] += 1.0
        return real(*args)

    monkeypatch.setattr(miner, "time", FakeTime)
    monkeypatch.setattr(SourceUnit, "anchor_index", anchor_index)
    monkeypatch.setattr(miner, "scan_unit", scan_unit)
    r = miner.scan_repository(repo, strict_programs())
    assert [s.wall_time_s for s in r.stats] == [1.0, 1.0]


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


@pytest.mark.parametrize("context", sorted(HOST_CONTEXTS))
def test_plants_are_found_in_every_host_context(tmp_path, context):
    """Plants moved into a function, method, closure, try, catch, finally,
    case, default, braced namespace or braced declare body are found as at
    the top level: ledger recall and precision are 1."""
    rng = random.Random(42)
    seeds = distinct_snippets(rng, 3, n_statements=3)
    ledger = move_into_context(
        generate_test_corpus(seeds, tmp_path / "corpus", repo_count=6, rng_seed=7), context)
    programs, names = seed_programs(seeds)
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())
    found = {(names[m.query_id], m.unit_path, m.line_start)
             for r in mine_repositories(repos, programs) for m in r.matches}
    expected = {(p.seed, p.file, p.line_start) for p in ledger.plants if p.expect_match}
    hits = len(found & expected)
    assert len(expected) == 8
    assert (hits / len(expected), hits / max(len(found), 1)) == (1.0, 1.0)


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
    stats = ScanStats(query_id=query, wall_time_s=wall,
                      node_comparisons=comparisons,
                      candidates_tried=candidates, match_count=found,
                      units_skipped=units_skipped)
    record = {"repo": repo, "query": query, "wall_time_s": round(wall, 6),
              "nodes_scanned": nodes, "node_comparisons": comparisons,
              "candidates_tried": candidates, "matches": found,
              "units_skipped": units_skipped}
    with tempfile.TemporaryDirectory() as out:
        paths = write_mining_outputs(
            [RepoScanResult(repo_id=repo, nodes_scanned=nodes, stats=[stats])], out)
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


# The classes a RepoScanResult holds lists of, by the name its annotations use.
RESULT_ITEMS = {cls.__name__: cls for cls in (SkippedFile, Match, ScanStats)}


def default_of(f: dataclasses.Field):
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return None if f.default is dataclasses.MISSING else f.default


def filled(cls, n: int):
    """An instance of the dataclass cls with every field, found by
    dataclasses.fields, set by its declared type to a value unlike its
    default; n varies the values.  A field of a type not named here is a
    KeyError, so a new field cannot be left out."""
    def value(f: dataclasses.Field, i: int):
        if f.type.startswith("list["):
            return [filled(RESULT_ITEMS[f.type[5:-1]], n + k) for k in (1, 2)]
        return {"str": "%s %d \u00e9\u2028\u20ac\U0001F600" % (f.name, n),
                "str | None": "RuntimeError: \u00e9chec %d" % n,
                "int": 7 * n + i + 1,
                "float": n + i / 8 + 0.5,
                "dict[int, str]": {n: "$\u00e9%d" % i, n + 1: "'x'"}}[f.type]
    obj = cls(**{f.name: value(f, i) for i, f in enumerate(dataclasses.fields(cls))})
    for f in dataclasses.fields(cls):
        assert getattr(obj, f.name) != default_of(f), f.name
    return obj


def test_every_field_of_a_result_survives_pickling():
    """Workers hand each result to the parent pickled; every field of the
    result and of each skipped file, match and ScanStats comes back equal, a
    non-ASCII excerpt and an error result included."""
    full = filled(RepoScanResult, 1)
    assert "\U0001F600" in full.matches[0].excerpt
    scanned = dataclasses.replace(full, error=None)
    failed = RepoScanResult(repo_id="r\u00e9po", error="OSError: \u00e9 [Errno 5]")
    for r in (full, scanned, failed):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(r, protocol)) == r


def test_a_result_pickles_what_it_holds_as_plain_tuples():
    """No skipped file, match or ScanStats is pickled object by object:
    RepoScanResult.__reduce__ is the one wire format."""
    data = pickle.dumps(filled(RepoScanResult, 1))
    assert [name for name in RESULT_ITEMS if name.encode() in data] == []


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


@pytest.mark.parametrize("exact_arity", [False, True])
def test_scan_plans_are_built_before_the_pool_starts(monkeypatch, many_repos, exact_arity):
    repos, programs = many_repos
    programs = [dataclasses.replace(p) for p in programs]  # no plan built yet
    built = []

    def recording(**kwargs):
        built.append([exact_arity in p._matchers for p in programs])
        return ProcessPoolExecutor(**kwargs)

    monkeypatch.setattr(miner, "ProcessPoolExecutor", recording)
    opts = MinerOptions(scan=ScanOptions(exact_arity=exact_arity))
    mine_repositories(repos[:4], programs, jobs=2, opts=opts)
    assert built == [[True] * len(programs)]


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

    def scan(repo, programs, opts=None):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("scan failed")
        return RepoScanResult(repo_id=Path(repo).name)

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

    def scan(repo, programs, opts=None):
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


def test_a_repository_is_named_after_the_directory_its_path_names(tmp_path, monkeypatch):
    """One rule names a repository: the last component of its absolute path,
    symbolic links unresolved; so "." is the working directory's name."""
    proj = tmp_path / "proj"
    proj.mkdir()
    (tmp_path / "link").symlink_to(proj)
    monkeypatch.chdir(proj)
    paths = [".", "./", str(proj), "../proj/", "..", tmp_path / "link", "../link"]
    assert [miner.repo_id_of(p) for p in paths] == [
        "proj", "proj", "proj", "proj", tmp_path.name, "link", "link"]


@pytest.mark.parametrize("raises", [False, True])
def test_the_working_directory_is_a_named_repository(tmp_path, monkeypatch, raises):
    """Scanning "." names the repository and its files after the working
    directory, also when the scan raises and the result carries the error."""
    proj = tmp_path / "proj"
    proj.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", proj / "index.php")
    monkeypatch.chdir(proj)
    if raises:
        def scan(repo, programs, opts=None):
            raise RuntimeError("scan failed")
        monkeypatch.setattr(miner, "scan_repository", scan)
    [r] = mine_repositories(["."], strict_programs())
    assert r.repo_id == "proj"
    assert [m.unit_path for m in r.matches] == ([] if raises else ["proj/index.php"] * 2)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("repos,first,second", [
    (["a/proj", "c", "b/proj"], "a/proj", "b/proj"),
    (["c", "a/proj", "a/proj"], "a/proj", "a/proj"),
    (["a/proj", "b/../a/proj/"], "a/proj", "b/../a/proj/"),
])
def test_two_repositories_with_one_id_are_refused(tmp_path, monkeypatch, jobs,
                                                  repos, first, second):
    """Records name a repository by its id, so two repositories with one id,
    one path listed twice included, are refused before any is scanned."""
    for rel in ("a/proj", "b/proj", "c"):
        (tmp_path / rel).mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    scanned = []
    monkeypatch.setattr(miner, "scan_repository",
                        lambda repo, programs, opts=None: scanned.append(repo))
    with pytest.raises(ValueError) as exc:
        mine_repositories(repos, strict_programs(), jobs=jobs)
    assert str(exc.value) == "%s and %s have the same repository id 'proj'" % (
        first, second)
    assert scanned == []
