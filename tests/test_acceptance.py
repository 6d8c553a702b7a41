"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines bypass
output capture so they are always visible).
"""
from __future__ import annotations

import functools
import random

import time
from pathlib import Path

from genutil import random_pair

from analogue.astree import slice_statements
from analogue.compiler import compile_template
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                random_snippet, render_file, render_snippet,
                                scaled_file)
from analogue.engine import ScanOptions, scan_unit
from analogue.miner import mine_repositories, scan_repository, write_mining_outputs
from analogue.php_parser import parse_source
from analogue.spider import (NOT_POPULAR, POPULAR, VERY_POPULAR, RateBudget,
                             classify, crawl, enumerate_repos,
                             filter_candidates, load_cursor)
from analogue.template import derive_template
from analogue.testing import FakeClock, MockHub, brute_force_scan

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            import genutil
            try:
                fn(*args, **kwargs)
            except BaseException:
                genutil.ACCEPTANCE_LINES.append(
                    "ACCEPTANCE %d: FAIL  %s" % (num, title))
                raise
            genutil.ACCEPTANCE_LINES.append(
                "ACCEPTANCE %d: PASS  %s" % (num, title))
        return wrapper
    return deco


def load(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    return parse_source(text, path=name)


def strict_query(unit, first, last, policy="preserve"):
    t = derive_template(unit, slice_statements(unit, first, last),
                        symbol_policy=policy)
    return t, compile_template(t)


@criterion(1, "both strict queries hit the seed tutorial exactly once, at their lines")
def test_criterion_1_tutorial_self_scan():
    t0 = time.perf_counter()
    unit = load("tutorial_books.php")
    _, sqli = strict_query(unit, 5, 6)
    _, xss = strict_query(unit, 11, 12)
    sqli_ms, _ = scan_unit(sqli, unit)
    xss_ms, _ = scan_unit(xss, unit)
    assert [(m.line_start, m.line_end) for m in sqli_ms] == [(5, 6)]
    assert [(m.line_start, m.line_end) for m in xss_ms] == [(11, 12)]
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "the vulnerable-slice query finds all three analogues under wildcard "
              "symbols, only the SQL ones under preserve")
def test_criterion_2_three_analogues():
    t0 = time.perf_counter()
    seed = load("tutorial_search.php")
    clones = {name: load("clone_%s.php" % name)
              for name in ("users", "products", "flights")}

    _, wildcard = strict_query(seed, 4, 6, policy="wildcard")
    hits = {name: scan_unit(wildcard, u)[0] for name, u in clones.items()}
    assert all(len(ms) == 1 for ms in hits.values()), \
        "wildcard query must match every analogue, including the fopen one"
    assert [(m.line_start, m.line_end) for m in hits["users"]] == [(3, 4)]
    assert [(m.line_start, m.line_end) for m in hits["products"]] == [(2, 3)]
    assert [(m.line_start, m.line_end) for m in hits["flights"]] == [(2, 3)]

    _, preserve = strict_query(seed, 4, 6, policy="preserve")
    assert len(scan_unit(preserve, clones["users"])[0]) == 1
    assert len(scan_unit(preserve, clones["products"])[0]) == 1
    assert scan_unit(preserve, clones["flights"])[0] == []
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "a superglobal-read seed matches the plain array-read lookalike")
def test_criterion_3_normalization_case():
    seed = parse_source("<?php $var = $_GET['var'];", path="seed.php")
    t = derive_template(seed, seed.children_of(seed.nodes[seed.root]))
    p = compile_template(t)
    replica = parse_source("<?php $var = $_GET['var'];")
    benign = parse_source("<?php $var = $value['id'];")
    assert len(scan_unit(p, replica)[0]) == 1
    assert len(scan_unit(p, benign)[0]) == 1


@criterion(4, "engine and brute-force oracle agree on 500 randomized pairs, "
              "with and without depth pruning")
def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    positives = 0
    for i in range(500):
        t, unit = random_pair(rng)
        p = compile_template(t)
        expected = brute_force_scan(t, unit)
        pruned, _ = scan_unit(p, unit, ScanOptions(depth_pruning=True))
        unpruned, _ = scan_unit(p, unit, ScanOptions(depth_pruning=False))
        assert pruned == expected, "pair %d disagreed" % i
        assert unpruned == expected, "pair %d disagreed" % i
        positives += bool(expected)
    assert positives > 100, "suite needs real matches to be meaningful"
    assert time.perf_counter() - t0 < 60.0


@criterion(5, "renamed plants are all recovered; broken data flow and "
              "between-statement insertions are never matched")
def test_criterion_5_dataflow_and_gap(tmp_path):
    rng = random.Random(99)
    seeds = distinct_snippets(rng, 5, n_statements=3)
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

    def found_set(corpus_dir):
        repos = sorted(p for p in corpus_dir.iterdir() if p.is_dir())
        results = mine_repositories(repos, compiled)
        return {(programs[m.query_id], m.unit_path)
                for r in results for m in r.matches}

    renames = generate_test_corpus(seeds, tmp_path / "renames", repo_count=10,
                                   mutations=("rename",), rng_seed=1)
    found = found_set(tmp_path / "renames")
    assert found == renames.expected(), "rename recall must be 100%"
    assert len(found) == len(renames.plants)

    breaks = generate_test_corpus(seeds, tmp_path / "breaks", repo_count=10,
                                  mutations=("break_flow",), rng_seed=2)
    assert found_set(tmp_path / "breaks") == set() == breaks.expected()

    gaps = generate_test_corpus(seeds, tmp_path / "gaps", repo_count=10,
                                mutations=("insert_between",), rng_seed=3)
    assert found_set(tmp_path / "gaps") == set() == gaps.expected()


@criterion(6, "comparison counts grow linearly in target size and stay under 5*N*M")
def test_criterion_6_complexity():
    rng = random.Random(7)
    seed_text = ("<?php\n$inp = $_POST['q'];\n"
                 "$sql = build_q(\"SELECT x FROM t WHERE a = '{$inp}' LIMIT 1\");\n"
                 "exec_q($sql, $inp);\n")
    seed = parse_source(seed_text, path="seed.php")
    n_nodes = sum(1 for s in seed.children_of(seed.nodes[seed.root])
                  for _ in _subtree(seed, s.id))
    assert 15 <= n_nodes <= 25  # the "N is about 20" premise
    t = derive_template(seed, seed.children_of(seed.nodes[seed.root]))
    p = compile_template(t)

    counts = {}
    for label, stmts in (("small", 2000), ("large", 20000)):
        unit = parse_source(scaled_file(rng, stmts), path=label)
        m_nodes = unit.node_count
        assert abs(m_nodes - (10_000 if label == "small" else 100_000)) \
            < m_nodes * 0.5
        _, counter = scan_unit(p, unit)
        counts[label] = (counter.node_comparisons, m_nodes)
        assert counter.node_comparisons <= 5 * n_nodes * m_nodes
    ratio = counts["large"][0] / counts["small"][0]
    assert 8.0 <= ratio <= 12.0, "comparisons must scale linearly (got %.2f)" % ratio


def _subtree(unit, nid):
    yield nid
    for c in unit.nodes[nid].children:
        yield from _subtree(unit, c)


@criterion(7, "a 1000-line project scanned with 20 queries finishes inside 5 seconds")
def test_criterion_7_runtime(tmp_path):
    rng = random.Random(17)
    project = tmp_path / "project"
    project.mkdir()
    total_lines = 0
    i = 0
    while total_lines < 1000:
        text = scaled_file(rng, 95)
        total_lines += text.count("\n")
        (project / ("mod%d.php" % i)).write_text(text, encoding="utf-8")
        i += 1
    programs = []
    for k in range(20):
        unit = parse_source(render_file(render_snippet(random_snippet(rng))),
                            path="q%d" % k)
        programs.append(compile_template(
            derive_template(unit, unit.children_of(unit.nodes[unit.root]))))
    t0 = time.perf_counter()
    result = scan_repository(project, programs)
    elapsed = time.perf_counter() - t0
    assert result.files_scanned == i
    assert elapsed < 5.0, "scan took %.2fs" % elapsed


@criterion(8, "spider: exact bucket boundaries, strict size filter, budget held "
              "on a simulated clock, duplicate-free cursor resume")
def test_criterion_8_spider(tmp_path):
    t0 = time.perf_counter()
    # bucket boundaries at 3/4 and 9/10 stars
    hub = MockHub()
    for repo_id, stars in [(1, 3), (2, 4), (3, 9), (4, 10)]:
        hub.add_repo(repo_id, "o/r%d" % repo_id, stars=stars, size_kb=100)
    hub.add_repo(5, "o/toobig", stars=5, size_kb=3072)
    hub.add_repo(6, "o/justfits", stars=5, size_kb=3071)
    hub.add_repo(7, "o/otherlang", stars=5, size_kb=100, language="Perl")
    with hub:
        metas, _ = enumerate_repos(hub.base_url, 0, RateBudget(), clock=FakeClock())
        buckets = {m.full_name: classify(m) for m in metas}
        assert buckets["o/r1"] == NOT_POPULAR
        assert buckets["o/r2"] == POPULAR
        assert buckets["o/r3"] == POPULAR
        assert buckets["o/r4"] == VERY_POPULAR
        kept = {m.full_name for m in filter_candidates(metas, "php", 3072)}
        assert "o/toobig" not in kept, "3072 kB must be dropped (strict <)"
        assert "o/justfits" in kept
        assert "o/otherlang" not in kept

    # budget: 5000 requests per simulated hour, the 5001st defers to the reset
    clock = FakeClock()
    budget = RateBudget(capacity=5000, window_s=3600.0)
    issue_times = []
    for _ in range(5001):
        budget.acquire(clock)
        issue_times.append(clock.now())
    assert issue_times[4999] == 0.0
    assert issue_times[5000] == 3600.0, "5001st must wait for the window reset"
    for t in issue_times:
        assert sum(1 for s in issue_times if t <= s < t + 3600.0) <= 5000

    # duplicate-free resume from the persisted cursor
    hub2 = MockHub()
    for i in range(1, 121):
        hub2.add_repo(i, "o/p%d" % i, stars=i % 15, size_kb=50)
    state = tmp_path / "cursor.json"
    with hub2:
        first = [m.repo_id for m in crawl(hub2.base_url, RateBudget(),
                                          clock=FakeClock(), state_file=state,
                                          per_page=50, max_repos=70)]
        second = [m.repo_id for m in crawl(hub2.base_url, RateBudget(),
                                           clock=FakeClock(), state_file=state,
                                           per_page=50)]
    assert len(first) == 70 and load_cursor(state) == 120
    assert not set(first) & set(second)
    assert sorted(first + second) == list(range(1, 121))
    assert time.perf_counter() - t0 < 10.0


@criterion(9, "mining the same corpus with 1 and 8 jobs is byte-identical")
def test_criterion_9_determinism(tmp_path):
    rng = random.Random(31)
    seeds = [random_snippet(rng, name="s%d" % i) for i in range(4)]
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=9, rng_seed=5)
    programs = []
    for s in seeds:
        unit = parse_source(render_file(render_snippet(s)), path=s.name)
        programs.append(compile_template(
            derive_template(unit, unit.children_of(unit.nodes[unit.root]))))
    repos = sorted(p for p in (tmp_path / "corpus").iterdir() if p.is_dir())
    blobs = []
    for jobs, out in [(1, "j1"), (8, "j8")]:
        results = mine_repositories(repos, programs, jobs=jobs)
        paths = write_mining_outputs(results, tmp_path / out)
        blobs.append(paths["matches"].read_bytes())
    assert blobs[0] == blobs[1]
    assert len(blobs[0].splitlines()) > 0, "corpus must produce some matches"
