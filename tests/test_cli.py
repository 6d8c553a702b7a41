from __future__ import annotations

import argparse
import functools
import io
import json
import multiprocessing
import os
import random
import re
import shlex
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from analogue import cli, engine
from analogue.cli import build_parser, main
from analogue.corpusgen import (distinct_snippets, generate_test_corpus, render_file,
                                render_snippet)
from analogue.miner import discover_files
from analogue.spider import SystemClock
from analogue.testing import MockHub

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_compile_scan_roundtrip(tmp_path, capsys):
    seed = str(FIXTURES / "tutorial_books.php")
    tmpl = tmp_path / "sqli.tmpl.jsonl"
    code, _, _ = run(capsys, "derive", seed, "--lines", "5:6", "-o", str(tmpl))
    assert code == 0
    header = json.loads(tmpl.read_text().splitlines()[0])
    assert (header["format"], header["origin"]["lines"]) == ("tmpl-v2", [5, 6])

    code, out, _ = run(capsys, "compile", str(tmpl), "--out-dir", str(tmp_path),
                       "--emit-script", str(tmp_path / "traversal.txt"))
    assert code == 0
    prog_path = Path(out.strip())
    assert prog_path.exists() and prog_path.name.endswith(".prog.json")
    # content-addressed: the file name carries the query id
    doc = json.loads(prog_path.read_text())
    assert prog_path.name == doc["query_id"] + ".prog.json"
    script = (tmp_path / "traversal.txt").read_text()
    assert ".sideEffect{" in script and "mysql_query" in script

    code, out, _ = run(capsys, "scan", str(prog_path), seed)
    assert code == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert len(recs) == 1
    assert recs[0]["lines"] == [5, 6]


def test_scan_accepts_template_files_directly(tmp_path, capsys):
    seed = str(FIXTURES / "tutorial_books.php")
    tmpl = tmp_path / "t.tmpl.jsonl"
    assert run(capsys, "derive", seed, "--lines", "11:12", "-o", str(tmpl))[0] == 0
    code, out, _ = run(capsys, "scan", str(tmpl), seed)
    assert code == 0
    assert json.loads(out.splitlines()[0])["lines"] == [11, 12]


def test_derive_full_takes_every_statement(tmp_path, capsys):
    seed = str(FIXTURES / "clone_users.php")
    code, out, _ = run(capsys, "derive", seed, "--full")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert (len(header["roots"]), header["origin"]["lines"]) == (3, [3, 7])


def test_derive_full_on_one_line_file(tmp_path, capsys):
    one = tmp_path / "one.php"
    one.write_text("<?php $v = $_GET['k'];\n")
    code, out, _ = run(capsys, "derive", str(one), "--full")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert len(header["roots"]) == 1


def test_derive_is_byte_deterministic(tmp_path, capsys):
    seed = str(FIXTURES / "tutorial_search.php")
    a, b = tmp_path / "a.tmpl", tmp_path / "b.tmpl"
    assert run(capsys, "derive", seed, "--lines", "4:6", "-o", str(a))[0] == 0
    assert run(capsys, "derive", seed, "--lines", "4:6", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_derive_errors_exit_nonzero(tmp_path, capsys):
    seed = str(FIXTURES / "tutorial_books.php")
    code, _, err = run(capsys, "derive", seed, "--lines", "4:4")
    assert code == 1
    assert "no statement" in err


def test_inverted_lines_is_an_error_not_a_traceback(tmp_path, capsys):
    seed = str(FIXTURES / "tutorial_books.php")
    (tmp_path / "corpus").mkdir()
    for argv in (["derive", seed, "--lines", "6:4"],
                 ["pipeline", seed, str(tmp_path / "corpus"), "--lines", "6:4",
                  "--out", str(tmp_path / "out")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: --lines 6:4: START must not exceed END\n"


def test_scan_without_matches_exits_zero(tmp_path, capsys):
    tmpl = tmp_path / "t.tmpl.jsonl"
    assert run(capsys, "derive", str(FIXTURES / "tutorial_books.php"),
               "--lines", "5:6", "-o", str(tmpl))[0] == 0
    other = tmp_path / "nothing.php"
    other.write_text("<?php echo 'static';\n")
    code, out, _ = run(capsys, "scan", str(tmpl), str(other))
    assert code == 0
    assert out == ""


def test_ast_export_import_roundtrip(tmp_path, capsys):
    seed = str(FIXTURES / "clone_products.php")
    code, exported, _ = run(capsys, "ast", "export", seed)
    assert code == 0
    stream = tmp_path / "ast.jsonl"
    stream.write_text(exported)
    code, reimported, _ = run(capsys, "ast", "import", str(stream))
    assert code == 0
    assert reimported == exported


def test_ast_import_reads_a_literal_holding_a_line_separator(tmp_path, capsys):
    seed = tmp_path / "seed.php"
    seed.write_text("<?php\n$a = 'x\u2028y';\n", encoding="utf-8")
    code, exported, _ = run(capsys, "ast", "export", str(seed))
    assert code == 0
    stream = tmp_path / "ast.jsonl"
    stream.write_text("".join(json.dumps(json.loads(ln), ensure_ascii=False) + "\n"
                              for ln in exported.splitlines()), encoding="utf-8")
    assert "x\u2028y" in stream.read_text(encoding="utf-8")
    code, reimported, err = run(capsys, "ast", "import", str(stream))
    assert (code, err) == (0, "")
    assert reimported == exported


def test_ast_import_rejects_bad_stream(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "ast-v1", "path": "x", "root": 0}\n'
                   '{"id": 0, "kind": "StmtList", "children": [9]}\n')
    code, _, err = run(capsys, "ast", "import", str(bad))
    assert code == 1
    assert err.startswith("error: %s line 2: " % bad) and "dangling" in err


def test_mine_and_report(tmp_path, capsys):
    repo = tmp_path / "corpus" / "repo1"
    repo.mkdir(parents=True)
    shutil.copy(FIXTURES / "tutorial_books.php", repo / "index.php")
    queries = tmp_path / "queries"
    queries.mkdir()
    seed = str(FIXTURES / "tutorial_books.php")
    assert run(capsys, "derive", seed, "--lines", "5:6",
               "-o", str(queries / "sqli.tmpl.jsonl"))[0] == 0
    assert run(capsys, "derive", seed, "--lines", "11:12",
               "-o", str(queries / "xss.tmpl.jsonl"))[0] == 0
    repo_list = tmp_path / "repos.txt"
    repo_list.write_text(str(repo) + "\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "mine", "--repos", str(repo_list),
                       "--queries", str(queries), "--jobs", "2",
                       "--out", str(out_dir))
    assert code == 0
    assert "2 matches" in out
    matches = (out_dir / "matches.jsonl").read_text()
    assert len(matches.splitlines()) == 2

    code, out, _ = run(capsys, "report", str(out_dir / "matches.jsonl"),
                       "--queries", str(queries))
    assert code == 0
    assert "2 analogues" in out
    assert "seed:" in out

    code, out, _ = run(capsys, "report", str(out_dir / "matches.jsonl"),
                       "--format", "summary")
    assert code == 0
    assert out.startswith("Data set")
    assert "Total" in out

    code, out, _ = run(capsys, "report", str(out_dir / "matches.jsonl"),
                       "--format", "summary", "--stats",
                       str(out_dir / "stats.jsonl"))
    assert code == 0
    assert "2 queries" in out and "node comparisons" in out


MATCH = {"query": "q", "file": "a.php", "lines": [1, 2], "bindings": {"0": "$a"},
         "excerpt": "$a = 1;"}


@pytest.mark.parametrize("option,line,reason", [
    ("--stats", "{oops", "not valid JSON: Expecting property name"),
    ("--stats", "[1]", "not a JSON object"),
    ("--stats", '{"query": "q", "wall_time_s": "1s"}', "'wall_time_s' has the wrong type"),
    ("--stats", '{"query": "q", "wall_time_s": true}', "'wall_time_s' has the wrong type"),
    ("--stats", '{"query": "q", "node_comparisons": true}',
     "'node_comparisons' has the wrong type"),
    ("--stats", '{"query": "q", "wall_time_s": NaN, "node_comparisons": 3}',
     "not valid JSON: NaN is not a JSON number"),
    ("--stats", '{"query": "q", "wall_time_s": Infinity}',
     "not valid JSON: Infinity is not a JSON number"),
    ("--stats", '{"query": "q", "wall_time_s": [-Infinity]}',
     "not valid JSON: -Infinity is not a JSON number"),
    pytest.param("--stats", '{"query": "q", "node_comparisons": 1%s}' % ("0" * 5000),
                 "not valid JSON: Exceeds the limit", id="int-of-5001-digits"),
    ("--repos", "{oops", "not valid JSON: Expecting property name"),
    ("--repos", '"owner/name"', "not a JSON object"),
    ("--repos", '{"full_name": 7, "bucket": "popular"}', "'full_name' has the wrong type"),
])
def test_report_names_a_bad_side_file_line(tmp_path, capsys, option, line, reason):
    matches = tmp_path / "matches.jsonl"
    matches.write_text(json.dumps(MATCH) + "\n")
    side = tmp_path / "side.jsonl"
    side.write_text("\n" + json.dumps({"query": "q"}) + "\n" + line + "\n")
    code, out, err = run(capsys, "report", str(matches), "--format", "summary",
                         option, str(side))
    assert (code, out) == (1, "")
    assert err.startswith("error: %s line 3: %s" % (side, reason))
    assert "Traceback" not in err


def test_pipeline_finds_planted_replica(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "repoX").mkdir(parents=True)
    shutil.copy(FIXTURES / "clone_users.php", corpus / "repoX" / "page.php")
    (corpus / "repoY").mkdir()
    (corpus / "repoY" / "other.php").write_text("<?php echo 'nothing';\n")
    seed = str(FIXTURES / "tutorial_search.php")
    out_dir = tmp_path / "result"
    code, out, _ = run(capsys, "pipeline", seed, str(corpus),
                       "--lines", "4:6", "--out", str(out_dir))
    assert code == 0
    assert "repoX/page.php:3-4" in out
    assert (out_dir / "matches.jsonl").exists()
    assert (out_dir / "report.txt").exists()
    records = [json.loads(ln) for ln in
               (out_dir / "matches.jsonl").read_text().splitlines()]
    assert len(records) == 1


def test_pipeline_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "repoA").mkdir(parents=True)
    code, out, _ = run(capsys, "pipeline", str(FIXTURES / "tutorial_search.php"),
                       str(corpus), "--lines", "4:6", "--out", str(tmp_path / "o"))
    assert code == 0
    assert "0 analogues" in out


def test_pipeline_equals_manual_stages(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    (corpus / "repoX").mkdir(parents=True)
    shutil.copy(FIXTURES / "clone_users.php", corpus / "repoX" / "page.php")
    seed = str(FIXTURES / "tutorial_search.php")

    out_dir = tmp_path / "viapipeline"
    assert run(capsys, "pipeline", seed, str(corpus), "--lines", "4:6",
               "--out", str(out_dir))[0] == 0

    # manual stage-by-stage
    tmpl = tmp_path / "t.tmpl.jsonl"
    assert run(capsys, "derive", seed, "--lines", "4:6", "-o", str(tmpl))[0] == 0
    qdir = tmp_path / "q"
    qdir.mkdir()
    code, out, _ = run(capsys, "compile", str(tmpl), "--out-dir", str(qdir))
    assert code == 0
    repo_list = tmp_path / "repos.txt"
    repo_list.write_text(str(corpus / "repoX") + "\n")
    manual_dir = tmp_path / "viamanual"
    assert run(capsys, "mine", "--repos", str(repo_list), "--queries",
               str(qdir), "--jobs", "1", "--out", str(manual_dir))[0] == 0
    assert (out_dir / "matches.jsonl").read_text() == \
        (manual_dir / "matches.jsonl").read_text()


def test_spider_cli_against_mock(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    hub = MockHub()
    hub.add_repo(1, "o/small-php", stars=2, size_kb=100, language="PHP",
                 files={"index.php": "<?php echo 1;\n"})
    hub.add_repo(2, "o/big-php", stars=2, size_kb=9000, language="PHP")
    hub.add_repo(3, "o/starred-php", stars=25, size_kb=50, language="PHP",
                 files={"a.php": "<?php echo 2;\n"})
    hub.add_repo(4, "o/js-thing", stars=2, size_kb=100, language="JavaScript")
    with hub:
        out_file = tmp_path / "repos.jsonl"
        code, _, _ = run(capsys, "spider", "--api-base", hub.base_url,
                         "--out", str(out_file), "--min-interval", "0",
                         "--download", str(tmp_path / "dl"),
                         "--state", str(tmp_path / "cursor.json"))
        assert code == 0
        records = [json.loads(ln) for ln in out_file.read_text().splitlines()]
        assert {r["full_name"] for r in records} == {"o/small-php", "o/starred-php"}
        buckets = {r["full_name"]: r["bucket"] for r in records}
        assert buckets == {"o/small-php": "not-popular",
                           "o/starred-php": "very-popular"}
        assert (tmp_path / "dl" / "o__small-php").is_dir()
        assert (tmp_path / "dl" / "o__starred-php").is_dir()


def test_spider_whose_listing_retries_run_out_is_an_error(tmp_path, capsys,
                                                            monkeypatch):
    monkeypatch.setattr(SystemClock, "sleep", lambda self, seconds: None)
    with MockHub() as hub:
        hub.fail_queue = [503] * 5
        code, out, err = run(capsys, "spider", "--api-base", hub.base_url,
                             "--out", str(tmp_path / "repos.jsonl"))
    assert (code, out) == (1, "")
    assert err.startswith("error: GET %s/repositories failed after 5 attempts: "
                          "status 503" % hub.base_url)


@pytest.mark.parametrize("text", ["[1]", '{"cursor": "abc"}', '{"cursor": true}',
                                  '{"cursor": ', '{"cursor": 5, "at": NaN}'],
                         ids=["list", "string-cursor", "bool-cursor", "invalid-json",
                              "nan"])
def test_spider_with_a_malformed_state_file_is_an_error(tmp_path, capsys, text):
    state = tmp_path / "st.json"
    state.write_text(text)
    with MockHub() as hub:
        code, out, err = run(capsys, "spider", "--api-base", hub.base_url,
                             "--state", str(state), "--out", str(tmp_path / "r.jsonl"))
        assert hub.requests_seen == []
    assert (code, out) == (1, "")
    assert err.startswith("error: state file %s " % state)
    assert state.read_text() == text


@pytest.mark.parametrize("page", [
    b"[" * 100_000 + b"]" * 100_000,
    b'[{"id": 1, "full_name": "o/r", "size": 1e400}]',
    b'[{"id": true, "full_name": "o/r"}]',
    b'[{"id": 1, "full_name": "o/r", "stargazers_count": 3.9}]',
    b'[{"id": 1, "full_name": "o/r", "stargazers_count": NaN}]',
], ids=["too-deep", "size-1e400", "bool-id", "float-stars", "nan-stars"])
def test_spider_whose_listing_pages_are_malformed_is_an_error(tmp_path, capsys,
                                                               monkeypatch, page):
    """A malformed listing page is skipped without progress; three in a row
    end the crawl with an error, never a traceback, and leave the state
    file's cursor where it was."""
    import requests
    pages = []

    def get(self, url, **request):
        pages.append(url)
        return SimpleNamespace(status_code=200, content=page, headers={})

    monkeypatch.setattr(requests.Session, "get", get)
    state = tmp_path / "st.json"
    code, out, err = run(capsys, "spider", "--api-base", "http://127.0.0.1:1",
                         "--min-interval", "0", "--state", str(state),
                         "--out", str(tmp_path / "r.jsonl"))
    assert (code, out) == (1, "")
    assert err.endswith("error: no progress after 3 malformed pages\n")
    assert len(pages) == 3
    assert json.loads(state.read_text()) == {"cursor": 0}


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbols": "wildcard"}))
    code, out, _ = run(capsys, "--config", str(cfg), "derive",
                       str(FIXTURES / "clone_users.php"), "--full")
    assert code == 0
    assert json.loads(out.splitlines()[0])["symbol_policy"] == "wildcard"


def test_unknown_config_is_an_error(tmp_path, capsys):
    code, _, err = run(capsys, "--config", str(tmp_path / "nope.json"),
                       "derive", "x.php", "--full")
    assert code == 1
    assert "config" in err


@pytest.mark.parametrize("text,reason", [
    ('{"min_interval": Infinity}', "Infinity is not a JSON number"),
    ('{"min_interval": NaN}', "NaN is not a JSON number"),
    ('{"min_interval": 1e400}', "1e400 is too large for a float"),
])
def test_a_config_that_is_not_json_is_an_error(tmp_path, capsys, text, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(capsys, "--config", str(cfg), "derive", str(FIXTURES / "clone_users.php"),
               "--full") == (1, "", "error: cannot read config %s: not valid JSON: %s\n"
                             % (cfg, reason))


def test_a_program_that_holds_nan_is_not_a_program(tmp_path, capsys, monkeypatch):
    """A prog-v1 document that holds NaN is not JSON, so it is read as a
    template, whose reader refuses its line as not valid JSON."""
    monkeypatch.chdir(tmp_path)
    seed = str(FIXTURES / "tutorial_books.php")
    assert run(capsys, "derive", seed, "--lines", "5:6", "-o", "q.tmpl.jsonl")[0] == 0
    code, out, _ = run(capsys, "compile", "q.tmpl.jsonl", "--out-dir", ".")
    assert code == 0
    doc = json.loads(Path(out.strip()).read_text())
    Path("nan.prog.json").write_text(json.dumps({**doc, "note": float("nan")}))
    assert run(capsys, "scan", "nan.prog.json", seed) == (
        1, "", "error: nan.prog.json line 1: not valid JSON: NaN is not a JSON number\n")


def test_scan_reads_files_as_mine_does(tmp_path, capsys, monkeypatch):
    """A lone carriage return is no line break for the lexer, and a BOM never
    starts an excerpt, whichever command reads the file."""
    body = "$x = $_POST['q'];\nmysql_query(\"SELECT '$x'\");\n"
    seed = tmp_path / "seed.php"
    seed.write_text("<?php\n" + body)
    queries = tmp_path / "queries"
    queries.mkdir()
    assert run(capsys, "derive", str(seed), "--full",
               "-o", str(queries / "q.tmpl.jsonl"))[0] == 0
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "cr.php").write_bytes(b"<?php\n/* one\rtwo */\n" + body.encode())
    (repo / "bom.php").write_bytes("\ufeff<?php ".encode() + body.encode())
    (tmp_path / "repos.txt").write_text("repo\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
               "--out", "out")[0] == 0
    mined = (tmp_path / "out" / "matches.jsonl").read_text().splitlines()
    code, out, _ = run(capsys, "scan", "queries/q.tmpl.jsonl",
                       "repo/bom.php", "repo/cr.php")
    assert code == 0
    assert out.splitlines() == mined
    lines = {json.loads(r)["file"]: json.loads(r)["lines"] for r in mined}
    assert lines == {"repo/cr.php": [3, 4], "repo/bom.php": [1, 2]}
    assert all(not json.loads(r)["excerpt"].startswith("\ufeff") for r in mined)


def test_two_query_files_that_hold_one_query_are_an_error(tmp_path, capsys, monkeypatch):
    """One query in two files would report each match and each stats record
    twice, whether the files are two copies of a template or a template and
    the program compiled from it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repo").mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", tmp_path / "repo" / "index.php")
    (tmp_path / "repos.txt").write_text("repo\n")
    queries = tmp_path / "queries"
    queries.mkdir()
    assert run(capsys, "derive", str(FIXTURES / "tutorial_books.php"), "--lines", "5:6",
               "-o", str(queries / "a.tmpl.jsonl"))[0] == 0
    assert run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
               "--out", "out")[0] == 0
    assert len((tmp_path / "out" / "matches.jsonl").read_text().splitlines()) == 1
    shutil.copy(queries / "a.tmpl.jsonl", queries / "b.tmpl.jsonl")
    code, out, err = run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
                         "--out", "out2")
    qid = cli.load_query(queries / "a.tmpl.jsonl").query_id
    assert (code, out) == (1, "")
    assert err == "error: %s and %s hold the same query %s\n" % (
        Path("queries", "a.tmpl.jsonl"), Path("queries", "b.tmpl.jsonl"), qid)
    assert not (tmp_path / "out2").exists()
    (queries / "b.tmpl.jsonl").unlink()
    assert run(capsys, "compile", str(queries / "a.tmpl.jsonl"),
               "--out-dir", str(queries))[0] == 0
    code, _, err = run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
                       "--out", "out2")
    assert code == 1 and err == "error: %s and %s hold the same query %s\n" % (
        Path("queries", qid + ".prog.json"), Path("queries", "a.tmpl.jsonl"), qid)


def test_mine_finds_a_plant_inside_a_static_closure(tmp_path, capsys, monkeypatch):
    """A static closure's body is a statement list like any closure's, so a
    $_GET -> mysql_query plant in it is found."""
    seed = tmp_path / "seed.php"
    seed.write_text("<?php\n$id = $_GET['id'];\nmysql_query(\"SELECT '$id'\");\n")
    queries = tmp_path / "queries"
    queries.mkdir()
    assert run(capsys, "derive", str(seed), "--full", "--symbols", "wildcard",
               "-o", str(queries / "q.tmpl.jsonl"))[0] == 0
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "routes.php").write_text(
        "<?php\n$app->get('/u', static function ($req) use ($db) {\n"
        "    $uid = $_GET['uid'];\n    mysql_query(\"SELECT * FROM u WHERE id = '$uid'\");\n"
        "});\n$f = static fn ($x) => $x;\n")
    (tmp_path / "repos.txt").write_text("repo\n")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
               "--out", "out")[0] == 0
    mined = [json.loads(r) for r in
             (tmp_path / "out" / "matches.jsonl").read_text().splitlines()]
    assert [(r["file"], r["lines"]) for r in mined] == [("repo/routes.php", [3, 4])]
    assert (tmp_path / "out" / "skipped.jsonl").read_text() == ""


def test_derive_ast_and_pipeline_read_files_as_mine_does(tmp_path, capsys,
                                                        monkeypatch):
    """derive, ast export and pipeline number lines as scan and mine do: a
    lone carriage return is no line break, on a file and on stdin."""
    data = b'<?php\n/* a\rb */\n$x = $_POST[1];\nmysql_query("SELECT $x");\n'
    seed = tmp_path / "seed.php"
    seed.write_bytes(data)
    code, out, _ = run(capsys, "derive", str(seed), "--lines", "3:4")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert (header["origin"]["lines"], len(header["roots"])) == ([3, 4], 2)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(capsys, "derive", "-", "--lines", "3:4")[1].splitlines()[1:] \
        == out.splitlines()[1:]

    code, out, _ = run(capsys, "ast", "export", str(seed))
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()[1:]]
    assert [r["line"] for r in records if r["kind"] == "Assign"] == [[3, 3]]

    corpus = tmp_path / "corpus"
    (corpus / "repo").mkdir(parents=True)
    (corpus / "repo" / "page.php").write_bytes(data)
    code, _, _ = run(capsys, "pipeline", str(seed), str(corpus), "--lines", "3:4",
                     "--out", str(tmp_path / "out"))
    assert code == 0
    matches = (tmp_path / "out" / "matches.jsonl").read_text().splitlines()
    assert [json.loads(m)["lines"] for m in matches] == [[3, 4]]


# Seeds that `mine` and `scan` skip, and the reason and detail they give:
# a NUL byte, one byte over MinerOptions().max_file_bytes, and 3,000 nested
# parentheses (a chain of any length derives; these do not parse).
UNREADABLE_SEEDS = {
    "binary": (b"<?php\x00\n$a = 1;\n", "binary"),
    "too-large": (b"<?php\n#".ljust(2 * 1024 * 1024 + 1, b"x"), "too-large: 2097153 bytes"),
    "too-deep": (("<?php\n$x = " + "(" * 3000 + "$y" + ")" * 3000 + ";\n").encode(),
                 "too-deep: nesting exceeds the parser's recursion limit"),
}


@pytest.mark.parametrize("kind", UNREADABLE_SEEDS)
def test_derive_pipeline_and_ast_export_refuse_a_seed_as_scan_skips_it(tmp_path, capsys,
                                                                       kind):
    """The commands that read one PHP file read it as `mine` does, and
    refuse what `scan` skips, in the words `scan` warns with."""
    data, reason = UNREADABLE_SEEDS[kind]
    seed = tmp_path / (kind + ".php")
    seed.write_bytes(data)
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", str(FIXTURES / "tutorial_books.php"), "--lines", "5:6",
               "-o", str(tmpl))[0] == 0
    text = "%s: %s\n" % (seed, reason)
    assert run(capsys, "scan", str(tmpl), str(seed)) == (0, "", "warning: skipped " + text)
    (tmp_path / "corpus" / "repo").mkdir(parents=True)
    for argv in (["derive", str(seed)], ["ast", "export", str(seed)],
                 ["pipeline", str(seed), str(tmp_path / "corpus"),
                  "--out", str(tmp_path / "out")]):
        assert run(capsys, *argv) == (1, "", "error: " + text)


def test_pipeline_names_failed_repositories_as_mine_does(tmp_path, capsys,
                                                         monkeypatch):
    from analogue import miner
    corpus = tmp_path / "corpus"
    for name in ("repoA", "repoB"):
        (corpus / name).mkdir(parents=True)
        shutil.copy(FIXTURES / "clone_users.php", corpus / name / "page.php")
    real_scan = miner.scan_unit

    def flaky_scan(program, unit, opts=None, index=None):
        if unit.path.startswith("repoA/"):
            raise ValueError("cannot handle %s" % unit.path)
        return real_scan(program, unit, opts, index)

    monkeypatch.setattr(miner, "scan_unit", flaky_scan)
    seed = str(FIXTURES / "tutorial_search.php")
    code, out, err = run(capsys, "pipeline", seed, str(corpus), "--lines", "4:6",
                         "--jobs", "1", "--out", str(tmp_path / "p"))
    assert code == 0
    assert err == "failed repositories: repoA\n"
    assert out == (tmp_path / "p" / "report.txt").read_text()
    assert out.endswith("\n1 analogue\n") and "repoB/page.php:3-4" in out

    (tmp_path / "repos.txt").write_text("%s\n%s\n" % (corpus / "repoA", corpus / "repoB"))
    queries = tmp_path / "q"
    queries.mkdir()
    assert run(capsys, "derive", seed, "--lines", "4:6",
               "-o", str(queries / "q.tmpl.jsonl"))[0] == 0
    code, _, mine_err = run(capsys, "mine", "--repos", str(tmp_path / "repos.txt"),
                            "--queries", str(queries), "--out", str(tmp_path / "m"))
    assert code == 0 and mine_err == err
    for name in ("matches", "stats", "skipped"):
        piped = (tmp_path / "p" / (name + ".jsonl")).read_text()
        mined = (tmp_path / "m" / (name + ".jsonl")).read_text()
        if name == "stats":
            piped, mined = ([{k: v for k, v in json.loads(ln).items() if k != "wall_time_s"}
                             for ln in text.splitlines()] for text in (piped, mined))
        assert piped == mined


def _die(path):
    """A mining worker's task that ends its process at once."""
    os._exit(3)


@pytest.mark.parametrize("command", ["mine", "pipeline"])
def test_a_dead_mining_worker_is_an_error_line(tmp_path, capfd, monkeypatch, command):
    """A worker process that dies ends `mine` and `pipeline` with one error
    line and exit 1, not a BrokenProcessPool traceback, and nothing is
    written.  The workers start by fork, so they inherit the patch."""
    from analogue import miner
    corpus = tmp_path / "corpus"
    for name in ("repoA", "repoB"):
        (corpus / name).mkdir(parents=True)
        shutil.copy(FIXTURES / "clone_users.php", corpus / name / "page.php")
    seed = str(FIXTURES / "tutorial_search.php")
    queries = tmp_path / "q"
    queries.mkdir()
    assert main(["derive", seed, "--lines", "4:6", "-o", str(queries / "q.tmpl.jsonl")]) == 0
    (tmp_path / "repos.txt").write_text("%s\n%s\n" % (corpus / "repoA", corpus / "repoB"))
    capfd.readouterr()
    monkeypatch.setattr(miner, "_scan_in_worker", _die)
    monkeypatch.setattr(miner, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    out = tmp_path / "out"
    if command == "mine":
        argv = ["mine", "--repos", str(tmp_path / "repos.txt"), "--queries", str(queries)]
    else:
        argv = ["pipeline", seed, str(corpus), "--lines", "4:6"]
    code = main(argv + ["--jobs", "2", "--out", str(out)])
    captured = capfd.readouterr()
    assert code == 1
    assert captured.err == "error: a mining worker died; no output was written\n"
    assert "Traceback" not in captured.out + captured.err
    assert not (out / "matches.jsonl").exists()


# Each command's options as `analogue` declared them before they were shared
# between commands: "/"-joined option strings (or a positional's dest) ->
# [dest, default, sorted choices, required].  The changes since are that
# --full stores None into `lines` rather than True into `full`, and that
# derive has no --mode, since templates have no mode.
PARSER_SPEC = {
    "ast": {"action": ["action", None, ["export", "import"], True],
            "file": ["file", None, None, True],
            "-o/--out": ["out", None, None, False]},
    "derive": {"snippet": ["snippet", None, None, True],
               "--lines": ["lines", None, None, False],
               "--full": ["lines", None, None, False],
               "--symbols": ["symbols", "preserve", ["preserve", "wildcard"], False],
               "-o/--out": ["out", None, None, False]},
    "compile": {"template": ["template", None, None, True],
                "--emit-script": ["emit_script", None, None, False],
                "--out-dir": ["out_dir", ".", None, False]},
    "scan": {"query": ["query", None, None, True],
             "files": ["files", None, None, True],
             "--out/-o": ["out", None, None, False],
             "--no-depth-pruning": ["no_depth_pruning", False, None, False],
             "--exact-arity": ["exact_arity", False, None, False]},
    "mine": {"--repos": ["repos", None, None, True],
             "--queries": ["queries", None, None, True],
             "--jobs": ["jobs", 1, None, False],
             "--out": ["out", None, None, True],
             "--no-depth-pruning": ["no_depth_pruning", False, None, False],
             "--exact-arity": ["exact_arity", False, None, False]},
    "spider": {"--language": ["language", "php", None, False],
               "--max-size-kb": ["max_size_kb", 3072, None, False],
               "--buckets": ["buckets", "all", ["all", "not-popular", "popular",
                                                "very-popular"], False],
               "--out": ["out", "-", None, False],
               "--download": ["download", None, None, False],
               "--strategy": ["strategy", "archive", ["archive", "clone"], False],
               "--api-base": ["api_base", "https://api.github.com", None, False],
               "--state": ["state", None, None, False],
               "--per-page": ["per_page", 100, None, False],
               "--max-repos": ["max_repos", None, None, False],
               "--min-interval": ["min_interval", 0.72, None, False]},
    "report": {"matches": ["matches", None, None, True],
               "--stats": ["stats", None, None, False],
               "--format": ["format", "text", ["summary", "text"], False],
               "--queries": ["queries", None, None, False],
               "--repos": ["repos", None, None, False],
               "-o/--out": ["out", None, None, False]},
    "pipeline": {"seed": ["seed", None, None, True],
                 "corpus": ["corpus", None, None, True],
                 "--lines": ["lines", None, None, False],
                 "--full": ["lines", None, None, False],
                 "--symbols": ["symbols", "preserve", ["preserve", "wildcard"], False],
                 "--jobs": ["jobs", 1, None, False],
                 "--out": ["out", "analogue-out", None, False],
                 "--no-depth-pruning": ["no_depth_pruning", False, None, False],
                 "--exact-arity": ["exact_arity", False, None, False]},
}

# The fewest arguments each command parses with.
MINIMAL_ARGV = {
    "ast": ["export", "f.php"], "derive": ["s.php"], "compile": ["t.jsonl"],
    "scan": ["q.json", "f.php"], "spider": [], "report": ["m.jsonl"],
    "mine": ["--repos", "r.txt", "--queries", "q", "--out", "o"],
    "pipeline": ["s.php", "corpus"],
}


def _commands(ap):
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _config_options(parser):
    """The options a config key may set: optional, not required, not -h."""
    return [a for a in parser._actions if a.option_strings and not a.required
            and not isinstance(a, argparse._HelpAction)]


def test_each_command_keeps_its_options_defaults_and_choices():
    commands = _commands(build_parser())
    assert set(commands) == set(PARSER_SPEC)
    for name, parser in commands.items():
        spec = {"/".join(a.option_strings) or a.dest:
                [a.dest, a.default, sorted(a.choices) if a.choices else None,
                 a.required]
                for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert spec == PARSER_SPEC[name], name


def _config_case(action):
    """A config value for the option and the parsed value it should give."""
    if isinstance(action.const, bool):
        return True, True
    if action.choices:
        value = next(c for c in sorted(action.choices) if c != action.default)
        return value, value
    if action.type is not None:
        return 7, 7
    value = "5:6" if action.dest == "lines" else "from-config"
    return value, value


def _parse_with_config(cfg: dict, tmp_path, *argv):
    """The arguments main() would hand to a command."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    ap = build_parser()
    cli._apply_config(ap, str(path))
    return ap.parse_args(list(argv))


def test_config_sets_every_optional_option_and_the_command_line_wins(tmp_path):
    cases = 0
    for name, parser in _commands(build_parser()).items():
        for action in _config_options(parser):
            value, parsed = _config_case(action)
            assert parsed != action.default
            args = _parse_with_config({action.dest: value}, tmp_path, name,
                                      *MINIMAL_ARGV[name])
            assert getattr(args, action.dest) == parsed, (name, action.dest)
            cases += 1
    assert cases == 36
    cfg = {"symbols": "wildcard", "jobs": 3, "lines": "5:6", "out": "cfg-out",
           "verbose": True}
    args = _parse_with_config(cfg, tmp_path, "pipeline", "s.php", "corpus")
    assert (args.symbols, args.jobs, args.lines, args.out, args.verbose) == \
        ("wildcard", 3, "5:6", "cfg-out", True)
    args = _parse_with_config(cfg, tmp_path, "pipeline", "s.php", "corpus",
                              "--symbols", "preserve", "--jobs", "2", "--full",
                              "--out", "cli-out")
    assert (args.symbols, args.jobs, args.lines, args.out) == \
        ("preserve", 2, None, "cli-out")
    # a required option stays on the command line
    args = _parse_with_config(cfg, tmp_path, "mine", *MINIMAL_ARGV["mine"])
    assert (args.out, args.jobs) == ("o", 3)


def test_full_overrides_a_configured_slice(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lines": "5:6"}))
    seed = str(FIXTURES / "tutorial_books.php")
    code, out, _ = run(capsys, "--config", str(cfg), "derive", seed)
    assert code == 0 and json.loads(out.splitlines()[0])["origin"]["lines"] == [5, 6]
    code, out, _ = run(capsys, "--config", str(cfg), "derive", seed, "--full")
    assert code == 0 and json.loads(out.splitlines()[0])["origin"]["lines"] != [5, 6]


@pytest.mark.parametrize("cfg, named", [
    ({"lines": "5:6", "jbos": 4}, "jbos"),
    ({"full": True}, "full"),
    ({"config": "other.json"}, "config"),
    ({"help": True}, "help"),
    ({"mode": "strict"}, "mode"),
])
def test_an_unknown_config_key_is_an_error(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "--config", str(path), "derive",
                         str(FIXTURES / "tutorial_books.php"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and repr(named) in err


@pytest.mark.parametrize("cfg", [
    {"symbols": "bogus"}, {"format": "html"},
    {"exact_arity": "yes"}, {"verbose": 1}, {"lines": True}, {"out": ["a"]},
])
def test_a_bad_config_value_is_an_error_not_a_traceback(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "--config", str(path), "derive",
                       str(FIXTURES / "tutorial_books.php"))
    assert code == 1
    assert err.startswith("error: config key %r" % next(iter(cfg)))
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs, configured", [("0", 0), ("-1", -1), ("two", "two")])
def test_jobs_below_one_is_a_usage_error_from_either_source(tmp_path, capsys, jobs,
                                                           configured):
    argv = ["mine", *MINIMAL_ARGV["mine"]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": configured}))
    for source in ([*argv, "--jobs", jobs], ["--config", str(cfg), *argv]):
        with pytest.raises(SystemExit) as exc:
            main(source)
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "argument --jobs: expected a whole number >= 1" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("option, value, configured, expected", [
    ("--min-interval", "inf", "inf", "a number of seconds from 0"),
    ("--min-interval", "1e300", 1e300, "a number of seconds from 0"),
    ("--min-interval", "nan", "nan", "a number of seconds from 0"),
    ("--min-interval", "-1", -1, "a number of seconds from 0"),
    ("--min-interval", "soon", "soon", "a number of seconds from 0"),
    ("--max-repos", "0", 0, "a whole number >= 1"),
    ("--max-repos", "-2", -2, "a whole number >= 1"),
    ("--per-page", "0", 0, "a whole number >= 1"),
], ids=["inf", "1e300", "nan", "negative", "word", "max-repos-0", "max-repos-negative",
        "per-page-0"])
def test_a_spider_option_out_of_range_is_a_usage_error_from_either_source(
        tmp_path, capsys, monkeypatch, option, value, configured, expected):
    """Before, inf and 1e300 ended in an OverflowError from time.sleep, nan
    and -1 spaced no requests, --max-repos 0 and -2 wrote one repository and
    --per-page 0 wrote none."""
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    hub = MockHub()
    for i in range(3):
        hub.add_repo(i + 1, "o/r%d" % i, language="PHP")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option[2:].replace("-", "_"): configured}))
    out = tmp_path / "repos.jsonl"
    with hub:
        argv = ["spider", "--api-base", hub.base_url, "--out", str(out)]
        for source in ([*argv, option, value], ["--config", str(cfg), *argv]):
            with pytest.raises(SystemExit) as exc:
                main(source)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: analogue spider")
            assert "argument %s: expected %s" % (option, expected) in err
            assert "Traceback" not in err
        assert hub.requests_seen == [] and not out.exists()


def test_spider_options_at_the_edge_of_their_range_are_taken(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    hub = MockHub()
    for i in range(3):
        hub.add_repo(i + 1, "o/r%d" % i, language="PHP")
    out = tmp_path / "repos.jsonl"
    with hub:
        code, _, _ = run(capsys, "spider", "--api-base", hub.base_url, "--out", str(out),
                         "--min-interval", "0", "--per-page", "1", "--max-repos", "1")
    assert code == 0
    assert [json.loads(ln)["full_name"] for ln in out.read_text().splitlines()] == ["o/r0"]


def test_spider_filters_language_and_size_as_the_library_does(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    hub = MockHub()
    hub.add_repo(1, "o/upper-php", size_kb=499, language="PHP")
    hub.add_repo(2, "o/at-limit", size_kb=500, language="php")
    hub.add_repo(3, "o/js", size_kb=100, language="JavaScript")
    hub.add_repo(4, "o/unknown", size_kb=100, language="")

    def spidered(*argv):
        out_file = tmp_path / "repos.jsonl"
        code, _, _ = run(capsys, "spider", "--api-base", hub.base_url,
                         "--out", str(out_file), "--min-interval", "0", *argv)
        assert code == 0
        return {json.loads(ln)["full_name"]
                for ln in out_file.read_text().splitlines()}

    with hub:
        assert spidered("--language", "php", "--max-size-kb", "500") == \
            {"o/upper-php"}
        assert spidered("--language", "", "--max-size-kb", "501") == \
            {"o/upper-php", "o/at-limit", "o/js", "o/unknown"}


def _readme_commands() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    return [ln for ln in block.replace("\\\n", " ").splitlines()
            if ln.startswith("analogue ")]


def test_every_readme_cli_example_parses():
    commands = _readme_commands()
    assert len(commands) == 12
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.func is not None, line


def _books_query(capsys, queries: Path) -> None:
    queries.mkdir()
    assert run(capsys, "derive", str(FIXTURES / "tutorial_books.php"), "--lines", "5:6",
               "-o", str(queries / "sqli.tmpl.jsonl"))[0] == 0


@pytest.mark.parametrize("listed", [["a/proj", "b/proj"], ["a/proj", "a/proj"],
                                    ["a/proj", "./a/proj/"]])
def test_two_repositories_with_one_id_are_an_error(tmp_path, capsys, monkeypatch,
                                                   listed):
    """Two repositories with one id would write records that cannot be told
    apart, so mine refuses them as it refuses two files with one query."""
    monkeypatch.chdir(tmp_path)
    for rel in ("a/proj", "b/proj"):
        (tmp_path / rel).mkdir(parents=True)
        shutil.copy(FIXTURES / "tutorial_books.php", tmp_path / rel / "x.php")
    _books_query(capsys, tmp_path / "queries")
    (tmp_path / "repos.txt").write_text("\n".join(listed) + "\n")
    code, out, err = run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
                         "--out", "out")
    assert (code, out) == (1, "")
    assert err == "error: %s and %s have the same repository id 'proj'\n" % tuple(listed)
    assert not (tmp_path / "out").exists()


def test_a_repository_list_line_ends_at_newline_only(tmp_path, capsys, monkeypatch):
    """A listed path may hold U+2028, U+2029, \\x85 or a form feed, which
    str.splitlines would break it at."""
    monkeypatch.chdir(tmp_path)
    names = ["a\u2028b", "c\x85d", "e\u2029f", "g\x0ch"]
    for name in names:
        (tmp_path / name).mkdir()
        shutil.copy(FIXTURES / "tutorial_books.php", tmp_path / name / "index.php")
    _books_query(capsys, tmp_path / "queries")
    Path("repos.txt").write_text("".join(n + "\n" for n in names), encoding="utf-8")
    code, out, err = run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
                         "--out", "out")
    assert (code, err) == (0, "")
    assert out.startswith("scanned 4 repositories, 4 matches")
    stats = [json.loads(ln) for ln in Path("out", "stats.jsonl").read_text().split("\n")
             if ln]
    assert sorted({s["repo"] for s in stats}) == sorted(names)


def test_mine_skips_an_indented_comment_in_the_repository_list(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repo").mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", tmp_path / "repo" / "index.php")
    _books_query(capsys, tmp_path / "queries")
    (tmp_path / "repos.txt").write_text("# corpus\n  # its one repository\n\n  repo  \n")
    code, out, err = run(capsys, "mine", "--repos", "repos.txt", "--queries", "queries",
                         "--out", "out")
    assert (code, err) == (0, "")
    assert out.startswith("scanned 1 repositories, 1 matches")


def test_pipeline_over_the_working_directory_names_it(tmp_path, capsys, monkeypatch):
    """`pipeline seed .` mines the working directory as one repository named
    after it, so its records name the repository and the file."""
    proj = tmp_path / "proj"
    proj.mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", proj / "x.php")
    monkeypatch.chdir(proj)
    out_dir = tmp_path / "out"
    assert run(capsys, "pipeline", "x.php", ".", "--lines", "5:6",
               "--out", str(out_dir))[0] == 0
    [match] = [json.loads(ln) for ln in (out_dir / "matches.jsonl").read_text().splitlines()]
    assert match["file"] == "proj/x.php"
    stats = [json.loads(ln) for ln in (out_dir / "stats.jsonl").read_text().splitlines()]
    assert [s["repo"] for s in stats] == ["proj"]


def test_scan_splits_each_file_once(tmp_path, capsys, monkeypatch):
    """A file's text is split into lines once, for all of its excerpts."""
    seed = tmp_path / "seed.php"
    seed.write_text("<?php\necho $a;\n")
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", str(seed), "--full", "-o", str(tmpl))[0] == 0
    files = []
    for name, count in (("a.php", 300), ("b.php", 200)):
        (tmp_path / name).write_text("<?php\n" + "echo $x;\n" * count)
        files.append(str(tmp_path / name))
    calls = []
    split = engine.source_lines

    def counted(text):
        calls.append(len(text))
        return split(text)

    # patched in both modules, so a split made by either is counted
    monkeypatch.setattr(engine, "source_lines", counted)
    monkeypatch.setattr(cli, "source_lines", counted, raising=False)
    code, out, _ = run(capsys, "scan", str(tmpl), *files)
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()]
    assert len(records) == 500
    assert records[-1] == {"query": records[0]["query"], "file": files[1],
                           "lines": [201, 201], "stmt_index": 199,
                           "bindings": {"0": "$x"}, "excerpt": "echo $x;"}
    assert len(calls) == len(files)


@pytest.mark.parametrize("command", ["mine", "scan", "report"])
def test_a_query_file_that_is_not_utf8_is_an_error_not_a_traceback(tmp_path, capsys,
                                                                    monkeypatch, command):
    """A query file is read as every other text input is, as strict UTF-8,
    so bytes that are not UTF-8 are an error that names the file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "repo").mkdir()
    shutil.copy(FIXTURES / "tutorial_books.php", tmp_path / "repo" / "index.php")
    (tmp_path / "repos.txt").write_text("repo\n")
    (tmp_path / "matches.jsonl").write_text(json.dumps(MATCH) + "\n")
    (tmp_path / "q").mkdir()
    (tmp_path / "q" / "bad.json").write_bytes(b'{"format": "prog-v1"\xff}\n')
    argv = {"mine": ["mine", "--repos", "repos.txt", "--queries", "q", "--out", "out"],
            "scan": ["scan", str(Path("q", "bad.json")), str(Path("repo", "index.php"))],
            "report": ["report", "matches.jsonl", "--queries", "q"]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: not UTF-8: " % Path("q", "bad.json"))


@pytest.mark.parametrize("source", ["template", "stdin", "repos", "matches"])
def test_a_stray_byte_in_a_text_input_is_an_error_naming_it(tmp_path, capsys,
                                                            monkeypatch, source):
    """A byte that is not UTF-8 is not read as U+FFFD: in a template's
    callee name that would make a query that matches nothing, and `scan`
    would exit 0 without naming the file."""
    monkeypatch.chdir(tmp_path)
    seed = str(FIXTURES / "tutorial_books.php")
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", seed, "--lines", "5:6", "-o", str(tmpl))[0] == 0
    good = tmpl.read_bytes()
    bad = good.replace(b'"name": "mysql_query"', b'"name": "mysql_query\xff"')
    assert bad != good
    (tmp_path / "q").mkdir()
    shutil.copy(tmpl, tmp_path / "q" / "q.tmpl.jsonl")
    name, argv = {
        "template": ("q.tmpl.jsonl", ["scan", "q.tmpl.jsonl", seed]),
        "stdin": ("-", ["scan", "-", seed]),
        "repos": ("repos.txt", ["mine", "--repos", "repos.txt", "--queries", "q",
                                "--out", "out"]),
        "matches": ("matches.jsonl", ["report", "matches.jsonl"]),
    }[source]
    if source == "template":
        tmpl.write_bytes(bad)
    elif source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bad)))
    elif source == "repos":
        (tmp_path / "repos.txt").write_bytes(b"repo\xff\n")
    else:
        (tmp_path / "matches.jsonl").write_bytes(
            json.dumps(MATCH).encode().replace(b'"a.php"', b'"a\xff.php"') + b"\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s: not UTF-8: 'utf-8' codec can't decode byte 0xff"
                          % name)


@pytest.mark.parametrize("source", ["query", "stats", "config", "ast", "compile"])
def test_json_nested_too_deep_is_invalid_json_where_it_is_read(tmp_path, capsys,
                                                              monkeypatch, source):
    """JSON nested past the decoder's recursion limit is invalid JSON where
    it is read, never a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000 + "\n")
    (tmp_path / "matches.jsonl").write_text(json.dumps(MATCH) + "\n")
    seed = str(FIXTURES / "tutorial_books.php")
    argv, start = {
        "query": (["scan", "deep.json", seed], "error: deep.json line 1: not valid JSON: "),
        "stats": (["report", "matches.jsonl", "--format", "summary", "--stats",
                   "deep.json"], "error: deep.json line 1: not valid JSON: "),
        "config": (["--config", "deep.json", "scan", "deep.json", seed],
                   "error: cannot read config deep.json: "),
        "ast": (["ast", "import", "deep.json"], "error: deep.json line 1: not valid JSON: "),
        "compile": (["compile", "deep.json"], "error: deep.json line 1: not valid JSON: "),
    }[source]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(start) and "recursion" in err


def test_a_query_file_is_read_by_the_one_reader_its_format_chooses(tmp_path, capsys,
                                                                   monkeypatch):
    """A prog-v1 document is read as a program and anything else as a
    template; the error is that reader's alone, naming the file, and for a
    template the line."""
    monkeypatch.chdir(tmp_path)
    seed = str(FIXTURES / "tutorial_books.php")
    assert run(capsys, "derive", seed, "--lines", "5:6", "-o", "q.tmpl.jsonl")[0] == 0
    lines = Path("q.tmpl.jsonl").read_text().splitlines(keepends=True)
    lines[2] = '{"id": "x", "kind": "Var"}\n'
    Path("bad.tmpl.jsonl").write_text("".join(lines))
    Path("empty.json").write_text("")
    Path("empty.prog.json").write_text('{"format": "prog-v1", "query_id": "q", "steps": []}')
    node = "a node record needs an int 'id' and a str 'kind'"
    for argv, message in [
            (["scan", "bad.tmpl.jsonl", seed], "bad.tmpl.jsonl line 3: " + node),
            (["compile", "bad.tmpl.jsonl"], "bad.tmpl.jsonl line 3: " + node),
            (["scan", "empty.json", seed], "empty.json: missing 'tmpl-v2' header"),
            (["scan", "empty.prog.json", seed], "empty.prog.json: step 0: a statement "
             "opens with a kind step, not the end of the program")]:
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message)


def test_pipeline_reports_as_report_does_over_its_matches(tmp_path, capsys):
    """pipeline renders report.txt from the matches.jsonl it wrote, so it
    equals `report` over that file with the seed's template as the query."""
    corpus = tmp_path / "corpus"
    seed = FIXTURES / "tutorial_search.php"
    for repo, source in (("repoX", "clone_users.php"), ("repoY", "tutorial_search.php"),
                         ("repoZ", "tutorial_books.php")):
        (corpus / repo).mkdir(parents=True)
        shutil.copy(FIXTURES / source, corpus / repo / "page.php")
    out_dir = tmp_path / "out"
    code, piped, _ = run(capsys, "pipeline", str(seed), str(corpus), "--lines", "4:6",
                         "--out", str(out_dir))
    assert code == 0
    queries = tmp_path / "q"
    queries.mkdir()
    assert run(capsys, "derive", str(seed), "--lines", "4:6",
               "-o", str(queries / "seed.tmpl.jsonl"))[0] == 0
    code, reported, _ = run(capsys, "report", str(out_dir / "matches.jsonl"),
                            "--queries", str(queries))
    assert code == 0
    assert piped == reported == (out_dir / "report.txt").read_text()
    assert "3 analogues" in reported and "  seed: " in reported


def _scan_files_of_every_kind(tmp_path: Path, capsys) -> tuple[str, dict[str, Path]]:
    """A query on tutorial_books.php's lines 5:6, and files that match it
    (good, other), hold a NUL byte (bin), do not parse (broken) and do not
    exist (missing)."""
    seed = FIXTURES / "tutorial_books.php"
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", str(seed), "--lines", "5:6", "-o", str(tmpl))[0] == 0
    files = {name: tmp_path / (name + ".php")
             for name in ("good", "bin", "broken", "missing", "other")}
    shutil.copy(seed, files["good"])
    shutil.copy(seed, files["other"])
    files["bin"].write_bytes(b"<?php\x00\n" + seed.read_bytes())
    files["broken"].write_text("<?php\nmysql_query(\n")
    return str(tmpl), files


def test_scan_skips_what_mine_skips_and_goes_on(tmp_path, capsys):
    """A file that cannot be scanned is a warning on stderr; the other files'
    records are still written, in file order, and the exit status is 0."""
    tmpl, files = _scan_files_of_every_kind(tmp_path, capsys)
    want = ""
    for name in ("good", "other"):
        code, out, err = run(capsys, "scan", tmpl, str(files[name]))
        assert (code, err, len(out.splitlines())) == (0, "", 1)
        want += out
    code, out, err = run(capsys, "scan", tmpl, *map(str, files.values()))
    assert (code, out) == (0, want)
    warnings = err.splitlines()
    assert len(warnings) == 3
    assert warnings[0] == "warning: skipped %s: binary" % files["bin"]
    assert warnings[1].startswith("warning: skipped %s: parse-error: " % files["broken"])
    assert warnings[2].startswith("warning: skipped %s: unreadable: " % files["missing"])

    out_file = tmp_path / "matches.jsonl"
    code, out, err2 = run(capsys, "scan", tmpl, *map(str, files.values()),
                          "--out", str(out_file))
    assert (code, out, err2) == (0, "", err)
    assert out_file.read_text() == want


def test_scan_skips_a_file_that_nests_too_deep(tmp_path, capsys):
    tmpl, files = _scan_files_of_every_kind(tmp_path, capsys)
    deep = tmp_path / "deep.php"
    deep.write_text("<?php\n$x = " + "(" * 3000 + "$y" + ")" * 3000 + ";\n")
    code, out, err = run(capsys, "scan", tmpl, str(files["good"]), str(deep),
                         str(files["other"]))
    assert (code, len(out.splitlines())) == (0, 2)
    assert err == ("warning: skipped %s: too-deep: nesting exceeds the parser's "
                   "recursion limit\n" % deep)


def test_scan_reads_standard_input_for_a_dash(tmp_path, capsys, monkeypatch):
    seed = FIXTURES / "tutorial_books.php"
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", str(seed), "--lines", "5:6", "-o", str(tmpl))[0] == 0
    from_file = run(capsys, "scan", str(tmpl), str(seed))[1]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(seed.read_bytes())))
    code, out, err = run(capsys, "scan", str(tmpl), "-")
    assert (code, err) == (0, "")
    assert [dict(json.loads(r), file=str(seed)) for r in out.splitlines()] \
        == [json.loads(r) for r in from_file.splitlines()]
    assert [json.loads(r)["file"] for r in out.splitlines()] == ["-"]


def test_scan_agrees_with_mine(tmp_path, capsys):
    """scan over a repository's files gives each query's records in mine's
    matches.jsonl, and warns of the files in skipped.jsonl, for the same
    reasons: a binary file, an unparsable one, and one with a NUL byte
    inside a string literal, which mine takes for binary."""
    seeds = distinct_snippets(random.Random(5), 3, n_statements=2)
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=1, files_per_repo=4)
    repo = tmp_path / "corpus" / "repo000"
    planted = (repo / "src" / "file0.php").read_bytes()
    (repo / "src" / "nul_in_string.php").write_bytes(planted + b'$pad = "a\x00b";\n')
    (repo / "src" / "bin.php").write_bytes(b"\x00\x01" + planted)
    (repo / "broken.php").write_text("<?php\nfunction (\n")
    queries = tmp_path / "queries"
    queries.mkdir()
    for s in seeds:
        (tmp_path / (s.name + ".php")).write_text(render_file(render_snippet(s)))
        assert run(capsys, "derive", str(tmp_path / (s.name + ".php")), "--full",
                   "-o", str(queries / (s.name + ".tmpl.jsonl")))[0] == 0
    (tmp_path / "repos.txt").write_text(str(repo) + "\n")
    assert run(capsys, "mine", "--repos", str(tmp_path / "repos.txt"),
               "--queries", str(queries), "--out", str(tmp_path / "out"))[0] == 0
    mined = [json.loads(r) for r in (tmp_path / "out" / "matches.jsonl").read_text()
             .splitlines()]
    skipped = [json.loads(r) for r in (tmp_path / "out" / "skipped.jsonl").read_text()
               .splitlines()]
    assert {s["reason"] for s in skipped} == {"binary", "parse-error"}
    assert len(skipped) == 3

    path_of = {"repo000/" + rel: str(repo / rel) for rel in discover_files(repo)}
    want_err = "".join("warning: skipped %s\n" % ": ".join(
        filter(None, (path_of[s["file"]], s["reason"], s["detail"])))
        for s in skipped)
    found = 0
    for tmpl in sorted(queries.iterdir()):
        qid = cli.load_query(tmpl).query_id
        code, out, err = run(capsys, "scan", str(tmpl), *path_of.values())
        assert (code, err) == (0, want_err)
        scanned = [json.loads(r) for r in out.splitlines()]
        assert scanned == [dict(r, file=path_of[r["file"]]) for r in mined
                           if r["query"] == qid]
        found += len(scanned)
    assert found == len(mined) > 0


def test_a_seed_that_unpacks_an_array_finds_its_copy_not_a_malformed_statement(tmp_path,
                                                                               capsys):
    """The seed's first statement unpacks an array.  Read as a malformed
    statement, it was an Other:opaque node, and the query matched any
    malformed statement followed by the same call."""
    seed = tmp_path / "seed.php"
    seed.write_text('<?php\n$opts = [...$defaults, $_GET["id"]];\n'
                    'mysql_query("SELECT * FROM t WHERE id = " . $opts[1]);\n')
    target = tmp_path / "target.php"
    target.write_text('<?php\n$cfg = [...$base, $_GET["id"]];\n'
                      'mysql_query("SELECT * FROM t WHERE id = " . $cfg[1]);\n'
                      '$opts = f(1 2);\n'
                      'mysql_query("SELECT * FROM t WHERE id = " . $opts[1]);\n')
    tmpl = tmp_path / "q.tmpl.jsonl"
    assert run(capsys, "derive", str(seed), "--full", "-o", str(tmpl))[0] == 0
    code, out, err = run(capsys, "scan", str(tmpl), str(target))
    assert (code, err) == (0, "")
    assert [json.loads(r)["lines"] for r in out.splitlines()] == [[2, 3]]
