from __future__ import annotations

import json
import shutil
from pathlib import Path

from analogue.cli import main
from analogue.mock_api import MockHub

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
    assert header["mode"] == "strict"

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


def test_derive_full_mode(tmp_path, capsys):
    seed = str(FIXTURES / "clone_users.php")
    code, out, _ = run(capsys, "derive", seed, "--full")
    assert code == 0
    assert json.loads(out.splitlines()[0])["mode"] == "normal"


def test_derive_full_on_one_line_file(tmp_path, capsys):
    one = tmp_path / "one.php"
    one.write_text("<?php $v = $_GET['k'];\n")
    code, out, _ = run(capsys, "derive", str(one), "--full")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["mode"] == "normal"
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


def test_ast_import_rejects_bad_stream(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "ast-v1", "path": "x", "root": 0}\n'
                   '{"id": 0, "kind": "StmtList", "children": [9]}\n')
    code, _, err = run(capsys, "ast", "import", str(bad))
    assert code == 1
    assert "dangling" in err


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
