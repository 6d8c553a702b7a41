from __future__ import annotations

import argparse
import io
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from analogue import cli
from analogue.cli import build_parser, main
from analogue.mock_api import MockHub
from analogue.spider import SystemClock

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


MATCH = {"query": "q", "file": "a.php", "lines": [1, 2], "bindings": {"0": "$a"},
         "excerpt": "$a = 1;"}


@pytest.mark.parametrize("option,line,reason", [
    ("--stats", "{oops", "not valid JSON: Expecting property name"),
    ("--stats", "[1]", "not a JSON object"),
    ("--stats", '{"query": "q", "wall_time_s": "1s"}', "'wall_time_s' has the wrong type"),
    ("--stats", '{"query": "q", "wall_time_s": true}', "'wall_time_s' has the wrong type"),
    ("--stats", '{"query": "q", "node_comparisons": true}',
     "'node_comparisons' has the wrong type"),
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


def test_too_deep_input_is_an_error_not_a_traceback(tmp_path, capsys):
    # a chain of any length derives; 3,000 nested parentheses do not parse
    deep = tmp_path / "deep.php"
    deep.write_text("<?php\n$x = " + "(" * 3000 + "$y" + ")" * 3000 + ";\n")
    (tmp_path / "corpus" / "repo").mkdir(parents=True)
    for argv in (["derive", str(deep)],
                 ["pipeline", str(deep), str(tmp_path / "corpus"),
                  "--out", str(tmp_path / "out")]):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: too-deep: ") and "Traceback" not in err


def test_pipeline_names_failed_repositories_as_mine_does(tmp_path, capsys,
                                                         monkeypatch):
    from analogue import miner
    corpus = tmp_path / "corpus"
    for name in ("repoA", "repoB"):
        (corpus / name).mkdir(parents=True)
        shutil.copy(FIXTURES / "clone_users.php", corpus / name / "page.php")
    real_scan = miner.scan_unit

    def flaky_scan(program, unit, opts=None):
        if unit.path.startswith("repoA/"):
            raise ValueError("cannot handle %s" % unit.path)
        return real_scan(program, unit, opts)

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


# Each command's options as `analogue` declared them before they were shared
# between commands: "/"-joined option strings (or a positional's dest) ->
# [dest, default, sorted choices, required].  The one change since is that
# --full stores None into `lines` rather than True into `full`.
PARSER_SPEC = {
    "ast": {"action": ["action", None, ["export", "import"], True],
            "file": ["file", None, None, True],
            "-o/--out": ["out", None, None, False]},
    "derive": {"snippet": ["snippet", None, None, True],
               "--lines": ["lines", None, None, False],
               "--full": ["lines", None, None, False],
               "--mode": ["mode", None, ["normal", "strict"], False],
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
    assert cases == 37
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
    assert code == 0 and json.loads(out.splitlines()[0])["mode"] == "strict"
    code, out, _ = run(capsys, "--config", str(cfg), "derive", seed, "--full")
    assert code == 0 and json.loads(out.splitlines()[0])["mode"] == "normal"


@pytest.mark.parametrize("cfg, named", [
    ({"lines": "5:6", "jbos": 4}, "jbos"),
    ({"full": True}, "full"),
    ({"config": "other.json"}, "config"),
    ({"help": True}, "help"),
])
def test_an_unknown_config_key_is_an_error(tmp_path, capsys, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "--config", str(path), "derive",
                         str(FIXTURES / "tutorial_books.php"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and repr(named) in err


@pytest.mark.parametrize("cfg", [
    {"symbols": "bogus"}, {"format": "html"}, {"mode": None},
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
