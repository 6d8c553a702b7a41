"""End-to-end workflow: spider a mock hub, mine the downloads, triage."""
from __future__ import annotations

import json
from pathlib import Path

from analogue.cli import main
from analogue.testing import MockHub

FIXTURES = Path(__file__).parent / "fixtures"

VULNERABLE_PAGE = """<?php
// quick search page
$needle = $_POST['needle'];
$found = mysql_query("SELECT id FROM docs WHERE body LIKE '%$needle%'");
while ($row = mysql_fetch_array($found)) {
    echo $row['id'];
}
"""

BENIGN_PAGE = """<?php
$config = parse_ini_file('app.ini');
echo '<h1>welcome</h1>';
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spider_mine_report_composition(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GITHUB_TOKEN", raising=False)
    hub = MockHub()
    hub.add_repo(1, "ada/search-widget", stars=1, size_kb=90,
                 files={"page.php": VULNERABLE_PAGE, "readme.txt": "docs"})
    hub.add_repo(2, "bo/cms", stars=6, size_kb=200,
                 files={"index.php": BENIGN_PAGE})
    hub.add_repo(3, "cy/site", stars=40, size_kb=150,
                 files={"search.php": VULNERABLE_PAGE})

    corpus = tmp_path / "corpus"
    repos_file = tmp_path / "repos.jsonl"
    with hub:
        code, _, _ = run(capsys, "spider", "--api-base", hub.base_url,
                         "--out", str(repos_file), "--min-interval", "0",
                         "--download", str(corpus))
        assert code == 0
    spidered = [json.loads(ln) for ln in repos_file.read_text().splitlines()]
    assert len(spidered) == 3
    assert all("local_path" in r for r in spidered)

    # strict query from the tutorial transcription's vulnerable lines
    queries = tmp_path / "queries"
    queries.mkdir()
    tmpl = queries / "sqli.tmpl.jsonl"
    assert run(capsys, "derive", str(FIXTURES / "tutorial_books.php"),
               "--lines", "5:6", "-o", str(tmpl))[0] == 0

    repo_list = tmp_path / "repolist.txt"
    repo_list.write_text("\n".join(r["local_path"] for r in spidered) + "\n")
    out_dir = tmp_path / "mined"
    code, out, _ = run(capsys, "mine", "--repos", str(repo_list),
                       "--queries", str(queries), "--jobs", "2",
                       "--out", str(out_dir))
    assert code == 0

    records = [json.loads(ln) for ln in
               (out_dir / "matches.jsonl").read_text().splitlines()]
    # the two planted clones are found; the benign repo stays clean
    hit_repos = {r["file"].split("/")[0] for r in records}
    assert hit_repos == {"ada__search-widget", "cy__site"}
    assert all(r["lines"] == [3, 4] for r in records)

    code, out, _ = run(capsys, "report", str(out_dir / "matches.jsonl"),
                       "--repos", str(repos_file), "--format", "summary")
    assert code == 0
    lines = out.splitlines()
    not_popular = next(ln for ln in lines if ln.startswith("Not popular"))
    very_popular = next(ln for ln in lines if ln.startswith("Very popular"))
    popular = next(ln for ln in lines if ln.startswith("Popular"))
    assert " 1 " in not_popular and " 1 " in very_popular
    assert " 0 " in popular
    assert next(ln for ln in lines if ln.startswith("Total")).split()[1] == "2"
