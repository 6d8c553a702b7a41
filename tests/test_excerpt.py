"""Excerpts number lines the way the lexer does: by "\\n" only."""
from __future__ import annotations

import pytest

from analogue.compiler import compile_template
from analogue.engine import attach_excerpt, scan_unit, source_lines
from analogue.miner import mine_repositories
from analogue.php_parser import parse_source
from analogue.template import derive_template

SEED = "<?php\n$a = $_POST['x'];\nmysql_query(\"SELECT '$a'\");\n"
BODY = "$x = $_POST['q'];\nmysql_query(\"SELECT '$x'\");\n"
WANT = "$x = $_POST['q'];\nmysql_query(\"SELECT '$x'\");"


def program():
    unit = parse_source(SEED)
    t = derive_template(unit, unit.children_of(unit.nodes[unit.root]))
    return compile_template(t)


def excerpts(text: str) -> list[tuple[int, int, str]]:
    out = []
    for m in scan_unit(program(), parse_source(text))[0]:
        attach_excerpt(m, text)
        out.append((m.line_start, m.line_end, m.excerpt))
    return out


@pytest.mark.parametrize("breaker", ["\f", "\r", "\u2028", "\x85", "\v", "\x1c"])
def test_characters_other_than_newline_do_not_break_lines(breaker):
    # the comment on line 2 holds a character str.splitlines() would split at
    text = "<?php\n/* a%sb */\n%s" % (breaker, BODY)
    assert excerpts(text) == [(3, 4, WANT)]


def test_crlf_excerpt_equals_the_lf_excerpt():
    text = "<?php\n// c\n" + BODY
    crlf = text.replace("\n", "\r\n")
    assert excerpts(crlf) == excerpts(text) == [(3, 4, WANT)]


def test_only_one_carriage_return_is_dropped_per_line():
    text = "<?php\n$x = $_POST['q'];\r\r\nmysql_query(\"SELECT '$x'\");\n"
    assert excerpts(text) == [(2, 3, "$x = $_POST['q'];\r\nmysql_query(\"SELECT '$x'\");")]


def test_source_lines_splits_at_newline_only():
    assert source_lines("") == []
    assert source_lines("a\fb\n\rc\r\n") == ["a\fb", "\rc\r"]
    assert source_lines("a\n\n") == ["a", ""]
    assert source_lines("a") == ["a"]


def test_split_lines_give_the_same_excerpt_as_the_text():
    text = "<?php\n/* \f */\n" + BODY
    for m in scan_unit(program(), parse_source(text))[0]:
        assert attach_excerpt(m, source_lines(text)).excerpt == \
            attach_excerpt(m, text).excerpt == WANT


@pytest.mark.parametrize("prefix", ["", "\ufeff"])
def test_mined_excerpt_of_a_bom_file_has_no_bom(tmp_path, prefix):
    repo = tmp_path / "repo"
    repo.mkdir()
    # the match starts on line 1, right after the BOM and the open tag
    (repo / "a.php").write_text(prefix + "<?php $x = $_POST['q'];\n"
                                "mysql_query(\"SELECT '$x'\");\n", encoding="utf-8")
    (repo / "b.php").write_text(prefix + "<?php\n// c\n" + BODY, encoding="utf-8")
    result = mine_repositories([repo], [program()])[0]
    got = sorted((m.unit_path, m.line_start, m.excerpt) for m in result.matches)
    assert got == [("repo/a.php", 1, "<?php " + WANT), ("repo/b.php", 3, WANT)]
