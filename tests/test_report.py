from __future__ import annotations

import json

import pytest

from analogue.report import (bucket_resolver, load_match_records,
                             render_summary, render_text, rows_from_records)


def rec(file="repoA/src/x.php", lines=(3, 4), query="q1", bindings=None,
        excerpt="line a\nline b"):
    return {"query": query, "file": file, "lines": list(lines),
            "stmt_index": 0, "bindings": bindings or {"0": "$a"},
            "excerpt": excerpt}


def test_load_skips_malformed_records():
    text = "\n".join([json.dumps(rec()), "{broken", json.dumps({"no": "file"}),
                      json.dumps(rec(file="b/y.php"))])
    records, skipped = load_match_records(text)
    assert len(records) == 2
    assert skipped == 2


def test_load_reads_a_record_holding_unicode_line_breaks():
    # json.dumps(..., ensure_ascii=False) leaves U+2028, U+2029 and U+0085
    # unescaped inside a string; each record still ends at "\n" only
    text = "\r\n".join(json.dumps(rec(excerpt="a\u2028b\u2029c\x85d", file=f),
                                  ensure_ascii=False) for f in ("a/x.php", "b/y.php"))
    records, skipped = load_match_records(text)
    assert skipped == 0
    assert [(r["file"], r["excerpt"]) for r in records] == [
        ("a/x.php", "a\u2028b\u2029c\x85d"), ("b/y.php", "a\u2028b\u2029c\x85d")]


@pytest.mark.parametrize("bad", [
    dict(lines=[1]), dict(lines=[1, "2"]), dict(lines="12"), dict(lines=[1.0, 2]),
    dict(file=None), dict(bindings=["$a"]), dict(bindings={"x": "$a"}),
    dict(bindings={"0": 1}), dict(query=["q"]), dict(excerpt=None),
])
def test_load_skips_a_record_the_report_cannot_render(bad, caplog):
    text = "\n".join([json.dumps(rec()), json.dumps({**rec(), **bad})])
    records, skipped = load_match_records(text)
    assert (records, skipped) == ([rec()], 1)
    assert "skipping malformed match record 1" in caplog.text


def test_row_count_equals_record_count_and_sorted():
    records = [rec(file="b/y.php", lines=(9, 9)),
               rec(file="a/x.php", lines=(7, 8)),
               rec(file="a/x.php", lines=(2, 3))]
    rows = rows_from_records(records)
    assert len(rows) == len(records)
    assert [(r.file, r.line_start) for r in rows] == [
        ("a/x.php", 2), ("a/x.php", 7), ("b/y.php", 9)]


def test_text_report_contains_excerpt_bindings_and_origin():
    rows = rows_from_records([rec()], origins={"q1": "seed.php:5-6"})
    text = render_text(rows)
    assert "repoA/src/x.php:3-4" in text
    assert "seed: seed.php:5-6" in text
    assert "0=$a" in text
    assert "| line a" in text
    assert "1 analogue" in text


def test_text_report_breaks_an_excerpt_at_newlines_only():
    """An excerpt's lines end at "\\n", as attach_excerpt joins them: a form
    feed, U+2028 or \\x85 in a comment stays inside its line."""
    rows = rows_from_records([rec(excerpt="$a = 1; // \f\n$b = 2; // \u2028 \x85"),
                              rec(file="b/y.php", excerpt="")])
    excerpt = [ln for ln in render_text(rows).split("\n") if ln.startswith("  |")]
    assert excerpt == ["  | $a = 1; // \f", "  | $b = 2; // \u2028 \x85"]


def test_empty_report():
    assert render_text([]) == "0 analogues\n"


def test_bucket_resolution_from_spider_records():
    repo_records = [
        {"full_name": "owner/repoA", "bucket": "not-popular"},
        {"full_name": "owner/repoB", "bucket": "very-popular"},
    ]
    resolve = bucket_resolver(repo_records)
    assert resolve("owner__repoA/src/x.php") == "not-popular"
    assert resolve("repoB/lib/y.php") == "very-popular"
    assert resolve("unknown/z.php") is None


def test_summary_counts_per_bucket_and_total():
    repo_records = [{"full_name": "o/a", "bucket": "not-popular"},
                    {"full_name": "o/b", "bucket": "popular"}]
    resolve = bucket_resolver(repo_records)
    records = [rec(file="o__a/x.php"), rec(file="o__a/x.php"),
               rec(file="o__b/y.php"), rec(file="elsewhere/z.php")]
    rows = rows_from_records(records, bucket_for=resolve)
    summary = render_summary(rows)
    lines = summary.splitlines()
    assert any(ln.startswith("Not popular") and " 2 " in ln for ln in lines)
    assert any(ln.startswith("Popular") and " 1 " in ln for ln in lines)
    assert any(ln.startswith("Very popular") for ln in lines)
    assert any(ln.startswith("unclassified") for ln in lines)
    total = next(ln for ln in lines if ln.startswith("Total"))
    assert " 4 " in total



def test_summary_text_is_pinned_byte_for_byte():
    """All three canonical buckets (Popular empty), two unknown buckets on
    either side of `unclassified`, repeated sites, and the empty table."""
    buckets = {"a": "not-popular", "c": "very-popular", "m": "mystery",
               "z": "zeta"}
    records = [rec(file="a/x.php"), rec(file="a/x.php"),
               rec(file="a/y.php", lines=(1, 2)), rec(file="c/x.php"),
               rec(file="m/x.php"), rec(file="z/x.php"),
               rec(file="z/x.php", lines=(5, 9)), rec(file="u/x.php"),
               rec(file="u/x.php")]
    rows = rows_from_records(
        records, bucket_for=lambda f: buckets.get(f.split("/")[0]))
    assert render_summary(rows) == (
        "Data set        Analogues      Sites  Vulnerabilities\n"
        "Not popular             3          2  (manual review)\n"
        "Popular                 0          0  (manual review)\n"
        "Very popular            1          1  (manual review)\n"
        "mystery                 1          1  (manual review)\n"
        "unclassified            2          1  (manual review)\n"
        "zeta                    2          2  (manual review)\n"
        "Total                   9          7\n")
    assert render_summary([]) == (
        "Data set        Analogues      Sites  Vulnerabilities\n"
        "Not popular             0          0  (manual review)\n"
        "Popular                 0          0  (manual review)\n"
        "Very popular            0          0  (manual review)\n"
        "Total                   0          0\n")

def test_three_analogue_scan_renders_three_rows():
    # scanning the three lookalike fixtures with the wildcarded slice query
    # produces one record each; the report shows exactly those three rows
    from pathlib import Path

    from analogue.astree import slice_statements
    from analogue.compiler import compile_template
    from analogue.engine import match_to_record, scan_unit
    from analogue.php_parser import parse_source
    from analogue.template import derive_template

    fixtures = Path(__file__).parent / "fixtures"
    seed = parse_source((fixtures / "tutorial_search.php").read_text(),
                        path="tutorial_search.php")
    t = derive_template(seed, slice_statements(seed, 4, 6), symbol_policy="wildcard")
    program = compile_template(t)
    records = []
    for name in ("clone_users.php", "clone_products.php", "clone_flights.php"):
        unit = parse_source((fixtures / name).read_text(), path=name)
        records += [match_to_record(m) for m in scan_unit(program, unit)[0]]
    rows = rows_from_records(records)
    assert len(rows) == 3
    assert "3 analogues" in render_text(rows)


def test_summary_totals_equal_row_count():
    records = [rec(file="f%d/x.php" % i, lines=(i + 1, i + 2)) for i in range(7)]
    rows = rows_from_records(records)
    total_line = next(ln for ln in render_summary(rows).splitlines()
                      if ln.startswith("Total"))
    assert "7" in total_line
