from __future__ import annotations

import json

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
    t = derive_template(seed, slice_statements(seed, 4, 6), mode="strict",
                        symbol_policy="wildcard")
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
