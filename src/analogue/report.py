"""Render match records as human-readable triage reports.

Match records are read with jsonl, the reader of every JSON-lines format,
and checked as strictly: a record the report cannot render is skipped with a
warning and counted.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from . import jsonl
from .spider import NOT_POPULAR, POPULAR, VERY_POPULAR, local_name

log = logging.getLogger(__name__)

# The types of the match record fields a report reads, but lines (two ints).
MATCH_FIELDS = {"file": str, "query": str, "excerpt": str, "bindings": dict}

BUCKET_LABELS = {
    NOT_POPULAR: "Not popular",
    POPULAR: "Popular",
    VERY_POPULAR: "Very popular",
}


@dataclass
class ReportRow:
    query_id: str
    file: str
    line_start: int
    line_end: int
    bindings: dict[str, str]
    excerpt: str = ""
    origin: str | None = None
    bucket: str | None = None


def load_match_records(text: str) -> tuple[list[dict], int]:
    """Parse newline-delimited match records; a record that is not a JSON
    object with a str file, two int lines, bindings of class numbers to str
    names and the MATCH_FIELDS types is skipped with a warning.  Returns
    (records, skipped_count)."""
    records: list[dict] = []
    skipped: list[jsonl.RecordError] = []
    for i, rec in jsonl.read(text, skip=skipped.append):
        try:
            jsonl.fields(rec, MATCH_FIELDS, i)
            if "file" not in rec or not jsonl.ints(rec.get("lines"), 2):
                raise jsonl.RecordError("needs a file and two int lines", i)
            if not all(k.isdecimal() and type(v) is str
                       for k, v in rec.get("bindings", {}).items()):
                raise jsonl.RecordError("bindings must map class numbers to names", i)
        except jsonl.RecordError as e:
            skipped.append(e)
        else:
            records.append(rec)
    for e in skipped:   # in stream order, as read appends lazily
        log.warning("skipping malformed match %s", e)
    return records, len(skipped)


def bucket_resolver(repo_records: list[dict]):
    """Map a match file path to a popularity bucket via spidered metadata.

    Matches are keyed by path components, so both download trees (named by
    spider.local_name) and plain `name/...` mining trees resolve.
    """
    by_key: dict[str, str] = {}
    for rec in repo_records:
        bucket = rec.get("bucket")
        full_name = rec.get("full_name", "")
        if not bucket or not full_name:
            continue
        by_key[local_name(full_name)] = bucket
        by_key.setdefault(full_name.split("/")[-1], bucket)

    def resolve(file_path: str) -> str | None:
        for part in Path(file_path).parts:
            if part in by_key:
                return by_key[part]
        return None

    return resolve


def rows_from_records(records: list[dict], origins: dict[str, str] | None = None,
                      bucket_for=None) -> list[ReportRow]:
    rows = []
    for rec in records:
        lines = rec["lines"]
        query = rec.get("query", "")
        rows.append(ReportRow(
            query_id=query,
            file=rec["file"],
            line_start=lines[0], line_end=lines[1],
            bindings=rec.get("bindings", {}),
            excerpt=rec.get("excerpt", ""),
            origin=(origins or {}).get(query),
            bucket=bucket_for(rec["file"]) if bucket_for else None))
    rows.sort(key=lambda r: (r.file, r.line_start, r.query_id))
    return rows


def render_text(rows: list[ReportRow]) -> str:
    if not rows:
        return "0 analogues\n"
    out = []
    for r in rows:
        head = "[%s] %s:%d-%d" % (r.query_id or "?", r.file, r.line_start, r.line_end)
        if r.bucket:
            head += "  (%s)" % r.bucket
        out.append(head)
        if r.origin:
            out.append("  seed: %s" % r.origin)
        if r.bindings:
            out.append("  bindings: " + " ".join(
                "%s=%s" % (k, v) for k, v in sorted(r.bindings.items(),
                                                    key=lambda kv: int(kv[0]))))
        if r.excerpt:
            out.extend("  | " + ln for ln in r.excerpt.split("\n"))
        out.append("")
    out.append("%d analogue%s" % (len(rows), "" if len(rows) == 1 else "s"))
    return "\n".join(out) + "\n"


def render_summary(rows: list[ReportRow]) -> str:
    """Per-bucket analogue counts, shaped like a data-set partition table.

    Vulnerability confirmation is a manual step, so that column stays open.
    """
    counts: dict[str, int] = {}
    sites: dict[str, set] = {}
    for r in rows:
        key = r.bucket or "unclassified"
        counts[key] = counts.get(key, 0) + 1
        sites.setdefault(key, set()).add((r.file, r.line_start, r.line_end))
    order = [NOT_POPULAR, POPULAR, VERY_POPULAR]
    lines = ["%-14s %10s %10s  %s" % ("Data set", "Analogues", "Sites", "Vulnerabilities")]
    total = 0
    total_sites = 0
    for bucket in order + sorted(k for k in counts if k not in order):
        n, n_sites = counts.get(bucket, 0), len(sites.get(bucket, ()))
        total += n
        total_sites += n_sites
        lines.append("%-14s %10d %10d  %s" % (BUCKET_LABELS.get(bucket, bucket),
                                              n, n_sites, "(manual review)"))
    lines.append("%-14s %10d %10d" % ("Total", total, total_sites))
    return "\n".join(lines) + "\n"
