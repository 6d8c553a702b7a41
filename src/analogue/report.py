"""Render match records as human-readable triage reports."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .spider import NOT_POPULAR, POPULAR, VERY_POPULAR

log = logging.getLogger(__name__)

# The match record fields a report reads, and their types.
MATCH_FIELDS = {"file": str, "lines": list, "query": str, "excerpt": str,
                "bindings": dict}

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
    """Parse newline-delimited match records; malformed lines are skipped
    with a warning.  Returns (records, skipped_count)."""
    records: list[dict] = []
    skipped = 0
    for i, ln in enumerate(text.splitlines()):
        if not ln.strip():
            continue
        try:
            rec = parse_record(ln, MATCH_FIELDS)
            lines = rec.get("lines")
            if "file" not in rec or lines is None:
                raise ValueError("missing file/lines")
            if len(lines) != 2 or not all(type(n) is int for n in lines):
                raise ValueError("lines must be two ints")
            if not all(k.isdecimal() and type(v) is str
                       for k, v in rec.get("bindings", {}).items()):
                raise ValueError("bindings must map class numbers to names")
            records.append(rec)
        except ValueError as e:
            skipped += 1
            log.warning("skipping malformed match record %d: %s", i, e)
    return records, skipped


def parse_record(line: str, types: dict[str, type | tuple]) -> dict:
    """The JSON object on the line; ValueError unless it is one whose
    value under each key of `types` it holds has that type."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    for key, typ in types.items():
        if key in rec and not isinstance(rec[key], typ):
            raise ValueError("%r has the wrong type" % key)
    return rec


def bucket_resolver(repo_records: list[dict]):
    """Map a match file path to a popularity bucket via spidered metadata.

    Matches are keyed by path components, so both `owner__name/...` download
    trees and plain `name/...` mining trees resolve.
    """
    by_key: dict[str, str] = {}
    for rec in repo_records:
        bucket = rec.get("bucket")
        full_name = rec.get("full_name", "")
        if not bucket or not full_name:
            continue
        by_key[full_name.replace("/", "__")] = bucket
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
        for ln in r.excerpt.splitlines():
            out.append("  | " + ln)
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
