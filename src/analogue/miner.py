"""Mine repositories for code analogues.

Per repository: discover source files by extension, parse each into an AST
(recording skips instead of failing), run every query program over every
parsed unit that holds all of the program's preserved symbols, and aggregate
matches plus per-query statistics.  A repository whose scan raises becomes
a result carrying the error instead of aborting the run.

Repositories are independent, so they can be scanned by parallel worker
processes.  The programs and options are shipped once per worker, when it
starts; each task then carries only a repository path, and the paths are
handed out in batches.  Output order always follows input order regardless
of scheduling.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .astree import SourceUnit
from .compiler import MatcherProgram
from .engine import (Match, ScanOptions, attach_excerpt, match_to_record, scan_unit,
                     source_lines)
from .php_parser import LexError, ParseError, parse_source

SKIP_PARSE_ERROR = "parse-error"
SKIP_TOO_LARGE = "too-large"
SKIP_BINARY = "binary"
SKIP_UNREADABLE = "unreadable"
SKIP_TOO_DEEP = "too-deep"


@dataclass(frozen=True)
class MinerOptions:
    extensions: tuple[str, ...] = (".php", ".inc", ".phtml")
    max_file_bytes: int = 2 * 1024 * 1024
    scan: ScanOptions = field(default_factory=ScanOptions)


@dataclass(frozen=True)
class SkippedFile:
    path: str
    reason: str
    detail: str = ""


@dataclass
class ScanStats:
    """One query over one repository.

    nodes_scanned is the node count of all parsed units.  candidates_tried
    sums the anchors the program was tried at after the kind index, depth
    pruning and the arity window; units_skipped counts the units never scanned
    because they lack one of the query's preserved symbols.
    """
    query_id: str
    repo: str
    wall_time_s: float
    nodes_scanned: int
    node_comparisons: int
    candidates_tried: int
    match_count: int
    units_skipped: int


@dataclass
class RepoScanResult:
    repo_id: str
    path: str
    files_scanned: int = 0
    files_skipped: list[SkippedFile] = field(default_factory=list)
    matches: list[Match] = field(default_factory=list)
    stats: list[ScanStats] = field(default_factory=list)
    error: str | None = None


def discover_files(repo_path: Path, opts: MinerOptions) -> list[str]:
    """Relative paths of candidate source files, sorted; symlinks ignored."""
    found: list[str] = []
    for dirpath, dirnames, filenames in os.walk(repo_path, followlinks=False):
        dirnames.sort()
        for fn in sorted(filenames):
            if os.path.splitext(fn)[1].lower() not in opts.extensions:
                continue
            full = Path(dirpath) / fn
            if full.is_symlink():
                continue
            found.append(str(full.relative_to(repo_path)).replace(os.sep, "/"))
    return sorted(found)


def parse_file(data: bytes, path: str) -> tuple[SourceUnit, str]:
    """Parse a file's bytes as `mine` and `scan` both read them.

    Returns the unit and the text its excerpts are cut from.  The bytes are
    decoded as UTF-8 with undecodable bytes replaced, and every line end is
    kept as it is, since the lexer counts lines at \\n only.  parse_source
    drops a leading BOM itself; the excerpt text drops it after parsing, as
    dropping it before would change the tree of a file that starts with two.
    """
    text = data.decode("utf-8", errors="replace")
    return parse_source(text, path=path), text.removeprefix("\ufeff")


def _load_units(repo_path: Path, repo_id: str, rel_files: list[str],
                opts: MinerOptions) -> tuple[list[tuple[SourceUnit, str]], list[SkippedFile]]:
    units: list[tuple[SourceUnit, str]] = []
    skipped: list[SkippedFile] = []
    for rel in rel_files:
        full = repo_path / rel
        label = "%s/%s" % (repo_id, rel)
        try:
            size = full.stat().st_size
        except OSError as e:
            skipped.append(SkippedFile(label, SKIP_UNREADABLE, str(e)))
            continue
        if size > opts.max_file_bytes:
            skipped.append(SkippedFile(label, SKIP_TOO_LARGE, "%d bytes" % size))
            continue
        try:
            data = full.read_bytes()
        except OSError as e:
            skipped.append(SkippedFile(label, SKIP_UNREADABLE, str(e)))
            continue
        if b"\x00" in data[:8192]:
            skipped.append(SkippedFile(label, SKIP_BINARY))
            continue
        try:
            unit, text = parse_file(data, label)
        except (LexError, ParseError) as e:
            skipped.append(SkippedFile(label, SKIP_PARSE_ERROR, str(e)))
            continue
        except RecursionError:
            skipped.append(SkippedFile(label, SKIP_TOO_DEEP,
                                       "nesting exceeds the parser's recursion limit"))
            continue
        units.append((unit, text))
    return units, skipped


def scan_repository(repo_path: str | Path, programs: list[MatcherProgram],
                    opts: MinerOptions | None = None,
                    repo_id: str | None = None) -> RepoScanResult:
    """Parse one repository and run every program over it."""
    opts = opts or MinerOptions()
    repo_path = Path(repo_path)
    repo_id = repo_id or repo_path.name
    result = RepoScanResult(repo_id=repo_id, path=str(repo_path))
    if not repo_path.is_dir():
        result.error = "missing repository path"
        return result
    rel_files = discover_files(repo_path, opts)
    units, result.files_skipped = _load_units(repo_path, repo_id, rel_files, opts)
    result.files_scanned = len(units)
    nodes_total = sum(u.node_count for u, _ in units)
    lines_of: dict[str, list[str]] = {}  # unit path -> source_lines, split at its first match
    for program in programs:
        t0 = time.perf_counter()
        comparisons = candidates = found = units_skipped = 0
        for unit, text in units:
            if not program.preserved_symbols <= unit.anchor_index().symbols:
                units_skipped += 1
                continue
            matches, counter = scan_unit(program, unit, opts.scan)
            comparisons += counter.node_comparisons
            candidates += counter.candidates_tried
            if matches:
                lines = lines_of.get(unit.path)
                if lines is None:
                    lines = lines_of[unit.path] = source_lines(text)
                for m in matches:
                    attach_excerpt(m, lines)
            result.matches.extend(matches)
            found += len(matches)
        result.stats.append(ScanStats(
            query_id=program.query_id, repo=repo_id,
            wall_time_s=time.perf_counter() - t0,
            nodes_scanned=nodes_total, node_comparisons=comparisons,
            candidates_tried=candidates, match_count=found,
            units_skipped=units_skipped))
    return result


def _scan_one(repo: str, programs: list[MatcherProgram],
              opts: MinerOptions) -> RepoScanResult:
    """Scan one repository; whatever it raises becomes the result's error."""
    try:
        return scan_repository(repo, programs, opts)
    except Exception as e:
        return RepoScanResult(repo_id=Path(repo).name, path=repo,
                              error="%s: %s" % (type(e).__name__, e))


# The programs and options of a worker process, set once by _init_worker when
# the worker starts; the parent process never sets it.
_worker_args: tuple[list[MatcherProgram], MinerOptions] | None = None


def _init_worker(programs: list[MatcherProgram], opts: MinerOptions) -> None:
    global _worker_args
    _worker_args = (programs, opts)


def _scan_in_worker(repo: str) -> RepoScanResult:
    return _scan_one(repo, *_worker_args)


def mine_repositories(repos: list[str | Path], programs: list[MatcherProgram],
                      jobs: int = 1,
                      opts: MinerOptions | None = None) -> list[RepoScanResult]:
    """Scan repositories with up to `jobs` worker processes.

    Each worker receives the programs and options once, when it starts, and
    then takes repository paths in batches of len(repos) // (4 * jobs), at
    least one.  No more workers start than there are repositories.  Results
    come back in input order whatever the scheduling, so two runs over the
    same corpus are identical for any jobs value.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not programs:
        raise ValueError("no programs to run")
    opts = opts or MinerOptions()
    paths = [str(r) for r in repos]
    if jobs == 1 or len(paths) <= 1:
        return [_scan_one(p, programs, opts) for p in paths]
    chunksize = max(1, len(paths) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=min(jobs, len(paths)),
                             initializer=_init_worker,
                             initargs=(programs, opts)) as pool:
        return list(pool.map(_scan_in_worker, paths, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def write_mining_outputs(results: list[RepoScanResult], out_dir: str | Path) -> dict[str, Path]:
    """Write matches.jsonl / stats.jsonl / skipped.jsonl; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / (name + ".jsonl") for name in ("matches", "stats", "skipped")}
    with open(paths["matches"], "w", encoding="utf-8") as fh:
        for r in results:
            for m in r.matches:
                fh.write(json.dumps(match_to_record(m), sort_keys=True) + "\n")
    with open(paths["stats"], "w", encoding="utf-8") as fh:
        for r in results:
            if r.error:
                fh.write(json.dumps({"repo": r.repo_id, "error": r.error},
                                    sort_keys=True) + "\n")
            for s in r.stats:
                fh.write(json.dumps({
                    "repo": s.repo, "query": s.query_id,
                    "wall_time_s": round(s.wall_time_s, 6),
                    "nodes_scanned": s.nodes_scanned,
                    "node_comparisons": s.node_comparisons,
                    "candidates_tried": s.candidates_tried,
                    "matches": s.match_count,
                    "units_skipped": s.units_skipped,
                }, sort_keys=True) + "\n")
    with open(paths["skipped"], "w", encoding="utf-8") as fh:
        for r in results:
            for s in r.files_skipped:
                fh.write(json.dumps({
                    "repo": r.repo_id, "file": s.path,
                    "reason": s.reason, "detail": s.detail,
                }, sort_keys=True) + "\n")
    return paths
