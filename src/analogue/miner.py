"""Mine repositories for code analogues.

Per repository: find the candidate source files, parse each into an AST,
run every query program over every parsed unit that holds all of the
program's preserved symbols, and aggregate matches plus per-query
statistics.

Discovery walks the repository with os.scandir.  A file is a candidate when
its extension, lowercased, is one of MinerOptions.extensions; every symbolic
link, to a file or to a directory, is skipped, and the relative paths come
back sorted.  Each candidate is opened once: its size is read from the open
handle, and its bytes only when it is within max_file_bytes.  A file that
cannot be opened or read, is too large, looks binary, fails to parse, nests
too deep for the parser, or makes the parser raise anything else becomes a
SkippedFile with a reason, and the repository's other files are still
scanned.  A repository whose scan raises becomes a result carrying the
error instead of aborting the run.

Repositories are independent, so they can be scanned by parallel worker
processes.  The programs and options are shipped once per worker, when it
starts; each task then carries only a repository path, and the paths are
handed out in batches.  Output order always follows input order regardless
of scheduling, and each repository is logged at INFO (`-v`) as its result
arrives.

The cyclic garbage collector is paused while one repository is scanned (see
_scan_one).  This is safe because a scan builds no reference cycle: reference
counting frees every tree, token list and match as before, and only the
search for cycles waits until the repository is done.
"""
from __future__ import annotations

import gc
import json
import logging
import os
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .astree import SourceUnit
from .compiler import MatcherProgram
from .engine import (Match, ScanOptions, attach_excerpt, match_to_record, scan_unit,
                     source_lines)
from .php_parser import LexError, ParseError, parse_source

log = logging.getLogger(__name__)

SKIP_PARSE_ERROR = "parse-error"
SKIP_TOO_LARGE = "too-large"
SKIP_BINARY = "binary"
SKIP_UNREADABLE = "unreadable"
SKIP_TOO_DEEP = "too-deep"
SKIP_ERROR = "error"


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
    """Relative paths of candidate source files, sorted; symlinks ignored.

    A directory that cannot be listed, in full, is passed over.
    """
    extensions = opts.extensions
    splitext = os.path.splitext
    found: list[str] = []
    stack = [("", os.fspath(repo_path))]
    while stack:
        prefix, path = stack.pop()
        n_found, n_stack = len(found), len(stack)
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    if entry.is_symlink():
                        continue
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        stack.append((prefix + name + "/", entry.path))
                    elif splitext(name)[1].lower() in extensions:
                        found.append(prefix + name)
        except OSError:
            # Drop what a listing that failed part-way found.
            del found[n_found:], stack[n_stack:]
    found.sort()
    return found


def _describe(e: Exception) -> str:
    """An exception as an output record's detail: its type and message."""
    return "%s: %s" % (type(e).__name__, e)


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
    root = os.fspath(repo_path)
    limit = opts.max_file_bytes
    for rel in rel_files:
        label = "%s/%s" % (repo_id, rel)
        try:
            with open(os.path.join(root, rel), "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                data = fh.read() if size <= limit else None
        except OSError as e:
            skipped.append(SkippedFile(label, SKIP_UNREADABLE, str(e)))
            continue
        if data is None:
            skipped.append(SkippedFile(label, SKIP_TOO_LARGE, "%d bytes" % size))
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
        except Exception as e:
            skipped.append(SkippedFile(label, SKIP_ERROR, _describe(e)))
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
    """Scan one repository; whatever it raises becomes the result's error.

    The cyclic garbage collector is paused for the scan and resumed, if it
    was on, once scan_repository has returned and the repository's trees are
    freed.  A scan makes no reference cycles, so reference counting frees all
    it builds, and no young collection walks the tokens and nodes meanwhile.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return scan_repository(repo, programs, opts)
    except Exception as e:
        return RepoScanResult(repo_id=Path(repo).name, path=repo,
                              error=_describe(e))
    finally:
        if gc_was_on:
            gc.enable()


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
    same corpus are identical for any jobs value.  Each repository is logged
    at INFO as its result arrives: n/N, its id, the matches so far and the
    seconds since scanning began.  At jobs >= 2 results arrive a batch at a
    time, so the lines come in bursts and the seconds are those of the
    batch, not of the repository.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not programs:
        raise ValueError("no programs to run")
    opts = opts or MinerOptions()
    paths = [str(r) for r in repos]
    if jobs == 1 or len(paths) <= 1:
        return _logged((_scan_one(p, programs, opts) for p in paths), len(paths))
    chunksize = max(1, len(paths) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=min(jobs, len(paths)),
                             initializer=_init_worker,
                             initargs=(programs, opts)) as pool:
        return _logged(pool.map(_scan_in_worker, paths, chunksize=chunksize),
                       len(paths))


def _logged(results: Iterator[RepoScanResult], total: int) -> list[RepoScanResult]:
    """The results as a list, each logged at INFO as it arrives."""
    out: list[RepoScanResult] = []
    found, t0 = 0, time.perf_counter()
    for r in results:
        out.append(r)
        found += len(r.matches)
        log.info("%d/%d %s%s: %d matches so far, %.2f s", len(out), total, r.repo_id,
                 " (error)" if r.error else "", found, time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

# One encoder for every record but the stats lines: json.dumps with keyword
# arguments builds a new JSONEncoder per call.  `analogue scan` writes its
# match lines through it too.
RECORD_ENCODER = json.JSONEncoder(sort_keys=True)

# A ScanStats record as json.dumps(record, sort_keys=True) writes it: keys in
# sorted order, strings through the same ASCII escaper, the float by repr.
_STATS_LINE = ('{"candidates_tried": %d, "matches": %d, "node_comparisons": %d, '
               '"nodes_scanned": %d, "query": %s, "repo": %s, '
               '"units_skipped": %d, "wall_time_s": %r}\n')


def write_mining_outputs(results: list[RepoScanResult], out_dir: str | Path) -> dict[str, Path]:
    """Write matches.jsonl / stats.jsonl / skipped.jsonl; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / (name + ".jsonl") for name in ("matches", "stats", "skipped")}
    encode = RECORD_ENCODER.encode
    quote = json.encoder.encode_basestring_ascii
    with open(paths["matches"], "w", encoding="utf-8") as fh:
        for r in results:
            for m in r.matches:
                fh.write(encode(match_to_record(m)) + "\n")
    with open(paths["stats"], "w", encoding="utf-8") as fh:
        for r in results:
            if r.error:
                fh.write(encode({"repo": r.repo_id, "error": r.error}) + "\n")
            for s in r.stats:
                fh.write(_STATS_LINE % (
                    s.candidates_tried, s.match_count, s.node_comparisons,
                    s.nodes_scanned, quote(s.query_id), quote(s.repo),
                    s.units_skipped, round(s.wall_time_s, 6)))
    with open(paths["skipped"], "w", encoding="utf-8") as fh:
        for r in results:
            for s in r.files_skipped:
                fh.write(encode({
                    "repo": r.repo_id, "file": s.path,
                    "reason": s.reason, "detail": s.detail,
                }) + "\n")
    return paths
