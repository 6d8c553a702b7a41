"""Mine repositories for code analogues.

Per repository: find the candidate source files and hand them to
scan_files, the one file loop, which `analogue scan` runs too.  It parses
each file into an AST, runs every query program over every parsed unit that
holds all of the program's preserved symbols, and gathers one
RepoScanResult: the matches, the files' counts, and per query only that
query's ScanStats.  Each file is read, parsed and scanned by every program,
and its tree is freed before the next file is read, so memory is bounded by
the largest file plus the matches found, however many files there are.

Discovery walks the repository with os.scandir.  A file is a candidate when
its extension, lowercased, is one of EXTENSIONS and it is a regular file;
every symbolic link, to a file or to a directory, is skipped, as is every
FIFO, socket and device node, and the relative paths come back sorted.
Each candidate is opened once: its size is read from the open handle, and
its bytes only when it is within max_file_bytes.  A file that cannot be
opened or read, is too large, looks binary, fails to parse, nests too deep
for the parser, or makes the parser raise anything else becomes a
SkippedFile with a reason, and the repository's other files are still
scanned; every command reads PHP so, with load_file.  A repository whose
scan raises becomes a result carrying the error instead of aborting the
run.

Repositories are independent, so they can be scanned by parallel worker
processes.  The programs and options are shipped once per worker, when it
starts; each task then carries only a repository path, and the paths are
handed out in batches.  Each result comes back pickled as plain tuples (see
RepoScanResult.__reduce__): its skipped files, matches and ScanStats travel
as the tuples of their fields and are built again in the parent.  Output
order always follows input order regardless of scheduling, and each
repository is logged at INFO (`-v`) as its result arrives.

The cyclic garbage collector is paused while one repository is scanned (see
_scan_one).  This is safe because a scan builds no reference cycle: reference
counting frees every tree, token list and match as before, and only the
search for cycles waits until the repository is done.
"""
from __future__ import annotations

import gc
import logging
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import starmap
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from . import engine, jsonl
from .astree import SourceUnit
from .compiler import MatcherProgram
from .engine import Match, ScanOptions, attach_excerpt, match_to_record, scan_unit
from .php_parser import LexError, ParseError, parse_source

log = logging.getLogger(__name__)

SKIP_PARSE_ERROR = "parse-error"
SKIP_TOO_LARGE = "too-large"
SKIP_BINARY = "binary"
SKIP_UNREADABLE = "unreadable"
SKIP_TOO_DEEP = "too-deep"
SKIP_ERROR = "error"

# The extensions, lowercased, of the files a repository is scanned for.
EXTENSIONS = (".php", ".inc", ".phtml")


@dataclass(frozen=True)
class MinerOptions:
    max_file_bytes: int = 2 * 1024 * 1024
    scan: ScanOptions = field(default_factory=ScanOptions)


@dataclass(frozen=True)
class SkippedFile:
    path: str
    reason: str
    detail: str = ""

    def __str__(self) -> str:
        """How `scan` warns of the file and the one-file commands refuse it."""
        return ": ".join(filter(None, (self.path, self.reason, self.detail)))


@dataclass(slots=True)
class ScanStats:
    """One query over one repository; the repository is the RepoScanResult
    that holds it.

    wall_time_s is the query's scan time summed over the repository's files.
    It leaves out building each file's anchor index, but the first query
    that asks for a key of the index's shared per-key anchor lists still
    pays for building that list.
    candidates_tried sums the anchors the program was tried at after the
    kind index, depth pruning and the arity window; units_skipped counts the
    units never scanned because they lack one of the query's preserved
    symbols.
    """
    query_id: str
    wall_time_s: float
    node_comparisons: int
    candidates_tried: int
    match_count: int
    units_skipped: int


@dataclass(slots=True)
class RepoScanResult:
    """One repository's scan (or scan_files' over any files): nodes_scanned
    is the node count of all parsed units; stats has one ScanStats per query."""
    repo_id: str
    files_scanned: int = 0
    nodes_scanned: int = 0
    files_skipped: list[SkippedFile] = field(default_factory=list)
    matches: list[Match] = field(default_factory=list)
    stats: list[ScanStats] = field(default_factory=list)
    error: str | None = None

    def __reduce__(self):
        """Pickle as plain tuples, the one wire format of a worker's result.

        Each skipped file, match and ScanStats travels as the tuple of its
        fields in declaration order, and _unpickle_result builds the same
        objects again in the parent.  Pickled one by one, each object would
        carry a dict of its fields, to be rebuilt and set field by field.
        """
        return (_unpickle_result, (
            self.repo_id, self.files_scanned, self.nodes_scanned,
            list(map(_skipped_fields, self.files_skipped)),
            list(map(_match_fields, self.matches)),
            list(map(_stats_fields, self.stats)), self.error))


def _fields_getter(cls: type) -> attrgetter:
    """The tuple of an instance's fields, in the order cls takes them."""
    return attrgetter(*(f.name for f in fields(cls)))


_skipped_fields = _fields_getter(SkippedFile)
_match_fields = _fields_getter(Match)
_stats_fields = _fields_getter(ScanStats)


def _unpickle_result(repo_id: str, files_scanned: int, nodes_scanned: int,
                     skipped: list[tuple], matches: list[tuple], stats: list[tuple],
                     error: str | None) -> RepoScanResult:
    """The RepoScanResult that RepoScanResult.__reduce__ took apart."""
    return RepoScanResult(repo_id, files_scanned, nodes_scanned,
                          list(starmap(SkippedFile, skipped)),
                          list(starmap(Match, matches)),
                          list(starmap(ScanStats, stats)), error)


def repo_id_of(path: str | Path) -> str:
    """A repository's id: the name of the directory that path names, made
    absolute first, so "." is named after the working directory; symbolic
    links are not resolved.  Output records name the repository by it, and
    its files as <id>/<relative path>."""
    return os.path.basename(os.path.abspath(path))


def discover_files(repo_path: str | Path) -> list[str]:
    """Relative paths of candidate source files, sorted.  Only regular files
    and directories count: symlinks, FIFOs, sockets and device nodes are
    ignored, since opening a FIFO would block.

    A directory that cannot be listed, in full, is passed over.
    """
    splitext = os.path.splitext
    found: list[str] = []
    stack = [("", os.fspath(repo_path))]
    while stack:
        prefix, path = stack.pop()
        n_found, n_stack = len(found), len(stack)
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    name = entry.name
                    if entry.is_dir(follow_symlinks=False):
                        stack.append((prefix + name + "/", entry.path))
                    elif (entry.is_file(follow_symlinks=False)
                          and splitext(name)[1].lower() in EXTENSIONS):
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


def load_file(path: str, label: str,
              limit: int) -> tuple[SourceUnit, str] | SkippedFile:
    """The one way every command reads PHP: the file as parse_file's (unit,
    text), or the SkippedFile, labelled `label`, that says why it cannot be
    read.  A file over limit bytes is too large; "-" is standard input."""
    try:
        if path == "-":
            size = len(data := sys.stdin.buffer.read())
        else:
            with open(path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                data = fh.read() if size <= limit else None
    except OSError as e:
        return SkippedFile(label, SKIP_UNREADABLE, str(e))
    if size > limit:
        return SkippedFile(label, SKIP_TOO_LARGE, "%d bytes" % size)
    if b"\x00" in data[:8192]:
        return SkippedFile(label, SKIP_BINARY)
    try:
        return parse_file(data, label)
    except (LexError, ParseError) as e:
        return SkippedFile(label, SKIP_PARSE_ERROR, str(e))
    except RecursionError:
        return SkippedFile(label, SKIP_TOO_DEEP,
                           "nesting exceeds the parser's recursion limit")
    except Exception as e:
        return SkippedFile(label, SKIP_ERROR, _describe(e))


def scan_repository(repo_path: str | Path, programs: list[MatcherProgram],
                    opts: MinerOptions | None = None) -> RepoScanResult:
    """Parse one repository and run every program over it: scan_files over
    its discovered files, each labelled <repo id>/<relative path>."""
    root = os.fspath(repo_path)
    repo_id = repo_id_of(root)
    if not os.path.isdir(root):
        return RepoScanResult(repo_id=repo_id, error="missing repository path")
    return scan_files([(os.path.join(root, rel), "%s/%s" % (repo_id, rel))
                       for rel in discover_files(root)], programs, opts, repo_id)


def scan_files(files: list[tuple[str, str]], programs: list[MatcherProgram],
               opts: MinerOptions | None = None, repo_id: str = "") -> RepoScanResult:
    """The one file loop of `mine` and `scan`: read, parse and scan each
    (path, label) of files in order, one at a time, with every program.  A
    file that cannot be scanned becomes a SkippedFile; the matches come out
    program by program, as if each program had scanned the files in turn."""
    opts = opts or MinerOptions()
    result = RepoScanResult(repo_id=repo_id)
    limit = opts.max_file_bytes
    n = len(programs)
    wall = [0.0] * n
    comparisons, candidates, units_skipped = [0] * n, [0] * n, [0] * n
    found: list[list[Match]] = [[] for _ in programs]
    for path, label in files:
        loaded = load_file(path, label, limit)
        if type(loaded) is SkippedFile:
            result.files_skipped.append(loaded)
            continue
        unit, text = loaded
        result.files_scanned += 1
        result.nodes_scanned += unit.node_count
        lines = None  # the file's source_lines, split at its first match
        symbols = unit.anchor_index().symbols
        t0 = time.perf_counter()  # after the index, which every query shares
        for i, program in enumerate(programs):
            if not program.preserved_symbols <= symbols:
                units_skipped[i] += 1
            else:
                matches, counter = scan_unit(program, unit, opts.scan)
                comparisons[i] += counter.node_comparisons
                candidates[i] += counter.candidates_tried
                if matches:
                    if lines is None:
                        lines = engine.source_lines(text)
                    for m in matches:
                        attach_excerpt(m, lines)
                    found[i] += matches
            t1 = time.perf_counter()
            wall[i] += t1 - t0
            t0 = t1
        # Free this file's tree and text before the next file is parsed.
        del loaded, unit, text, lines, symbols
    for i, program in enumerate(programs):
        result.matches += found[i]
        # positional: a keyword construction costs twice as much
        result.stats.append(ScanStats(program.query_id, wall[i], comparisons[i],
                                      candidates[i], len(found[i]), units_skipped[i]))
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
        return RepoScanResult(repo_id=repo_id_of(repo), error=_describe(e))
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
    same corpus are identical for any jobs value.  Each program's scan plan
    is built before the pool starts, so workers started by fork inherit it
    instead of each building its own.  Each repository is logged
    at INFO as its result arrives: n/N, its id, the matches so far and the
    seconds since scanning began.  At jobs >= 2 results arrive a batch at a
    time, so the lines come in bursts and the seconds are those of the
    batch, not of the repository.

    Two repositories with one id (repo_id_of), a path listed twice
    included, are a ValueError naming both paths, since their records could
    not be told apart.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not programs:
        raise ValueError("no programs to run")
    opts = opts or MinerOptions()
    paths = [str(r) for r in repos]
    path_of: dict[str, str] = {}
    for p in paths:
        repo_id = repo_id_of(p)
        if repo_id in path_of:
            raise ValueError("%s and %s have the same repository id %r"
                             % (path_of[repo_id], p, repo_id))
        path_of[repo_id] = p
    if jobs == 1 or len(paths) <= 1:
        return _logged((_scan_one(p, programs, opts) for p in paths), len(paths))
    for program in programs:
        program.compiled(opts.scan.exact_arity)
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

# A stats record as jsonl.line writes it: keys in sorted order, strings
# through the same ASCII escaper, the float by repr.  Formatting it here
# takes a third of the time of building and encoding a dict per record.
_STATS_LINE = ('{"candidates_tried": %d, "matches": %d, "node_comparisons": %d, '
               '"nodes_scanned": %d, "query": %s, "repo": %s, '
               '"units_skipped": %d, "wall_time_s": %r}\n')


def write_mining_outputs(results: list[RepoScanResult], out_dir: str | Path) -> dict[str, Path]:
    """Write matches.jsonl / stats.jsonl / skipped.jsonl; returns the paths.
    Each record is a jsonl.line; the stats records take _STATS_LINE's
    shortcut to the same text."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / (name + ".jsonl") for name in ("matches", "stats", "skipped")}
    line = jsonl.line
    quote = encode_basestring_ascii
    with open(paths["matches"], "w", encoding="utf-8") as fh:
        for r in results:
            for m in r.matches:
                fh.write(line(match_to_record(m)))
    with open(paths["stats"], "w", encoding="utf-8") as fh:
        for r in results:
            if r.error:
                fh.write(line({"repo": r.repo_id, "error": r.error}))
            repo = quote(r.repo_id)
            for s in r.stats:
                fh.write(_STATS_LINE % (
                    s.candidates_tried, s.match_count, s.node_comparisons,
                    r.nodes_scanned, quote(s.query_id), repo,
                    s.units_skipped, round(s.wall_time_s, 6)))
    with open(paths["skipped"], "w", encoding="utf-8") as fh:
        for r in results:
            for s in r.files_skipped:
                fh.write(line({"repo": r.repo_id, "file": s.path,
                               "reason": s.reason, "detail": s.detail}))
    return paths
