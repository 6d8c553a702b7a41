"""Command-line entry point: derive, compile, scan, mine, spider, report.

Match absence is success (exit 0); a nonzero exit means the operation itself
failed.  `--config FILE` supplies JSON defaults for the optional options,
keyed by their dest names.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from pathlib import Path

from . import astree, interchange, jsonl, report as report_mod, spider as spider_mod
from .astree import AmbiguousSlice, EmptySlice, SourceUnit, slice_statements
from .compiler import (MatcherProgram, ProgramFormatError, compile_template,
                       deserialize_program, export_traversal_script,
                       serialize_program)
from .engine import ScanOptions, attach_excerpt, match_to_record, scan_unit
from .miner import (RECORD_ENCODER, SKIP_TOO_DEEP, MinerOptions, RepoScanResult,
                    mine_repositories, parse_file, write_mining_outputs)
from .php_parser import LexError, ParseError
from .template import (EmptyInput, SeedOrigin, Template, TemplateFormatError,
                       derive_template, deserialize_template, serialize_template)

log = logging.getLogger("analogue")


class CliError(Exception):
    pass


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8", errors="replace")


def _parse_php(path: str) -> tuple[SourceUnit, str]:
    """Parse a PHP file, or stdin for "-", as `mine` reads files."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    return parse_file(data, path)


def _read_records(path: str, types: dict[str, type | tuple]) -> list[dict]:
    """The records of path, each a JSON object whose fields have `types`
    (jsonl.read and jsonl.fields); a record they reject is a CliError
    naming the file and the line."""
    try:
        return [jsonl.fields(rec, types, i) for i, rec in jsonl.read(_read(path))]
    except jsonl.RecordError as e:
        raise CliError("%s line %d: %s" % (path, e.record + 1, e.args[0]))


def _write_out(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_lines(value: str) -> tuple[int, int]:
    try:
        a, b = value.split(":")
        first, last = int(a), int(b)
    except ValueError:
        raise CliError("--lines expects START:END, e.g. 4:6")
    if first > last:
        raise CliError("--lines %s: START must not exceed END" % value)
    return first, last


def load_query(path: Path) -> MatcherProgram:
    """Load a query file: either a serialized program or a template
    (compiled on the fly)."""
    text = path.read_text(encoding="utf-8")
    try:
        return deserialize_program(text)
    except ProgramFormatError as e:
        not_a_program = e
    try:
        return compile_template(deserialize_template(text))
    except TemplateFormatError as e:
        raise CliError("%s is neither a program (%s) nor a template (%s)"
                       % (path, not_a_program, e))


def load_query_dir(path: Path) -> list[MatcherProgram]:
    files = sorted(p for p in path.iterdir()
                   if p.suffix in (".json", ".jsonl", ".tmpl", ".prog"))
    if not files:
        raise CliError("no query files under %s" % path)
    return [load_query(p) for p in files]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ast(args) -> int:
    unit = (_parse_php(args.file)[0] if args.action == "export"
            else interchange.import_ast(_read(args.file)))
    _write_out(interchange.export_ast(unit), args.out)
    return 0


def _derive_seed(path: str, lines: str | None, symbols: str,
                 mode: str | None = None) -> Template:
    """The template of a seed file: the `lines` slice, strict unless `mode`
    says otherwise, or every top-level statement but inline HTML, normal
    unless `mode` says otherwise."""
    unit, _ = _parse_php(path)
    if lines:
        first, last = _parse_lines(lines)
        stmts = slice_statements(unit, first, last)
    else:
        stmts = [s for s in unit.children_of(unit.nodes[unit.root])
                 if s.kind != astree.HTML]
    return derive_template(unit, stmts, mode=mode or ("strict" if lines else "normal"),
                           symbol_policy=symbols)


def _origin_label(origin: SeedOrigin) -> str:
    return "%s:%d-%d" % (origin.path, origin.line_start, origin.line_end)


def cmd_derive(args) -> int:
    t = _derive_seed(args.snippet, args.lines, args.symbols, args.mode)
    _write_out(serialize_template(t), args.out)
    return 0


def cmd_compile(args) -> int:
    t = deserialize_template(_read(args.template))
    p = compile_template(t)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prog_path = out_dir / ("%s.prog.json" % p.query_id)
    prog_path.write_text(serialize_program(p), encoding="utf-8")
    if args.emit_script:
        Path(args.emit_script).write_text(export_traversal_script(p),
                                          encoding="utf-8")
    print(prog_path)
    return 0


def _scan_options(args) -> ScanOptions:
    return ScanOptions(depth_pruning=not args.no_depth_pruning,
                       exact_arity=args.exact_arity)


def cmd_scan(args) -> int:
    program = load_query(Path(args.query))
    opts = _scan_options(args)
    out_lines = []
    for f in args.files:
        unit, text = _parse_php(f)
        for m in scan_unit(program, unit, opts)[0]:
            attach_excerpt(m, text)
            out_lines.append(RECORD_ENCODER.encode(match_to_record(m)) + "\n")
    _write_out("".join(out_lines), args.out)
    return 0


def _mine(repos: list[str], programs: list[MatcherProgram],
          args) -> tuple[list[RepoScanResult], dict[str, Path]]:
    """Mine the repositories into args.out, name the failed ones on stderr,
    and return the results and the paths of the written files."""
    results = mine_repositories(repos, programs, jobs=args.jobs,
                                opts=MinerOptions(scan=_scan_options(args)))
    paths = write_mining_outputs(results, args.out)
    failed = [r.repo_id for r in results if r.error]
    if failed:
        print("failed repositories: %s" % ", ".join(failed), file=sys.stderr)
    return results, paths


def cmd_mine(args) -> int:
    repo_list = [ln.strip() for ln in _read(args.repos).splitlines()
                 if ln.strip() and not ln.startswith("#")]
    results, paths = _mine(repo_list, load_query_dir(Path(args.queries)), args)
    total = sum(len(r.matches) for r in results)
    print("scanned %d repositories, %d matches -> %s"
          % (len(results), total, paths["matches"]))
    return 0


def cmd_spider(args) -> int:
    token = os.environ.get("GITHUB_TOKEN")
    budget = spider_mod.RateBudget(min_interval_s=args.min_interval)
    clock = spider_mod.SystemClock()
    kept = 0
    with (open(args.out, "w", encoding="utf-8") if args.out != "-"
          else contextlib.nullcontext(sys.stdout)) as out_fh:
        for meta in spider_mod.crawl(args.api_base, budget, token=token,
                                     clock=clock, state_file=args.state,
                                     per_page=args.per_page,
                                     max_repos=args.max_repos):
            # one at a time, so records are written as the crawl goes
            if not spider_mod.filter_candidates([meta], args.language,
                                                args.max_size_kb):
                continue
            bucket = spider_mod.classify(meta)
            if args.buckets != "all" and bucket != args.buckets:
                continue
            rec = meta.to_record(bucket)
            if args.download:
                try:
                    local = spider_mod.download_repo(
                        meta, args.download, strategy=args.strategy,
                        budget=budget, clock=clock, token=token)
                    rec["local_path"] = str(local)
                except spider_mod.DownloadError as e:
                    log.warning("download failed for %s: %s", meta.full_name, e)
                    rec["download_error"] = str(e)
            out_fh.write(json.dumps(rec, sort_keys=True) + "\n")
            kept += 1
    print("spidered %d matching repositories" % kept, file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    records, skipped = report_mod.load_match_records(_read(args.matches))
    if skipped:
        print("warning: skipped %d malformed records" % skipped, file=sys.stderr)
    origins = {p.query_id: _origin_label(p.origin)
               for p in (load_query_dir(Path(args.queries)) if args.queries else ())
               if p.origin is not None}
    bucket_for = None
    if args.repos:
        bucket_for = report_mod.bucket_resolver(
            _read_records(args.repos, {"bucket": str, "full_name": str}))
    rows = report_mod.rows_from_records(records, origins, bucket_for)
    if args.format == "text":
        text = report_mod.render_text(rows)
    else:
        text = report_mod.render_summary(rows)
        if args.stats:
            stats = _read_records(args.stats, {"query": str, "wall_time_s": (int, float),
                                               "node_comparisons": int})
            queries = {s["query"] for s in stats if "query" in s}
            text += "%d queries, %.2fs scan time, %d node comparisons\n" % (
                len(queries), sum(s.get("wall_time_s", 0.0) for s in stats),
                sum(s.get("node_comparisons", 0) for s in stats))
    _write_out(text, args.out)
    return 0


def cmd_pipeline(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise CliError("corpus directory %s does not exist" % corpus)
    t = _derive_seed(args.seed, args.lines, args.symbols)
    program = compile_template(t)
    repos = sorted(str(p) for p in corpus.iterdir() if p.is_dir()) or [str(corpus)]
    results, _ = _mine(repos, [program], args)
    records = [match_to_record(m) for r in results for m in r.matches]
    rows = report_mod.rows_from_records(
        records, {program.query_id: _origin_label(t.seed_origin)})
    report_text = report_mod.render_text(rows)
    (Path(args.out) / "report.txt").write_text(report_text, encoding="utf-8")
    sys.stdout.write(report_text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expected a whole number >= 1, got %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # Options that several commands take, each declared once and passed to
    # those commands as parents: seed selection, scan options and --jobs.
    seed = argparse.ArgumentParser(add_help=False)
    g = seed.add_mutually_exclusive_group()
    g.add_argument("--lines", help="START:END slice of the seed (strict by default)")
    g.add_argument("--full", dest="lines", action="store_const", const=None,
                   help="the whole seed (normal by default); overrides a "
                        "\"lines\" key in --config")
    seed.add_argument("--symbols", choices=["preserve", "wildcard"],
                      default="preserve")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--no-depth-pruning", action="store_true")
    scan.add_argument("--exact-arity", action="store_true")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_at_least_one, default=1)

    ap = argparse.ArgumentParser(
        prog="analogue",
        description="Derive structural queries from vulnerable code snippets "
                    "and mine PHP corpora for their analogues.")
    ap.add_argument("--config", help="JSON file with option defaults")
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ast", help="export or import AST interchange records")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_ast)

    p = sub.add_parser("derive", parents=[seed],
                       help="derive a wildcard template from a snippet")
    p.add_argument("snippet")
    p.add_argument("--mode", choices=["normal", "strict"])
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("compile", help="compile a template into a matcher program")
    p.add_argument("template")
    p.add_argument("--emit-script", help="also write the traversal script here")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("scan", parents=[scan], help="run one query over PHP files")
    p.add_argument("query", help="template or program file")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("mine", parents=[jobs, scan],
                       help="scan a set of repositories with all queries")
    p.add_argument("--repos", required=True, help="file listing repository paths")
    p.add_argument("--queries", required=True, help="directory of query files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("spider", help="enumerate and optionally download repositories")
    p.add_argument("--language", default="php", help="empty keeps every language")
    p.add_argument("--max-size-kb", type=int, default=spider_mod.DEFAULT_MAX_SIZE_KB)
    p.add_argument("--buckets", default="all",
                   choices=["all", spider_mod.NOT_POPULAR, spider_mod.POPULAR,
                            spider_mod.VERY_POPULAR])
    p.add_argument("--out", default="-")
    p.add_argument("--download", help="download matching repos into this directory")
    p.add_argument("--strategy", choices=["archive", "clone"], default="archive")
    p.add_argument("--api-base", default="https://api.github.com")
    p.add_argument("--state", help="cursor state file for resumable crawls")
    p.add_argument("--per-page", type=int, default=100)
    p.add_argument("--max-repos", type=int)
    p.add_argument("--min-interval", type=float,
                   default=spider_mod.DEFAULT_MIN_INTERVAL_S)
    p.set_defaults(func=cmd_spider)

    p = sub.add_parser("report", help="render match records for triage")
    p.add_argument("matches")
    p.add_argument("--stats", help="stats.jsonl, adds scan totals to the summary")
    p.add_argument("--format", choices=["text", "summary"], default="text")
    p.add_argument("--queries", help="query dir, to resolve seed origins")
    p.add_argument("--repos", help="spidered repos.jsonl, to resolve buckets")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", parents=[seed, jobs, scan],
                       help="derive + compile + mine + report in one go")
    p.add_argument("seed")
    p.add_argument("corpus")
    p.add_argument("--out", default="analogue-out")
    p.set_defaults(func=cmd_pipeline)
    return ap


def _apply_config(ap: argparse.ArgumentParser, path: str) -> None:
    """Make each key of the JSON object in `path` the default of every
    optional, non-required option whose dest it names, in every command; a
    shared option is one action, so a key gets one value in all of them.  A
    value is true or false for a flag, else null, a string or a number (read
    as its text) within the option's choices.  Parsing converts it by the
    option's type, as it does the command line, which still wins."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise CliError("cannot read config %s: %s" % (path, e))
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    actions = list(dict.fromkeys(
        a for p in (ap, *sub.choices.values()) for a in p._actions
        if a.option_strings and not a.required
        and a.default is not argparse.SUPPRESS and a.dest != "config"))
    for key, value in cfg.items():
        named = [a for a in actions if a.dest == key]
        if not named:
            raise CliError("config key %r names no option" % key)
        for a in named:
            flag = isinstance(a.const, bool)
            if not flag and type(value) in (int, float):
                value = json.dumps(value)
            ok = isinstance(value, bool) if flag else value is None or isinstance(value, str)
            if not ok or (a.choices is not None and value not in a.choices):
                raise CliError("config key %r: %s is no value for %s" % (
                    key, json.dumps(value), "/".join(a.option_strings)))
            a.default = value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ap = build_parser()
        args = ap.parse_args(argv)
        if args.config:     # parse again, over the config's defaults
            _apply_config(ap, args.config)
            args = ap.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (CliError, OSError, LexError, ParseError, EmptySlice, AmbiguousSlice,
            EmptyInput, jsonl.RecordError, ProgramFormatError,
            spider_mod.AuthError, spider_mod.SpiderError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except RecursionError:
        print("error: %s: nesting exceeds the recursion limit" % SKIP_TOO_DEEP,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
