"""Command-line entry point: derive, compile, scan, mine, spider, report.

Match absence is success (exit 0); a nonzero exit means the operation itself
failed.  `--config FILE` supplies JSON defaults for any long option name.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import astree, interchange, report as report_mod, spider as spider_mod
from .astree import AmbiguousSlice, EmptySlice, SourceUnit, slice_statements
from .compiler import (MatcherProgram, ProgramFormatError, compile_template,
                       deserialize_program, export_traversal_script,
                       serialize_program)
from .engine import (ScanOptions, attach_excerpt, match_to_json,
                     match_to_record, scan_unit)
from .miner import (SKIP_TOO_DEEP, MinerOptions, RepoScanResult,
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


def _write_out(text: str, out: str | None) -> None:
    if out and out != "-":
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_lines(value: str) -> tuple[int, int]:
    try:
        a, b = value.split(":")
        return int(a), int(b)
    except ValueError:
        raise CliError("--lines expects START:END, e.g. 4:6")


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
    if args.action == "export":
        unit, _ = _parse_php(args.file)
        _write_out(interchange.export_ast(unit), args.out)
        return 0
    unit = interchange.import_ast(_read(args.file))
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
    return ScanOptions(depth_pruning=not getattr(args, "no_depth_pruning", False),
                       exact_arity=getattr(args, "exact_arity", False))


def cmd_scan(args) -> int:
    program = load_query(Path(args.query))
    opts = _scan_options(args)
    out_lines = []
    for f in args.files:
        unit, text = _parse_php(f)
        matches, _counter = scan_unit(program, unit, opts)
        for m in matches:
            attach_excerpt(m, text)
            out_lines.append(match_to_json(m))
    _write_out("".join(ln + "\n" for ln in out_lines), args.out)
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
    out_fh = open(args.out, "w", encoding="utf-8") if args.out != "-" else sys.stdout
    kept = 0
    try:
        for meta in spider_mod.crawl(args.api_base, budget, token=token,
                                     clock=clock, state_file=args.state,
                                     per_page=args.per_page,
                                     max_repos=args.max_repos):
            if args.language and meta.language.lower() != args.language.lower():
                continue
            if meta.size_kb >= args.max_size_kb:
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
    finally:
        if out_fh is not sys.stdout:
            out_fh.close()
    print("spidered %d matching repositories" % kept, file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    records, skipped = report_mod.load_match_records(_read(args.matches))
    if skipped:
        print("warning: skipped %d malformed records" % skipped, file=sys.stderr)
    origins = {}
    if args.queries:
        for p in load_query_dir(Path(args.queries)):
            if p.origin is not None:
                origins[p.query_id] = _origin_label(p.origin)
    bucket_for = None
    if args.repos:
        repo_records = [json.loads(ln) for ln in _read(args.repos).splitlines()
                        if ln.strip()]
        bucket_for = report_mod.bucket_resolver(repo_records)
    rows = report_mod.rows_from_records(records, origins, bucket_for)
    if args.format == "summary":
        text = report_mod.render_summary(rows)
        if args.stats:
            stats = [json.loads(ln) for ln in _read(args.stats).splitlines()
                     if ln.strip()]
            queries = {s["query"] for s in stats if "query" in s}
            text += "%d queries, %.2fs scan time, %d node comparisons\n" % (
                len(queries), sum(s.get("wall_time_s", 0.0) for s in stats),
                sum(s.get("node_comparisons", 0) for s in stats))
        _write_out(text, args.out)
    else:
        _write_out(report_mod.render_text(rows), args.out)
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

def build_parser(cfg: dict) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="analogue",
        description="Derive structural queries from vulnerable code snippets "
                    "and mine PHP corpora for their analogues.")
    ap.add_argument("--config", help="JSON file with option defaults")
    ap.add_argument("-v", "--verbose", action="store_true",
                    default=cfg.get("verbose", False))
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ast", help="export or import AST interchange records")
    p.add_argument("action", choices=["export", "import"])
    p.add_argument("file")
    p.add_argument("-o", "--out", default=cfg.get("out"))
    p.set_defaults(func=cmd_ast)

    p = sub.add_parser("derive", help="derive a wildcard template from a snippet")
    p.add_argument("snippet")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--lines", help="START:END slice (implies strict mode)")
    g.add_argument("--full", action="store_true",
                   help="whole snippet (implies normal mode)")
    p.add_argument("--mode", choices=["normal", "strict"],
                   default=cfg.get("mode"))
    p.add_argument("--symbols", choices=["preserve", "wildcard"],
                   default=cfg.get("symbols", "preserve"))
    p.add_argument("-o", "--out", default=cfg.get("out"))
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("compile", help="compile a template into a matcher program")
    p.add_argument("template")
    p.add_argument("--emit-script", help="also write the traversal script here")
    p.add_argument("--out-dir", default=cfg.get("out_dir", "."))
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("scan", help="run one query over PHP files")
    p.add_argument("query", help="template or program file")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", "-o", default=cfg.get("out"))
    p.add_argument("--no-depth-pruning", action="store_true")
    p.add_argument("--exact-arity", action="store_true",
                   default=cfg.get("exact_arity", False))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("mine", help="scan a set of repositories with all queries")
    p.add_argument("--repos", required=True, help="file listing repository paths")
    p.add_argument("--queries", required=True, help="directory of query files")
    p.add_argument("--jobs", type=int, default=cfg.get("jobs", 1))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-depth-pruning", action="store_true")
    p.add_argument("--exact-arity", action="store_true",
                   default=cfg.get("exact_arity", False))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("spider", help="enumerate and optionally download repositories")
    p.add_argument("--language", default=cfg.get("language", "php"))
    p.add_argument("--max-size-kb", type=int,
                   default=cfg.get("max_size_kb", spider_mod.DEFAULT_MAX_SIZE_KB))
    p.add_argument("--buckets", default=cfg.get("buckets", "all"),
                   choices=["all", spider_mod.NOT_POPULAR, spider_mod.POPULAR,
                            spider_mod.VERY_POPULAR])
    p.add_argument("--out", default=cfg.get("out", "-"))
    p.add_argument("--download", help="download matching repos into this directory")
    p.add_argument("--strategy", choices=["archive", "clone"],
                   default=cfg.get("strategy", "archive"))
    p.add_argument("--api-base", default=cfg.get("api_base", "https://api.github.com"))
    p.add_argument("--state", help="cursor state file for resumable crawls",
                   default=cfg.get("state"))
    p.add_argument("--per-page", type=int, default=cfg.get("per_page", 100))
    p.add_argument("--max-repos", type=int, default=cfg.get("max_repos"))
    p.add_argument("--min-interval", type=float,
                   default=cfg.get("min_interval", spider_mod.DEFAULT_MIN_INTERVAL_S))
    p.set_defaults(func=cmd_spider)

    p = sub.add_parser("report", help="render match records for triage")
    p.add_argument("matches")
    p.add_argument("--stats", help="stats.jsonl, adds scan totals to the summary")
    p.add_argument("--format", choices=["text", "summary"],
                   default=cfg.get("format", "text"))
    p.add_argument("--queries", help="query dir, to resolve seed origins",
                   default=cfg.get("queries"))
    p.add_argument("--repos", help="spidered repos.jsonl, to resolve buckets",
                   default=cfg.get("repos"))
    p.add_argument("-o", "--out", default=cfg.get("out"))
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="derive + compile + mine + report in one go")
    p.add_argument("seed")
    p.add_argument("corpus")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--lines", help="START:END vulnerable slice (strict query)")
    g.add_argument("--full", action="store_true")
    p.add_argument("--symbols", choices=["preserve", "wildcard"],
                   default=cfg.get("symbols", "preserve"))
    p.add_argument("--jobs", type=int, default=cfg.get("jobs", 1))
    p.add_argument("--out", default=cfg.get("out", "analogue-out"))
    p.add_argument("--no-depth-pruning", action="store_true")
    p.add_argument("--exact-arity", action="store_true",
                   default=cfg.get("exact_arity", False))
    p.set_defaults(func=cmd_pipeline)
    return ap


def _load_config(argv: list[str]) -> dict:
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return {}
    try:
        cfg = json.loads(Path(known.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise CliError("cannot read config %s: %s" % (known.config, e))
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _load_config(argv)
        args = build_parser(cfg).parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (LexError, ParseError, EmptySlice, AmbiguousSlice, EmptyInput,
            TemplateFormatError, ProgramFormatError,
            interchange.InterchangeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except spider_mod.AuthError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except RecursionError:
        print("error: %s: nesting exceeds the recursion limit" % SKIP_TOO_DEEP,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
