"""analogue: find structural re-occurrences of code snippets in PHP corpora.

Pipeline: parse (or import) source into normalized ASTs, derive a wildcard
template, whose variable classes carry the data flow, from a seed snippet,
compile it into a matcher program, and scan units or whole repositories for
anchored matches.  A repository spider assembles corpora from a
GitHub-compatible REST API.
"""
from .astree import (AmbiguousSlice, AstNode, EmptySlice, InvariantError,
                     SourceUnit, slice_statements, validate_unit)
from .php_parser import LexError, ParseError, parse_source
from .interchange import InterchangeError, export_ast, import_ast
from .template import (EmptyInput, Template, TemplateFormatError,
                       derive_template, deserialize_template, query_id_of,
                       serialize_template)
from .compiler import (MatcherProgram, MatcherStep, compile_template,
                       deserialize_program, export_traversal_script,
                       serialize_program, validate_program)
from .engine import (ComparisonCounter, Match, ScanOptions, attach_excerpt,
                     match_to_record, scan_unit)
from .miner import (MinerOptions, RepoScanResult, ScanStats, mine_repositories,
                    scan_repository, write_mining_outputs)
from .spider import (AuthError, DownloadError, RateBudget, RepoMeta,
                     SystemClock, classify, classify_stars, download_repo,
                     enumerate_repos, filter_candidates)
from .report import ReportRow, render_summary, render_text, rows_from_records

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSlice", "AstNode", "AuthError", "ComparisonCounter",
    "DownloadError", "EmptyInput", "EmptySlice", "InterchangeError",
    "InvariantError", "LexError", "Match", "MatcherProgram", "MatcherStep",
    "MinerOptions", "ParseError", "RateBudget", "RepoMeta",
    "RepoScanResult", "ReportRow", "ScanOptions", "ScanStats", "SourceUnit",
    "SystemClock", "Template", "TemplateFormatError", "attach_excerpt",
    "classify", "classify_stars", "compile_template", "derive_template",
    "deserialize_program", "deserialize_template", "download_repo",
    "enumerate_repos", "export_ast", "export_traversal_script",
    "filter_candidates", "import_ast", "match_to_record",
    "mine_repositories", "parse_source", "query_id_of", "render_summary",
    "render_text", "rows_from_records", "scan_repository", "scan_unit",
    "serialize_program", "serialize_template", "slice_statements",
    "validate_program", "validate_unit", "write_mining_outputs",
]
