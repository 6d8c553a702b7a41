"""Execute matcher programs against source units.

Matching is anchored: a program of k statements matches a run of k
consecutive sibling statements under some StmtList.  The scan does not try
every run.  It reads the unit's cached AnchorIndex and tries only the starts
whose statement has the kind named by the program's first KIND step (every
start when the program does not open with one), skipping StmtLists too deep
for the template and starts with fewer than k statements left.  The runs it
skips would fail on the first step, so the matches, and their document
order, are those of an exhaustive scan.  Target nodes may have extra
trailing children beyond what the program specifies (a call with more
arguments still matches) unless exact_arity is requested.  Each attempt runs
the straight-line Python function generated from the program for the scan's
options (MatcherProgram.matcher).
"""
from __future__ import annotations

from dataclasses import dataclass

from . import compiler
from .astree import SourceUnit, STMT_LIST
from .compiler import MatcherProgram


@dataclass
class ScanOptions:
    depth_pruning: bool = True
    exact_arity: bool = False


@dataclass
class ComparisonCounter:
    """Work done by one scan.

    candidates_tried counts the anchors the program is tried at: those left
    after the kind index, depth pruning and the arity window (start +
    statement count <= sibling count).  node_comparisons counts the KIND,
    SYMBOL, BIND and CHECK steps executed.
    """
    node_comparisons: int = 0
    candidates_tried: int = 0


@dataclass
class Match:
    unit_path: str
    query_id: str
    stmt_list_id: int
    start_index: int
    statement_span: int
    bindings: dict[int, str]
    line_start: int
    line_end: int
    excerpt: str = ""

    def key(self) -> tuple:
        """Identity for differential comparison (excerpt excluded)."""
        return (self.unit_path, self.query_id, self.stmt_list_id,
                self.start_index, self.statement_span,
                tuple(sorted(self.bindings.items())),
                self.line_start, self.line_end)


def _new_match(p: MatcherProgram, unit: SourceUnit, stmt_list_id: int,
               start_index: int, bindings: dict[int, str]) -> Match:
    stmts = unit.nodes[stmt_list_id].children
    return Match(unit_path=unit.path, query_id=p.query_id,
                 stmt_list_id=stmt_list_id, start_index=start_index,
                 statement_span=p.statement_count, bindings=bindings,
                 line_start=unit.nodes[stmts[start_index]].line_start,
                 line_end=unit.nodes[stmts[start_index + p.statement_count - 1]].line_end)


def match_at(p: MatcherProgram, unit: SourceUnit, stmt_list_id: int,
             start_index: int, opts: ScanOptions | None = None,
             counter: ComparisonCounter | None = None) -> Match | None:
    """Try the program against consecutive statements starting at start_index.

    A fresh binding environment is used per attempt; absence of a match is a
    normal result.  Runs the program's generated matcher, as scan_unit does.
    """
    opts = opts or ScanOptions()
    sl = unit.nodes[stmt_list_id]
    if sl.kind != STMT_LIST:
        raise ValueError("anchor %d is not a StmtList" % stmt_list_id)
    if start_index < 0 or start_index + p.statement_count > len(sl.children):
        return None
    found = p.matcher(opts.exact_arity)(unit.nodes, sl.children, start_index)
    failed = type(found) is int
    if counter is not None:
        counter.node_comparisons += found if failed else p.comparison_steps
    return None if failed else _new_match(p, unit, stmt_list_id, start_index, found)


def scan_unit(p: MatcherProgram, unit: SourceUnit,
              opts: ScanOptions | None = None) -> tuple[list[Match], ComparisonCounter]:
    """Collect every match of the program in the unit, in document order.

    Only anchors whose first statement has the kind of the program's first
    KIND step are tried.  With depth pruning on, statement lists too deep to
    contain the template (depth > index.max_depth - template_depth) are
    skipped; the pruned and unpruned scans return identical match sets.
    """
    opts = opts or ScanOptions()
    matches: list[Match] = []
    index = unit.anchor_index()
    if p.steps and p.steps[0].op == compiler.KIND:
        anchors = index.by_kind.get(p.steps[0].kind, ())
    else:
        anchors = index.anchors
    match = p.matcher(opts.exact_arity)
    nodes = unit.nodes
    pruning = opts.depth_pruning
    depth_limit = index.max_depth - p.template_depth + 1
    k = p.statement_count
    comparisons = tried = 0
    for sl_id, sl_depth, start, siblings in anchors:
        if (pruning and sl_depth >= depth_limit) or start + k > siblings:
            continue
        tried += 1
        found = match(nodes, nodes[sl_id].children, start)
        if type(found) is int:
            comparisons += found
            continue
        comparisons += p.comparison_steps
        matches.append(_new_match(p, unit, sl_id, start, found))
    return matches, ComparisonCounter(node_comparisons=comparisons,
                                      candidates_tried=tried)


# ---------------------------------------------------------------------------
# Newline-delimited match records (the external interface)
# ---------------------------------------------------------------------------

def match_to_record(m: Match) -> dict:
    return {
        "query": m.query_id,
        "file": m.unit_path,
        "lines": [m.line_start, m.line_end],
        "stmt_index": m.start_index,
        "bindings": {str(k): v for k, v in sorted(m.bindings.items())},
        "excerpt": m.excerpt,
    }


def source_lines(text: str) -> list[str]:
    """text split at newlines, the only line break the lexer counts.

    A final newline ends the last line rather than opening an empty one.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def attach_excerpt(m: Match, source: str | list[str], max_lines: int = 10) -> Match:
    """Fill the excerpt with up to max_lines source lines from the match span.

    source is the unit's text, or its source_lines when one text gets many
    excerpts.  Lines are numbered as the lexer numbers them, and each loses
    one trailing carriage return, so a CRLF file gives the same excerpt as
    its LF copy.
    """
    lines = source_lines(source) if isinstance(source, str) else source
    lo = max(m.line_start - 1, 0)
    m.excerpt = "\n".join(ln[:-1] if ln.endswith("\r") else ln
                          for ln in lines[lo:min(m.line_end, lo + max_lines)])
    return m
