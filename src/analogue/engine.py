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
arguments still matches) unless exact_arity is requested.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from . import compiler
from .astree import SourceUnit, STMT_LIST
from .compiler import MatcherProgram


@dataclass
class ScanOptions:
    depth_pruning: bool = True
    max_matches_per_unit: int | None = None
    count_comparisons: bool = True
    exact_arity: bool = False
    injective_bindings: bool = False


@dataclass
class ComparisonCounter:
    """Work done by one scan.

    candidates_tried counts the anchors passed to match_at: those left after
    the kind index, depth pruning and the arity window (start + statement
    count <= sibling count).  node_comparisons counts the KIND, SYMBOL, BIND
    and CHECK steps executed.
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

    @property
    def anchor(self) -> tuple[int, int]:
        return (self.stmt_list_id, self.start_index)

    def key(self) -> tuple:
        """Identity for differential comparison (excerpt excluded)."""
        return (self.unit_path, self.query_id, self.stmt_list_id,
                self.start_index, self.statement_span,
                tuple(sorted(self.bindings.items())),
                self.line_start, self.line_end)


def match_at(p: MatcherProgram, unit: SourceUnit, stmt_list_id: int,
             start_index: int, opts: ScanOptions | None = None,
             counter: ComparisonCounter | None = None) -> Match | None:
    """Try the program against consecutive statements starting at start_index.

    A fresh binding environment is used per attempt; absence of a match is a
    normal result.
    """
    opts = opts or ScanOptions()
    sl = unit.nodes[stmt_list_id]
    if sl.kind != STMT_LIST:
        raise ValueError("anchor %d is not a StmtList" % stmt_list_id)
    stmts = sl.children
    if start_index < 0 or start_index + p.statement_count > len(stmts):
        return None

    counting = counter is not None and opts.count_comparisons
    bindings: dict[int, str] = {}
    stmt_pos = start_index
    cur = unit.nodes[stmts[stmt_pos]]
    stack: list = []

    for step in p.steps:
        op = step.op
        if op == compiler.DESCEND:
            if step.child_index >= len(cur.children):
                return None
            stack.append(cur)
            cur = unit.nodes[cur.children[step.child_index]]
            continue
        if op == compiler.ASCEND:
            cur = stack.pop()
            continue
        if op == compiler.NEXT:
            stmt_pos += 1
            cur = unit.nodes[stmts[stmt_pos]]
            stack.clear()
            continue
        if counting:
            counter.node_comparisons += 1
        if op == compiler.KIND:
            if cur.kind != step.kind:
                return None
            if opts.exact_arity and len(cur.children) != step.arity:
                return None
        elif op == compiler.SYMBOL:
            if cur.symbol != step.name:
                return None
        elif op == compiler.BIND:
            name = cur.symbol or ""
            if opts.injective_bindings and name in bindings.values():
                return None
            bindings[step.class_id] = name
        elif op == compiler.CHECK:
            if bindings.get(step.class_id) != (cur.symbol or ""):
                return None

    first = unit.nodes[stmts[start_index]]
    last = unit.nodes[stmts[start_index + p.statement_count - 1]]
    return Match(unit_path=unit.path, query_id=p.query_id,
                 stmt_list_id=stmt_list_id, start_index=start_index,
                 statement_span=p.statement_count, bindings=dict(bindings),
                 line_start=first.line_start, line_end=last.line_end)


def scan_unit(p: MatcherProgram, unit: SourceUnit,
              opts: ScanOptions | None = None) -> tuple[list[Match], ComparisonCounter]:
    """Collect every match of the program in the unit, in document order.

    Only anchors whose first statement has the kind of the program's first
    KIND step are tried.  With depth pruning on, statement lists too deep to
    contain the template (depth > max_depth(unit) - template_depth) are
    skipped; the pruned and unpruned scans return identical match sets.
    """
    opts = opts or ScanOptions()
    counter = ComparisonCounter()
    matches: list[Match] = []
    index = unit.anchor_index()
    if p.steps and p.steps[0].op == compiler.KIND:
        anchors = index.by_kind.get(p.steps[0].kind, ())
    else:
        anchors = index.anchors
    pruning = opts.depth_pruning
    depth_limit = unit.max_depth - p.template_depth + 1
    k = p.statement_count
    cap = opts.max_matches_per_unit
    for sl_id, sl_depth, start, siblings in anchors:
        if (pruning and sl_depth >= depth_limit) or start + k > siblings:
            continue
        counter.candidates_tried += 1
        m = match_at(p, unit, sl_id, start, opts, counter)
        if m is not None:
            matches.append(m)
            if cap is not None and len(matches) >= cap:
                break
    return matches, counter


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


def match_to_json(m: Match) -> str:
    return json.dumps(match_to_record(m), sort_keys=True)


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
