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
arguments still matches) unless exact_arity is requested.  An attempt runs
the straight-line Python function generated from the program for the scan's
options (MatcherProgram.compiled), unless its shape decides it (below).

Most attempts fail inside the first statement, on a test that reads only the
statement's shape: its kind and its children's kinds, in order.  Shapes are
interned process-wide as small ints.  Each unit's AnchorIndex memoises the
shape id of every statement scanned, and the anchors left after the kind
index, depth pruning and the arity window, for each first kind, depth limit
and statement count; every program shares both.  Each program keeps the
verdict of its shape tests per shape id (compiler.Compiled).  So an attempt
that a shape test decides costs one lookup, and the shape is tested once
per program, not once per statement.  The table holds at most MAX_SHAPES
shapes of at most MAX_SHAPE_CHILDREN children each; any other statement gets
NO_SHAPE, and its attempts run the matcher.  Matches and comparison counts
are those of running the matcher at every anchor.

The fixed cost of one scan_unit call, made once per program and unit, is
two cached lookups: the program's scan plan for the option's exact_arity
(compiler.Compiled: first kind, template depth, statement count, matcher,
shape tests, verdict table and comparison steps, in one tuple), and the
unit's anchors for the plan's key.  A unit with no such anchor returns at
once.

attach_excerpt takes a file's source_lines, which the caller splits once
for all of the file's matches.
"""
from __future__ import annotations

from dataclasses import dataclass

from .astree import AstNode, SourceUnit, STMT_LIST
from .compiler import UNDECIDED, MatcherProgram, shape_verdict

# Bounds of the process-wide shape table: the shapes it holds, and the
# children of each.
MAX_SHAPES = 4096
MAX_SHAPE_CHILDREN = 16
# The shape id of a statement the table cannot hold.
NO_SHAPE = -1
# The most source lines a match's excerpt holds.
EXCERPT_LINES = 10

_shape_ids: dict[tuple[str, tuple[str, ...]], int] = {}
_shapes: list[tuple[str, tuple[str, ...]]] = []    # by shape id


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
    """A run of statements a program matched; == compares every field."""
    unit_path: str
    query_id: str
    stmt_list_id: int
    start_index: int
    bindings: dict[int, str]
    line_start: int
    line_end: int
    excerpt: str = ""


def _new_match(p: MatcherProgram, unit: SourceUnit, stmt_list_id: int,
               start_index: int, bindings: dict[int, str]) -> Match:
    stmts = unit.nodes[stmt_list_id].children
    return Match(unit_path=unit.path, query_id=p.query_id,
                 stmt_list_id=stmt_list_id, start_index=start_index, bindings=bindings,
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
    found = p.compiled(opts.exact_arity).match(unit.nodes, sl.children, start_index)
    failed = type(found) is int
    if counter is not None:
        counter.node_comparisons += found if failed else p.comparison_steps
    return None if failed else _new_match(p, unit, stmt_list_id, start_index, found)


def shape_id(n: AstNode, nodes: dict[int, AstNode]) -> int:
    """The id of statement n's shape (its kind and its children's kinds),
    interned on first sight; NO_SHAPE once the table is full, and for a
    statement of more than MAX_SHAPE_CHILDREN children."""
    children = n.children
    if len(children) > MAX_SHAPE_CHILDREN:
        return NO_SHAPE
    shape = (n.kind, tuple([nodes[c].kind for c in children]))
    sid = _shape_ids.get(shape)
    if sid is None:
        if len(_shapes) >= MAX_SHAPES:
            return NO_SHAPE
        sid = _shape_ids[shape] = len(_shapes)
        _shapes.append(shape)
    return sid


def _tries(unit: SourceUnit, first: str | None, depth_limit: int | None,
           k: int) -> list[tuple[int, tuple[int, ...], int, int]]:
    """The anchors a program of k statements is tried at: those whose
    statement has kind `first` (any kind when None), in a StmtList shallower
    than depth_limit (any depth when None), with k statements left.  Each is
    (StmtList id, its children, start, shape id of the statement at start),
    in document order."""
    index = unit.anchor_index()
    nodes, shapes = unit.nodes, index.shapes
    out = []
    for sl_id, sl_depth, start, siblings in (
            index.anchors if first is None else index.by_kind.get(first, ())):
        if (depth_limit is not None and sl_depth >= depth_limit) or start + k > siblings:
            continue
        stmts = nodes[sl_id].children
        stmt = stmts[start]
        sid = shapes.get(stmt)
        if sid is None:
            sid = shapes[stmt] = shape_id(nodes[stmt], nodes)
        out.append((sl_id, stmts, start, sid))
    return out


def scan_unit(p: MatcherProgram, unit: SourceUnit,
              opts: ScanOptions | None = None) -> tuple[list[Match], ComparisonCounter]:
    """Collect every match of the program in the unit, in document order.

    Only anchors whose first statement has the kind of the program's first
    KIND step are tried.  With depth pruning on, statement lists too deep to
    contain the template (depth > index.max_depth - template_depth) are
    skipped; the pruned and unpruned scans return identical match sets.
    The anchors left are listed once per unit for each first kind, depth
    limit and statement count (AnchorIndex.tries), with the shape id of
    each one's first statement; when there are none, the scan returns no
    matches and a zero counter.  At each, the program's verdict for that
    shape is looked up, and worked out on first sight.  A shape test that
    fails decides the attempt and adds the comparisons the matcher would
    have counted; otherwise, and for a statement with NO_SHAPE, the matcher
    runs.
    """
    opts = opts or ScanOptions()
    exact = opts.exact_arity
    # The plan cache is read here without a call, as this runs once per
    # program and unit; compiled() builds a missing plan.
    first, template_depth, k, match, tests, verdicts, steps = (
        p._matchers.get(exact) or p.compiled(exact))
    index = unit.anchor_index()
    depth_limit = (index.max_depth - template_depth + 1 if opts.depth_pruning
                   else None)
    key = (first, depth_limit, k)
    tries = index.tries.get(key)
    if tries is None:
        tries = index.tries[key] = _tries(unit, *key)
    if not tries:
        return [], ComparisonCounter(0, 0)
    nodes = unit.nodes
    matches: list[Match] = []
    comparisons = 0
    for sl_id, stmts, start, sid in tries:
        if tests:
            verdict = verdicts.get(sid)
            if verdict is None:
                verdict = verdicts[sid] = (UNDECIDED if sid == NO_SHAPE else
                                           shape_verdict(tests, *_shapes[sid]))
            if verdict != UNDECIDED:
                comparisons += verdict
                continue
        found = match(nodes, stmts, start)
        if type(found) is int:
            comparisons += found
            continue
        comparisons += steps
        matches.append(_new_match(p, unit, sl_id, start, found))
    return matches, ComparisonCounter(comparisons, len(tries))


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


def attach_excerpt(m: Match, lines: list[str]) -> Match:
    """Fill the excerpt with up to EXCERPT_LINES lines of the match span.

    lines is the file's source_lines, split once for all of its matches.
    Lines are numbered as the lexer numbers them, and each loses one
    trailing carriage return, so a CRLF file gives the same excerpt as its
    LF copy.
    """
    lo = max(m.line_start - 1, 0)
    m.excerpt = "\n".join(ln[:-1] if ln.endswith("\r") else ln
                          for ln in lines[lo:min(m.line_end, lo + EXCERPT_LINES)])
    return m
