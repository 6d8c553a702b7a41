"""Execute matcher programs against source units.

Matching is anchored: a program of k statements matches a run of k
consecutive sibling statements under some StmtList.  The scan does not try
every run.  It reads the unit's AnchorIndex (anchor_index), which the miner
builds once per file, and tries only the starts whose statement has the kind
of the program's first step, a KIND step in every program
(compiler.validate_program), skipping StmtLists too deep for the template
and starts with fewer than k statements left.  The runs it skips would fail
on the first step, so the matches, and their document order, are those of an
exhaustive scan.  Target nodes may have extra trailing children beyond what
the program specifies (a call with more arguments still matches) unless
exact_arity is requested.  An attempt runs the straight-line Python function
generated from the program for the scan's options (MatcherProgram.compiled),
unless its shape decides it (below).

Most attempts fail inside the first statement, on a test that reads only the
statement's shape: its kind and its children's kinds, in order.  Shapes are
interned process-wide as small ints.  Each unit's AnchorIndex lists the
StmtLists once, and the anchors of an opening kind the first time a program
that opens with it asks; it memoises the shape id of every statement tried
at, and the anchors left after the kind, depth pruning and the arity window,
for each first kind, depth limit and statement count; every program shares
all three.  Each program keeps the verdict of its shape tests per shape id
(compiler.Compiled).  So an attempt that a shape test decides costs one
lookup, and the shape is tested once per program, not once per statement.
The table holds at most MAX_SHAPES shapes of at most MAX_SHAPE_CHILDREN
children each; any other statement gets NO_SHAPE, and its attempts run the
matcher.  Matches and comparison counts are those of running the matcher at
every anchor.

The fixed cost of one scan_unit call, made once per program and unit, is
two cached lookups: the program's scan plan for the option's exact_arity
(compiler.Compiled: first kind, template depth, statement count, matcher,
shape tests, verdict table and comparison steps, in one tuple), and the
index's anchors for the plan's key.  A unit with no such anchor returns at
once.

attach_excerpt takes a file's source_lines, which the caller splits once
for all of the file's matches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    The pipeline never calls it: it stays here only because perfbench hooks
    it (ROADMAP item 3b).
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


# One scan position: (stmt_list_id, stmt_list_depth, start, sibling_count).
Anchor = tuple[int, int, int, int]


@dataclass(slots=True)
class AnchorIndex:
    """Where a statement program can start in one unit, and the scan caches
    that every program shares.

    `stmt_lists` holds each StmtList that has a statement as (id, depth,
    children), in pre-order, the root at depth 0.  `symbols` holds every
    node's symbol, None included, and `max_depth` is the depth of the
    deepest node.  The rest is filled as scans ask: `by_kind` maps an
    opening kind to its anchors (anchors), `tries` maps a program's first
    kind, depth limit and statement count to the anchors such a program is
    tried at (tried_at), and `shapes` maps each statement tried at to its
    shape id (shape_id).  Two indexes compare by what anchor_index lists.
    """
    nodes: dict[int, AstNode] = field(repr=False)
    stmt_lists: list[tuple[int, int, tuple[int, ...]]]
    symbols: frozenset
    max_depth: int
    by_kind: dict[str, list[Anchor]] = field(default_factory=dict, repr=False, compare=False)
    tries: dict[tuple, list] = field(default_factory=dict, repr=False, compare=False)
    shapes: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def anchors(self, kind: str) -> list[Anchor]:
        """Every (StmtList, start) whose statement has this kind, in
        document order (StmtLists in pre-order, starts ascending); listed
        the first time a kind is asked for."""
        found = self.by_kind.get(kind)
        if found is None:
            nodes = self.nodes
            found = self.by_kind[kind] = [
                (sl_id, depth, start, len(stmts)) for sl_id, depth, stmts in self.stmt_lists
                for start, c in enumerate(stmts) if nodes[c].kind == kind]
        return found

    def tried_at(self, first: str, depth_limit: int | None,
                 k: int) -> list[tuple[int, tuple[int, ...], int, int]]:
        """The anchors a program of k statements is tried at, cached under
        its key: those whose statement has kind `first`, in a StmtList
        shallower than depth_limit (any depth when None), with k statements
        left.  Each is (StmtList id, its children, start, shape id of the
        statement at start), in document order."""
        nodes, shapes = self.nodes, self.shapes
        out = self.tries[first, depth_limit, k] = []
        for sl_id, sl_depth, start, siblings in self.anchors(first):
            if (depth_limit is not None and sl_depth >= depth_limit) or start + k > siblings:
                continue
            stmts = nodes[sl_id].children
            stmt = stmts[start]
            sid = shapes.get(stmt)
            if sid is None:
                sid = shapes[stmt] = shape_id(nodes[stmt], nodes)
            out.append((sl_id, stmts, start, sid))
        return out


def anchor_index(unit: SourceUnit) -> AnchorIndex:
    """The unit's AnchorIndex, from one walk from the root, not in id order,
    so an imported unit whose ids are not in pre-order gets the same index.
    The walk keeps an explicit stack of (node id, depth) and pushes only the
    nodes that have children; a leaf child is never visited, and only raises
    `max_depth` to its depth.  `symbols` comes from one pass over the node
    table, which holds every node of a valid unit.  The miner builds one per
    file and passes it to every scan of the file."""
    nodes = unit.nodes
    stmt_lists = []
    max_depth = 0
    stack = [(unit.root, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        node_id, depth = pop()
        n = nodes[node_id]
        if n.kind == STMT_LIST and n.children:
            stmt_lists.append((node_id, depth, n.children))
        depth += 1
        for c in reversed(n.children):
            if nodes[c].children:
                push((c, depth))
            elif depth > max_depth:
                max_depth = depth
    return AnchorIndex(nodes, stmt_lists, frozenset([n.symbol for n in nodes.values()]),
                       max_depth)


def scan_unit(p: MatcherProgram, unit: SourceUnit, opts: ScanOptions | None = None,
              index: AnchorIndex | None = None) -> tuple[list[Match], ComparisonCounter]:
    """Collect every match of the program in the unit, in document order.

    Only anchors whose first statement has the kind of the program's first
    KIND step are tried.  With depth pruning on, statement lists too deep to
    contain the template (depth > index.max_depth - template_depth) are
    skipped; the pruned and unpruned scans return identical match sets.
    The anchors left are read from `index`, the unit's AnchorIndex, built
    here when none is passed; it lists them once for each first kind, depth
    limit and statement count (AnchorIndex.tried_at), with the shape id of
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
    index = index or anchor_index(unit)
    depth_limit = (index.max_depth - template_depth + 1 if opts.depth_pruning
                   else None)
    tries = index.tries.get((first, depth_limit, k))
    if tries is None:
        tries = index.tried_at(first, depth_limit, k)
    if not tries:
        return [], ComparisonCounter(0, 0)
    nodes = unit.nodes
    matches: list[Match] = []
    comparisons = 0
    for sl_id, stmts, start, sid in tries:
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
