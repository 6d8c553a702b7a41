"""The step interpreter that the generated matchers replaced.

Kept as a test oracle: tests/test_matcher_differential.py checks
that engine.match_at, which runs the program's generated straight-line
function, returns the same Match or None and adds the same number of node
comparisons as `match_at` here, which replays the step list one op at a time.
"""
from __future__ import annotations

from analogue import compiler
from analogue.astree import SourceUnit, STMT_LIST
from analogue.compiler import MatcherProgram
from analogue.engine import ComparisonCounter, Match, ScanOptions


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

    counting = counter is not None
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
            bindings[step.class_id] = cur.symbol or ""
        elif op == compiler.CHECK:
            if bindings.get(step.class_id) != (cur.symbol or ""):
                return None

    first = unit.nodes[stmts[start_index]]
    last = unit.nodes[stmts[start_index + p.statement_count - 1]]
    return Match(unit_path=unit.path, query_id=p.query_id,
                 stmt_list_id=stmt_list_id, start_index=start_index,
                 statement_span=p.statement_count, bindings=dict(bindings),
                 line_start=first.line_start, line_end=last.line_end)
