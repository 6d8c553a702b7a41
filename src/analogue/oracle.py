"""Brute-force reference matcher for differential testing.

Implements the same matching semantics as the compiled engine by direct
recursive tree comparison with an explicit binding map.  Deliberately shares
no matching code with engine.scan_unit: this module walks template and target
trees side by side, the engine replays a flat step program.
"""
from __future__ import annotations

from .astree import SourceUnit, AstNode, STMT_LIST
from .engine import Match
from .template import (ApiSymbol, Template, VarWildcard, query_id_of)


def _subtree_matches(t: Template, tmpl_id: int, unit: SourceUnit, node: AstNode,
                     bindings: dict[int, str], exact_arity: bool) -> bool:
    tn = t.nodes[tmpl_id]
    if node.kind != tn.kind:
        return False
    role = tn.leaf_role
    if isinstance(role, ApiSymbol):
        if node.symbol != role.name:
            return False
    elif isinstance(role, VarWildcard):
        name = node.symbol or ""
        if role.class_id in bindings:
            if bindings[role.class_id] != name:
                return False
        else:
            bindings[role.class_id] = name
    # LiteralWildcard / CallWildcard constrain only the kind.
    if exact_arity:
        if len(node.children) != len(tn.children):
            return False
    elif len(node.children) < len(tn.children):
        return False
    for tc, uc in zip(tn.children, node.children):
        if not _subtree_matches(t, tc, unit, unit.nodes[uc], bindings, exact_arity):
            return False
    return True


def brute_force_scan(t: Template, unit: SourceUnit,
                     exact_arity: bool = False) -> list[Match]:
    """All matches of the template in the unit, in document order."""
    query_id = query_id_of(t)
    span = len(t.statements)
    matches: list[Match] = []

    def visit(node: AstNode) -> None:
        if node.kind == STMT_LIST:
            stmts = node.children
            for start in range(0, len(stmts) - span + 1):
                bindings: dict[int, str] = {}
                ok = True
                for offset, tmpl_root in enumerate(t.statements):
                    target = unit.nodes[stmts[start + offset]]
                    if not _subtree_matches(t, tmpl_root, unit, target,
                                            bindings, exact_arity):
                        ok = False
                        break
                if ok:
                    first = unit.nodes[stmts[start]]
                    last = unit.nodes[stmts[start + span - 1]]
                    matches.append(Match(
                        unit_path=unit.path, query_id=query_id,
                        stmt_list_id=node.id, start_index=start,
                        statement_span=span, bindings=bindings,
                        line_start=first.line_start, line_end=last.line_end))
        for c in node.children:
            visit(unit.nodes[c])

    visit(unit.nodes[unit.root])
    return matches
