"""Normalized syntax trees for PHP source files.

Node kinds are plain strings.  The canonical kinds below cover the parsed
subset; ``BinOp`` kinds carry their operator as ``BinOp:<op>`` and any other
string (``Other:foo``, or an unknown kind from an imported stream) acts as an
opaque tag that only ever participates in exact kind equality.

Trees compare with ``==``: a SourceUnit and its AstNodes are dataclasses,
so two units are equal when their paths, roots and node tables are, node
ids and line spans included.  ``preorder`` is the one document-order walk,
for units and templates alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

STMT_LIST = "StmtList"
ASSIGN = "Assign"
CALL = "Call"
ARG_LIST = "ArgList"
ARRAY_DIM = "ArrayDim"
VAR = "Var"
NAME = "Name"
LITERAL = "Literal"
ENCAPSED = "Encapsed"
ECHO = "Echo"
IF = "If"
WHILE = "While"
FOREACH = "Foreach"
RETURN = "Return"
HTML = "Html"
OTHER = "Other"

CONCAT = "BinOp:concat"

CANONICAL_KINDS = frozenset({
    STMT_LIST, ASSIGN, CALL, ARG_LIST, ARRAY_DIM, VAR, NAME, LITERAL,
    ENCAPSED, ECHO, IF, WHILE, FOREACH, RETURN, HTML, OTHER,
})


def binop(op: str) -> str:
    return "BinOp:" + op


def other(tag: str) -> str:
    return "Other:" + tag if tag else OTHER


def is_binop(kind: str) -> bool:
    return kind.startswith("BinOp:")


class InvariantError(Exception):
    """A SourceUnit violates a structural invariant; `node` is the id of the
    offending node, or None when no one node is to blame."""

    def __init__(self, message: str, node: int | None = None):
        self.node = node
        super().__init__(message)


class EmptySlice(Exception):
    """No statement lies entirely within the requested line range."""


class AmbiguousSlice(Exception):
    """The requested line range selects statements from more than one block."""


@dataclass(slots=True)
class AstNode:
    id: int
    kind: str
    children: tuple[int, ...] = ()
    symbol: str | None = None      # identifier for Var, callee/const name for Name
    value: str | None = None       # raw literal content for Literal
    line_start: int = 1
    line_end: int = 1


def preorder(nodes: dict, roots) -> Iterator:
    """Yield the nodes under each root in turn, in document order: a node
    before its children, children left to right.  `nodes` maps an id to a
    node with a tuple of child ids.  The walk keeps an explicit stack, so
    depth is not limited by the recursion limit."""
    stack = list(reversed(roots))
    while stack:
        n = nodes[stack.pop()]
        yield n
        stack.extend(reversed(n.children))


@dataclass
class SourceUnit:
    path: str
    root: int
    nodes: dict[int, AstNode]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def children_of(self, n: AstNode) -> list[AstNode]:
        return [self.nodes[c] for c in n.children]

    def iter_preorder(self) -> Iterator[AstNode]:
        """Yield nodes in document order (root first, children left to right)."""
        return preorder(self.nodes, (self.root,))

    def stmt_lists(self) -> list[AstNode]:
        """Every StmtList, in pre-order.  The pipeline never calls it: it
        stays here only because perfbench wraps it (ROADMAP item 3b)."""
        return [n for n in self.iter_preorder() if n.kind == STMT_LIST]


def check_forest(nodes: dict, roots) -> int:
    """The one tree-shape rule, for units and templates: every root and
    child id in `nodes` (id -> node with a tuple of children) has a node, no
    node is reached twice (no shared child, no cycle), and every node is
    reachable from a root.  Returns the depth of the deepest node, the roots
    at depth 0.  Raises InvariantError naming the missing root, the parent
    of a dangling id, the node reached twice, or the first unreachable node
    in the order of `nodes`.
    """
    for r in roots:
        if r not in nodes:
            raise InvariantError("root id %d not present" % r, r)
    deepest = 0
    seen: set[int] = set()
    stack = [(r, 0) for r in roots]
    while stack:
        node_id, depth = stack.pop()
        if node_id in seen:
            raise InvariantError("node %d has multiple parents or a cycle"
                                 % node_id, node_id)
        seen.add(node_id)
        children = nodes[node_id].children
        if children:
            depth += 1
            deepest = max(deepest, depth)
            for c in children:
                if c not in nodes:
                    raise InvariantError("dangling child reference %d in node %d"
                                         % (c, node_id), node_id)
                stack.append((c, depth))
    if len(seen) != len(nodes):
        stray = [node_id for node_id in nodes if node_id not in seen]
        raise InvariantError("unreachable nodes: %s" % stray[:5], stray[0])
    return deepest


def validate_unit(unit: SourceUnit) -> None:
    """Check tree shape, line spans and symbol/value placement.

    The tree is a forest under the root (check_forest), and the root is a
    StmtList.  A node's line span is not inverted and lies within its
    parent's.  Var and Name nodes carry a symbol, Literal nodes a value, and
    no other canonical kind (BinOp included) carries either; tagged kinds
    from external frontends may carry either field and keep it verbatim.
    Raises InvariantError naming the offending node; for a span that
    escapes, the child.
    """
    nodes = unit.nodes
    check_forest(nodes, (unit.root,))
    if nodes[unit.root].kind != STMT_LIST:
        raise InvariantError("root must be a StmtList", unit.root)
    for node_id, n in nodes.items():
        if n.line_start > n.line_end:
            raise InvariantError("node %d has inverted line span" % node_id, node_id)
        for c in n.children:
            child = nodes[c]
            if child.line_start < n.line_start or child.line_end > n.line_end:
                raise InvariantError(
                    "child %d span escapes parent %d span" % (c, node_id), c)
        if n.kind in (VAR, NAME):
            if n.symbol is None:
                raise InvariantError("node %d (%s) lacks a symbol"
                                     % (node_id, n.kind), node_id)
        elif n.kind == LITERAL:
            if n.value is None:
                raise InvariantError("Literal node %d lacks a value" % node_id, node_id)
        elif n.kind in CANONICAL_KINDS or is_binop(n.kind):
            if n.symbol is not None or n.value is not None:
                raise InvariantError("node %d (%s) carries symbol/value"
                                     % (node_id, n.kind), node_id)


class TreeBuilder:
    """Incremental construction of a SourceUnit with dense ids."""

    def __init__(self) -> None:
        self._nodes: dict[int, AstNode] = {}
        self._next = 0

    def add(self, kind: str, children: list[int] | tuple[int, ...] = (),
            symbol: str | None = None, value: str | None = None,
            line_start: int | None = None, line_end: int | None = None) -> int:
        """Add a node and return its id.  This is where a node's span is set:
        line_start..line_end, the lines of the tokens the node owns, widened
        to its first child's start and its last child's end, so a node covers
        its children.  Children follow the text, so those two bound them all.
        A node given no line_start starts at its first child (a leaf at line
        1), and one given no line_end ends at line_start or its last child."""
        node_id = self._next
        self._next += 1
        if children:
            nodes = self._nodes
            first = nodes[children[0]].line_start
            last = nodes[children[-1]].line_end
            if line_start is None or first < line_start:
                line_start = first
            if line_end is None or last > line_end:
                line_end = last
        elif line_start is None:
            line_start = 1
        self._nodes[node_id] = AstNode(
            node_id, kind, tuple(children), symbol, value, line_start,
            line_start if line_end is None else line_end)
        return node_id

    def rollback(self, mark: int) -> None:
        """Discard the nodes created since _next was mark (parse error
        recovery)."""
        for node_id in range(mark, self._next):
            self._nodes.pop(node_id, None)
        self._next = mark

    def finish(self, path: str, root: int) -> SourceUnit:
        return SourceUnit(path=path, root=root, nodes=self._nodes)


def slice_statements(unit: SourceUnit, first_line: int, last_line: int) -> list[AstNode]:
    """Select the run of sibling statements lying entirely in [first_line, last_line].

    Only outermost contained statements count: a control structure whose whole
    span fits is one statement, its body is not considered separately.  One
    pre-order walk collects them, in document order, and does not descend
    into a statement it collects.
    """
    if first_line > last_line:
        raise ValueError("first_line must not exceed last_line")
    nodes = unit.nodes
    outer: list[tuple[int, int, AstNode]] = []  # (StmtList id, index in it, statement)
    stack: list[tuple[int, int | None, int]] = [(unit.root, None, 0)]
    while stack:
        node_id, owner, index = stack.pop()
        n = nodes[node_id]
        if owner is not None and n.line_start >= first_line and n.line_end <= last_line:
            outer.append((owner, index, n))
            continue
        ch, own = n.children, node_id if n.kind == STMT_LIST else None
        stack.extend((ch[i], own, i) for i in range(len(ch) - 1, -1, -1))
    if not outer:
        raise EmptySlice("no statement fully inside lines %d..%d" % (first_line, last_line))
    blocks = {owner for owner, _, _ in outer}
    if len(blocks) > 1:
        raise AmbiguousSlice(
            "lines %d..%d select statements from %d distinct blocks"
            % (first_line, last_line, len(blocks)))
    if outer[-1][1] - outer[0][1] != len(outer) - 1:  # indices rise in document order
        raise AmbiguousSlice("selected statements are not consecutive siblings")
    return [n for _, _, n in outer]
