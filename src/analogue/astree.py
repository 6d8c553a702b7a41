"""Normalized syntax trees for PHP source files.

Node kinds are plain strings.  The canonical kinds below cover the parsed
subset; ``BinOp`` kinds carry their operator as ``BinOp:<op>`` and any other
string (``Other:foo``, or an unknown kind from an imported stream) acts as an
opaque tag that only ever participates in exact kind equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


# One scan position: (stmt_list_id, stmt_list_depth, start, sibling_count).
Anchor = tuple[int, int, int, int]


@dataclass(frozen=True)
class AnchorIndex:
    """Where a statement program can start in one unit.

    Every (StmtList, start) position is listed once in `anchors` and once
    under the kind of the statement at that position in `by_kind`; both are
    in document order (StmtLists in pre-order, starts ascending).  `symbols`
    holds every node's symbol, None included.  `max_depth` is the depth of
    the deepest node, the root being at depth 0.
    """
    anchors: list[Anchor]
    by_kind: dict[str, list[Anchor]]
    symbols: frozenset
    max_depth: int


@dataclass
class SourceUnit:
    path: str
    root: int
    nodes: dict[int, AstNode]
    _index: AnchorIndex | None = field(default=None, init=False, repr=False,
                                       compare=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def children_of(self, n: AstNode) -> list[AstNode]:
        return [self.nodes[c] for c in n.children]

    def parent_map(self) -> dict[int, int]:
        parents: dict[int, int] = {}
        for n in self.nodes.values():
            for c in n.children:
                parents[c] = n.id
        return parents

    def iter_preorder(self):
        """Yield nodes in document order (root first, children left to right)."""
        stack = [self.root]
        while stack:
            n = self.nodes[stack.pop()]
            yield n
            stack.extend(reversed(n.children))

    def stmt_lists(self) -> list[AstNode]:
        return [n for n in self.iter_preorder() if n.kind == STMT_LIST]

    def anchor_index(self) -> AnchorIndex:
        """The unit's AnchorIndex, built on first use and cached.

        The cache assumes the tree is not edited after it is first scanned.
        """
        if self._index is None:
            nodes = self.nodes
            anchors: list[Anchor] = []
            by_kind: dict[str, list[Anchor]] = {}
            symbols = set()
            max_depth = 0
            # Pre-order with an explicit stack of (node id, depth) pairs:
            # children are pushed in reverse so they pop left to right.
            stack = [(self.root, 0)]
            pop, push = stack.pop, stack.append
            while stack:
                node_id, depth = pop()
                n = nodes[node_id]
                symbols.add(n.symbol)
                children = n.children
                if children:
                    if n.kind == STMT_LIST:
                        count = len(children)
                        for start, c in enumerate(children):
                            a = (node_id, depth, start, count)
                            anchors.append(a)
                            by_kind.setdefault(nodes[c].kind, []).append(a)
                    depth += 1
                    for c in reversed(children):
                        push((c, depth))
                elif depth > max_depth:
                    max_depth = depth
            self._index = AnchorIndex(anchors, by_kind, frozenset(symbols),
                                      max_depth)
        return self._index


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


def structurally_equal(a: SourceUnit, b: SourceUnit, include_lines: bool = True) -> bool:
    """Node-for-node tree equality: kind, symbol, value, child order (ids may differ).

    Both units must be trees, as validate_unit checks.  Node pairs are
    compared in pre-order, with an explicit stack, so depth is not limited
    by the recursion limit.
    """
    stack = [(a.root, b.root)]
    while stack:
        ia, ib = stack.pop()
        na, nb = a.nodes[ia], b.nodes[ib]
        if (na.kind, na.symbol, na.value) != (nb.kind, nb.symbol, nb.value):
            return False
        if include_lines and (na.line_start, na.line_end) != (nb.line_start, nb.line_end):
            return False
        if len(na.children) != len(nb.children):
            return False
        stack.extend(zip(reversed(na.children), reversed(nb.children)))
    return True


class TreeBuilder:
    """Incremental construction of a SourceUnit with dense ids."""

    def __init__(self) -> None:
        self._nodes: dict[int, AstNode] = {}
        self._next = 0

    def add(self, kind: str, children: list[int] | tuple[int, ...] = (),
            symbol: str | None = None, value: str | None = None,
            line_start: int = 1, line_end: int | None = None) -> int:
        node_id = self._next
        self._next += 1
        self._nodes[node_id] = AstNode(
            node_id, kind, tuple(children), symbol, value, line_start,
            line_start if line_end is None else line_end)
        return node_id

    def mark(self) -> int:
        return self._next

    def rollback(self, mark: int) -> None:
        """Discard nodes created since mark (parse error recovery)."""
        for node_id in range(mark, self._next):
            self._nodes.pop(node_id, None)
        self._next = mark

    def span_from_children(self, node_id: int) -> None:
        nodes = self._nodes
        n = nodes[node_id]
        lo, hi = n.line_start, n.line_end
        for c in n.children:
            child = nodes[c]
            if child.line_start < lo:
                lo = child.line_start
            if child.line_end > hi:
                hi = child.line_end
        n.line_start, n.line_end = lo, hi

    def finish(self, path: str, root: int) -> SourceUnit:
        return SourceUnit(path=path, root=root, nodes=self._nodes)


def statement_parent_index(unit: SourceUnit) -> dict[int, tuple[int, int]]:
    """Map statement node id -> (owning StmtList id, index among siblings)."""
    out: dict[int, tuple[int, int]] = {}
    for sl in unit.stmt_lists():
        for i, c in enumerate(sl.children):
            out[c] = (sl.id, i)
    return out


def slice_statements(unit: SourceUnit, first_line: int, last_line: int) -> list[AstNode]:
    """Select the run of sibling statements lying entirely in [first_line, last_line].

    Only outermost contained statements count: a control structure whose whole
    span fits is one statement, its body is not considered separately.
    """
    if first_line > last_line:
        raise ValueError("first_line must not exceed last_line")
    stmt_index = statement_parent_index(unit)
    contained = [unit.nodes[sid] for sid in stmt_index
                 if unit.nodes[sid].line_start >= first_line
                 and unit.nodes[sid].line_end <= last_line]
    if not contained:
        raise EmptySlice("no statement fully inside lines %d..%d" % (first_line, last_line))
    # Drop statements nested inside another contained statement.
    contained_ids = {n.id for n in contained}

    def has_contained_ancestor(node_id: int) -> bool:
        parents = parent_cache
        cur = parents.get(node_id)
        while cur is not None:
            if cur in contained_ids:
                return True
            cur = parents.get(cur)
        return False

    parent_cache = unit.parent_map()
    outer = [n for n in contained if not has_contained_ancestor(n.id)]
    parents = {stmt_index[n.id][0] for n in outer}
    if len(parents) > 1:
        raise AmbiguousSlice(
            "lines %d..%d select statements from %d distinct blocks"
            % (first_line, last_line, len(parents)))
    outer.sort(key=lambda n: stmt_index[n.id][1])
    indices = [stmt_index[n.id][1] for n in outer]
    if indices != list(range(indices[0], indices[0] + len(indices))):
        raise AmbiguousSlice("selected statements are not consecutive siblings")
    return outer
