"""Wildcard templates derived from seed statements.

A template is a structural copy of the seed statement trees in which variable
names become numbered wildcard classes, literal values are erased, and callee
names are either preserved (``symbol_policy="preserve"``) or erased too
(``"wildcard"``).  Two variable positions with the same class id must bind the
same concrete name in any match: the classes are the template's only record
of data flow.

A template is its tree.  ``Template.template_depth`` is derived from it, and
the query id hashes the symbol policy, the statements and the nodes with
their class ids, nothing else.  A ``tmpl-v2`` file is a header and one record
per node; its header ``template_depth``, when present, must equal what the
tree implies.  ``tmpl-v2`` records are written and read with jsonl, the
writer and reader of every JSON-lines format: node records through the core they share with
``ast-v1``, and the tree through ``astree.check_forest``.  An int field
never takes a bool.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from . import astree, jsonl
from .astree import AstNode, InvariantError, SourceUnit

FORMAT = "tmpl-v2"

SYMBOL_POLICIES = ("preserve", "wildcard")


class EmptyInput(Exception):
    """derive_template was given no statements."""


class TemplateFormatError(jsonl.RecordError):
    """A tmpl-v2 defect; carries the offending record index (0-based)."""


@dataclass(frozen=True)
class ApiSymbol:
    name: str


@dataclass(frozen=True)
class VarWildcard:
    class_id: int


@dataclass(frozen=True)
class LiteralWildcard:
    pass


@dataclass(frozen=True)
class CallWildcard:
    pass


LeafRole = ApiSymbol | VarWildcard | LiteralWildcard | CallWildcard


@dataclass(frozen=True)
class TemplateNode:
    id: int
    kind: str
    children: tuple[int, ...] = ()
    leaf_role: LeafRole | None = None


@dataclass(frozen=True)
class SeedOrigin:
    """Where a seed came from: a str path and int first and last lines."""
    path: str
    line_start: int
    line_end: int

    def __post_init__(self) -> None:
        if type(self.path) is not str or type(self.line_start) is not int \
                or type(self.line_end) is not int:
            raise ValueError("malformed origin: needs a string path and two int lines")


def origin_from_json(obj) -> SeedOrigin | None:
    """The origin record of a tmpl-v2 or prog-v1 header, null or
    {"path": str, "lines": [int, int]}; ValueError for any other value."""
    if obj is None:
        return None
    lines = obj.get("lines") if isinstance(obj, dict) else None
    if not isinstance(lines, list) or len(lines) != 2:
        raise ValueError("malformed origin: needs a string path and two int lines")
    return SeedOrigin(obj.get("path"), *lines)


@dataclass
class Template:
    statements: tuple[int, ...]              # root node id per seed statement
    nodes: dict[int, TemplateNode]
    symbol_policy: str = "preserve"
    seed_origin: SeedOrigin | None = None

    def iter_preorder(self, root: int | None = None) -> Iterator[TemplateNode]:
        """Yield the nodes under `root`, or under each statement in turn, in
        document order."""
        return astree.preorder(self.nodes, self.statements if root is None else (root,))

    @cached_property
    def template_depth(self) -> int:
        """Depth of the deepest node, each statement root at depth 0.  Also
        checks that the nodes are a forest under the statements."""
        return astree.check_forest(self.nodes, self.statements)


def derive_template(unit: SourceUnit, statements: list[AstNode],
                    symbol_policy: str = "preserve") -> Template:
    """Abstract sibling statements from one SourceUnit into a Template.

    Variable classes are template-global: the same source name always maps to
    the same class id, numbered 0..k-1 in first-occurrence order over a
    left-to-right, statement-by-statement walk.
    """
    if not statements:
        raise EmptyInput("cannot derive a template from zero statements")
    if symbol_policy not in SYMBOL_POLICIES:
        raise ValueError("symbol_policy must be one of %s" % (SYMBOL_POLICIES,))

    # A walk with an explicit stack, so that a tree of any depth derives.  Ids
    # and classes are given in pre-order; each node's children list is
    # filled in as its children are reached.
    records: list[tuple[str, LeafRole | None, list[int]]] = []
    classes: dict[str, int] = {}
    statement_ids: list[int] = []
    stack = [(stmt, statement_ids) for stmt in reversed(statements)]
    while stack:
        src, siblings = stack.pop()
        siblings.append(len(records))
        role: LeafRole | None = None
        if src.kind == astree.VAR:
            role = VarWildcard(classes.setdefault(src.symbol, len(classes)))
        elif src.kind == astree.LITERAL:
            role = LiteralWildcard()
        elif src.kind == astree.NAME:
            role = ApiSymbol(src.symbol) if symbol_policy == "preserve" else CallWildcard()
        children: list[int] = []
        records.append((src.kind, role, children))
        stack += [(c, children) for c in reversed(unit.children_of(src))]
    nodes = {i: TemplateNode(id=i, kind=kind, children=tuple(children), leaf_role=role)
             for i, (kind, role, children) in enumerate(records)}
    origin = SeedOrigin(path=unit.path,
                        line_start=min(s.line_start for s in statements),
                        line_end=max(s.line_end for s in statements))
    return Template(statements=tuple(statement_ids), nodes=nodes,
                    symbol_policy=symbol_policy, seed_origin=origin)


@dataclass(frozen=True)
class TemplateStats:
    node_count: int
    statement_count: int
    var_wildcards: int
    literal_wildcards: int
    api_symbols: int
    call_wildcards: int
    var_class_count: int
    depth: int


def template_stats(t: Template) -> TemplateStats:
    nodes = list(t.iter_preorder())
    roles = Counter(type(n.leaf_role) for n in nodes)
    return TemplateStats(node_count=len(nodes), statement_count=len(t.statements),
                         var_wildcards=roles[VarWildcard],
                         literal_wildcards=roles[LiteralWildcard],
                         api_symbols=roles[ApiSymbol], call_wildcards=roles[CallWildcard],
                         var_class_count=len({n.leaf_role.class_id for n in nodes
                                              if type(n.leaf_role) is VarWildcard}),
                         depth=t.template_depth)


# ---------------------------------------------------------------------------
# Interchange ("tmpl-v2") and content identity
# ---------------------------------------------------------------------------

def _role_to_json(role: LeafRole | None):
    if role is None:
        return None
    if isinstance(role, ApiSymbol):
        return {"role": "api", "name": role.name}
    if isinstance(role, VarWildcard):
        return {"role": "var", "class": role.class_id}
    if isinstance(role, LiteralWildcard):
        return {"role": "lit"}
    return {"role": "callw"}


def _role_from_json(obj, record: int) -> LeafRole | None:
    if obj is None:
        return None
    kind = obj.get("role") if isinstance(obj, dict) else None
    if kind == "api":
        name = obj.get("name")
        if type(name) is not str:
            raise TemplateFormatError("api role needs a 'name'", record)
        return ApiSymbol(name)
    if kind == "var":
        cls = obj.get("class")
        if type(cls) is not int or cls < 0:
            raise TemplateFormatError("var role needs a non-negative 'class'", record)
        return VarWildcard(cls)
    if kind == "lit":
        return LiteralWildcard()
    if kind == "callw":
        return CallWildcard()
    raise TemplateFormatError("unknown leaf role %r" % obj, record)


def serialize_template(t: Template) -> str:
    header = {
        "format": FORMAT,
        "symbol_policy": t.symbol_policy,
        "origin": None if t.seed_origin is None else {
            "path": t.seed_origin.path,
            "lines": [t.seed_origin.line_start, t.seed_origin.line_end]},
        "roots": list(t.statements),
        "template_depth": t.template_depth,
    }
    lines = [jsonl.line(header)]
    for n in t.iter_preorder():
        rec = {"id": n.id, "kind": n.kind, "children": list(n.children)}
        role = _role_to_json(n.leaf_role)
        if role is not None:
            rec["leaf_role"] = role
        lines.append(jsonl.line(rec))
    return "".join(lines)


def deserialize_template(text: str) -> Template:
    """Read tmpl-v2 text; any defect raises TemplateFormatError naming the
    record.  The tree must be a forest under the header's roots, and the
    header's template_depth, when present, must equal what the tree
    implies."""
    records = jsonl.read(text, TemplateFormatError)
    hdr, header = next(records, (None, None))
    fmt = header.get("format") if type(header) is dict else None
    if fmt != FORMAT:
        raise TemplateFormatError(
            "missing %r header" % FORMAT if type(fmt) is not str else
            "format %r is not read; derive the template again as %r" % (fmt, FORMAT), hdr)
    policy, roots = header.get("symbol_policy"), header.get("roots")
    if policy not in SYMBOL_POLICIES:
        raise TemplateFormatError("bad symbol_policy %r" % policy, hdr)
    if not roots or not jsonl.ints(roots):
        raise TemplateFormatError("header needs non-empty integer 'roots'", hdr)
    try:
        origin = origin_from_json(header.get("origin"))
    except ValueError as e:
        raise TemplateFormatError(str(e), hdr) from None

    nodes: dict[int, TemplateNode] = {}
    rec_index: dict[int, int] = {}
    for i, rec in records:
        node_id, kind, children = jsonl.node(rec, i, rec_index, TemplateFormatError)
        nodes[node_id] = TemplateNode(node_id, kind, children,
                                      _role_from_json(rec.get("leaf_role"), i))

    t = Template(statements=tuple(roots), nodes=nodes, symbol_policy=policy, seed_origin=origin)
    try:
        depth = t.template_depth
    except InvariantError as e:
        raise TemplateFormatError(str(e), rec_index.get(e.node, hdr)) from None
    stated = header.get("template_depth", depth)
    if type(stated) is not int or stated != depth:
        raise TemplateFormatError("template_depth is %s, but the tree implies %d"
                                  % (json.dumps(stated), depth), hdr)
    return t


def canonical_form(t: Template) -> str:
    """Deterministic serialization with walk-order ids; the query-id input.

    It holds the symbol policy, the statements and the nodes, each variable
    with its class id, so templates that fix the same data flow hash alike.
    The origin is left out, so identical seeds from different files hash
    alike.
    """
    remap: dict[int, int] = {}
    order: list[TemplateNode] = []
    for n in t.iter_preorder():
        remap[n.id] = len(remap)
        order.append(n)
    payload = {
        "symbol_policy": t.symbol_policy,
        "statements": [remap[r] for r in t.statements],
        "nodes": [[remap[n.id], n.kind, [remap[c] for c in n.children],
                   _role_to_json(n.leaf_role)] for n in order],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def query_id_of(t: Template) -> str:
    """Stable content hash of the template (16 hex chars)."""
    return hashlib.sha256(canonical_form(t).encode("utf-8")).hexdigest()[:16]
