"""Wildcard templates with data-flow edges, derived from seed statements.

A template is a structural copy of the seed statement trees in which variable
names become numbered wildcard classes, literal values are erased, and callee
names are either preserved (``symbol_policy="preserve"``) or erased too
(``"wildcard"``).  Two variable positions with the same class id must bind the
same concrete name in any match; those constraints are the data-flow edges.

The classes carry the data flow in full, so a template stores no edges:
``Template.dataflow_edges`` derives them from the tree.  The ``tmpl-v1``
edges record and the query id still list them, and a ``tmpl-v1`` file whose
edges record differs from the pairs its classes imply does not load.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import astree
from .astree import AstNode, SourceUnit

FORMAT = "tmpl-v1"

MODES = ("normal", "strict")
SYMBOL_POLICIES = ("preserve", "wildcard")


class EmptyInput(Exception):
    """derive_template was given no statements."""


class TemplateFormatError(Exception):
    def __init__(self, message: str, record: int | None = None):
        self.record = record
        if record is not None:
            message = "record %d: %s" % (record, message)
        super().__init__(message)


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
    path: str
    line_start: int
    line_end: int


@dataclass
class Template:
    statements: tuple[int, ...]              # root node id per seed statement
    nodes: dict[int, TemplateNode]
    mode: str = "normal"
    symbol_policy: str = "preserve"
    seed_origin: SeedOrigin | None = None
    template_depth: int = 0

    def node(self, node_id: int) -> TemplateNode:
        return self.nodes[node_id]

    def iter_preorder(self, root: int | None = None) -> Iterator[TemplateNode]:
        roots = [root] if root is not None else list(self.statements)
        for r in roots:
            stack = [r]
            while stack:
                n = self.nodes[stack.pop()]
                yield n
                stack.extend(reversed(n.children))

    @property
    def var_class_count(self) -> int:
        return len({n.leaf_role.class_id for n in self.iter_preorder()
                    if isinstance(n.leaf_role, VarWildcard)})

    @property
    def dataflow_edges(self) -> frozenset[tuple[int, int]]:
        """Every pair (a, b), a < b, of variable wildcards of one class."""
        return _same_class_pairs(self.iter_preorder())


def _same_class_pairs(nodes: Iterable[TemplateNode]) -> frozenset[tuple[int, int]]:
    classes: dict[int, list[int]] = {}
    for n in nodes:
        if type(n.leaf_role) is VarWildcard:
            classes.setdefault(n.leaf_role.class_id, []).append(n.id)
    return frozenset(itertools.chain.from_iterable(
        itertools.combinations(sorted(ids), 2) for ids in classes.values()))


def derive_template(unit: SourceUnit, statements: list[AstNode],
                    mode: str = "normal",
                    symbol_policy: str = "preserve") -> Template:
    """Abstract sibling statements from one SourceUnit into a Template.

    Variable classes are template-global: the same source name always maps to
    the same class id, numbered 0..k-1 in first-occurrence order over a
    left-to-right, statement-by-statement walk.
    """
    if not statements:
        raise EmptyInput("cannot derive a template from zero statements")
    if mode not in MODES:
        raise ValueError("mode must be one of %s" % (MODES,))
    if symbol_policy not in SYMBOL_POLICIES:
        raise ValueError("symbol_policy must be one of %s" % (SYMBOL_POLICIES,))

    nodes: dict[int, TemplateNode] = {}
    classes: dict[str, int] = {}
    counter = 0

    def copy(src: AstNode) -> int:
        nonlocal counter
        node_id = counter
        counter += 1
        role: LeafRole | None = None
        if src.kind == astree.VAR:
            role = VarWildcard(classes.setdefault(src.symbol, len(classes)))
        elif src.kind == astree.LITERAL:
            role = LiteralWildcard()
        elif src.kind == astree.NAME:
            role = ApiSymbol(src.symbol) if symbol_policy == "preserve" else CallWildcard()
        children = tuple([copy(c) for c in unit.children_of(src)])
        nodes[node_id] = TemplateNode(id=node_id, kind=src.kind,
                                      children=children, leaf_role=role)
        return node_id

    roots = tuple(copy(stmt) for stmt in statements)
    origin = SeedOrigin(path=unit.path,
                        line_start=min(s.line_start for s in statements),
                        line_end=max(s.line_end for s in statements))
    return Template(statements=roots, nodes=nodes, mode=mode,
                    symbol_policy=symbol_policy, seed_origin=origin,
                    template_depth=_depth(nodes, roots))


def _depth(nodes: dict[int, TemplateNode], roots: Iterable[int]) -> int:
    """Depth of the deepest node under the roots, each root at depth 0.

    A node reached twice, through a cycle or a shared child, or a node that
    no root reaches is a format error: the tree of a template is a forest of
    exactly its nodes.
    """
    deepest = 0
    seen: set[int] = set()
    stack = [(r, 0) for r in roots]
    while stack:
        node_id, depth = stack.pop()
        if node_id in seen:
            raise TemplateFormatError("node %d is reached twice" % node_id)
        seen.add(node_id)
        children = nodes[node_id].children
        if children:
            depth += 1
            deepest = max(deepest, depth)
            stack += [(c, depth) for c in children]
    if len(seen) != len(nodes):
        raise TemplateFormatError("unreachable node records: %s"
                                  % [n for n in nodes if n not in seen][:5])
    return deepest


@dataclass(frozen=True)
class TemplateStats:
    node_count: int
    statement_count: int
    var_wildcards: int
    literal_wildcards: int
    api_symbols: int
    call_wildcards: int
    var_class_count: int
    edge_count: int
    depth: int


def template_stats(t: Template) -> TemplateStats:
    node_count = var_w = lit_w = api = call_w = 0
    for n in t.iter_preorder():
        node_count += 1
        if isinstance(n.leaf_role, VarWildcard):
            var_w += 1
        elif isinstance(n.leaf_role, LiteralWildcard):
            lit_w += 1
        elif isinstance(n.leaf_role, ApiSymbol):
            api += 1
        elif isinstance(n.leaf_role, CallWildcard):
            call_w += 1
    return TemplateStats(node_count=node_count, statement_count=len(t.statements),
                         var_wildcards=var_w, literal_wildcards=lit_w,
                         api_symbols=api, call_wildcards=call_w,
                         var_class_count=t.var_class_count,
                         edge_count=len(t.dataflow_edges), depth=t.template_depth)


# ---------------------------------------------------------------------------
# Interchange ("tmpl-v1") and content identity
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
        if not isinstance(name, str):
            raise TemplateFormatError("api role needs a 'name'", record)
        return ApiSymbol(name)
    if kind == "var":
        cls = obj.get("class")
        if not isinstance(cls, int) or cls < 0:
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
        "mode": t.mode,
        "symbol_policy": t.symbol_policy,
        "origin": None if t.seed_origin is None else {
            "path": t.seed_origin.path,
            "lines": [t.seed_origin.line_start, t.seed_origin.line_end]},
        "roots": list(t.statements),
        "template_depth": t.template_depth,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for n in t.iter_preorder():
        rec = {"id": n.id, "kind": n.kind, "children": list(n.children)}
        role = _role_to_json(n.leaf_role)
        if role is not None:
            rec["leaf_role"] = role
        lines.append(json.dumps(rec, sort_keys=True))
    lines.append(json.dumps({"edges": sorted(sorted(e) for e in t.dataflow_edges)}))
    return "\n".join(lines) + "\n"


def deserialize_template(text: str) -> Template:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TemplateFormatError("empty template stream")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TemplateFormatError("header is not valid JSON: %s" % e, 0) from None
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise TemplateFormatError("missing %r header" % FORMAT, 0)
    mode = header.get("mode")
    policy = header.get("symbol_policy")
    if mode not in MODES:
        raise TemplateFormatError("bad mode %r" % mode, 0)
    if policy not in SYMBOL_POLICIES:
        raise TemplateFormatError("bad symbol_policy %r" % policy, 0)
    roots = header.get("roots")
    if not isinstance(roots, list) or not roots or \
            not all(isinstance(r, int) for r in roots):
        raise TemplateFormatError("header needs non-empty integer 'roots'", 0)
    origin = None
    o = header.get("origin")
    if o is not None:
        if not isinstance(o, dict) or not isinstance(o.get("path"), str) \
                or not isinstance(o.get("lines"), list) or len(o["lines"]) != 2:
            raise TemplateFormatError("malformed origin", 0)
        origin = SeedOrigin(o["path"], o["lines"][0], o["lines"][1])

    nodes: dict[int, TemplateNode] = {}
    edges: frozenset[tuple[int, int]] | None = None
    for i, ln in enumerate(lines[1:], start=1):
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as e:
            raise TemplateFormatError("not valid JSON: %s" % e, i) from None
        if not isinstance(rec, dict):
            raise TemplateFormatError("record must be an object", i)
        if "edges" in rec:
            raw = rec["edges"]
            if not isinstance(raw, list) or not all(
                    isinstance(e, list) and len(e) == 2
                    and all(isinstance(end, int) for end in e) for e in raw):
                raise TemplateFormatError("malformed edges record", i)
            edges = frozenset(tuple(sorted(e)) for e in raw)
            continue
        node_id = rec.get("id")
        kind = rec.get("kind")
        if not isinstance(node_id, int) or not isinstance(kind, str):
            raise TemplateFormatError("node record needs 'id' and 'kind'", i)
        if node_id in nodes:
            raise TemplateFormatError("duplicate id %d" % node_id, i)
        children = rec.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, int) for c in children):
            raise TemplateFormatError("'children' must be a list of ints", i)
        role = _role_from_json(rec.get("leaf_role"), i)
        nodes[node_id] = TemplateNode(id=node_id, kind=kind,
                                      children=tuple(children), leaf_role=role)
    if edges is None:
        raise TemplateFormatError("missing edges record")
    for r in roots:
        if r not in nodes:
            raise TemplateFormatError("root %d has no node record" % r)
    for n in nodes.values():
        for c in n.children:
            if c not in nodes:
                raise TemplateFormatError("dangling child reference %d" % c)

    t = Template(statements=tuple(roots), nodes=nodes, mode=mode,
                 symbol_policy=policy, seed_origin=origin,
                 template_depth=_depth(nodes, roots))
    derived = t.dataflow_edges
    if edges != derived:
        raise TemplateFormatError(
            "edges record is not the set of same-class variable pairs "
            "(missing %s, extra %s)" % (sorted(derived - edges), sorted(edges - derived)))
    return t


def canonical_form(t: Template, include_origin: bool = False) -> str:
    """Deterministic serialization with walk-order ids; the query-id input.

    Origin is excluded by default so identical seeds from different files
    hash alike.
    """
    remap: dict[int, int] = {}
    order: list[TemplateNode] = []
    for n in t.iter_preorder():
        remap[n.id] = len(remap)
        order.append(n)
    payload = {
        "mode": t.mode,
        "symbol_policy": t.symbol_policy,
        "statements": [remap[r] for r in t.statements],
        "nodes": [[remap[n.id], n.kind, [remap[c] for c in n.children],
                   _role_to_json(n.leaf_role)] for n in order],
        "edges": sorted(sorted((remap[a], remap[b])) for a, b in _same_class_pairs(order)),
    }
    if include_origin and t.seed_origin is not None:
        payload["origin"] = [t.seed_origin.path, t.seed_origin.line_start,
                             t.seed_origin.line_end]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def query_id_of(t: Template) -> str:
    """Stable content hash of the template (16 hex chars)."""
    return hashlib.sha256(canonical_form(t).encode("utf-8")).hexdigest()[:16]


def templates_equal(a: Template, b: Template) -> bool:
    if (a.seed_origin is None) != (b.seed_origin is None):
        return False
    return canonical_form(a, include_origin=True) == canonical_form(b, include_origin=True)
