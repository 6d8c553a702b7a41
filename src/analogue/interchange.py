"""Newline-delimited AST interchange ("ast-v1").

Lets external full-language frontends feed the pipeline: one JSON record per
node after a header record.  Unknown kind strings are kept verbatim and act
as opaque tags during matching.

import_ast checks each record on its own: valid JSON, fields of the right
types, no duplicate id, and a root id that has a record.  Everything that
concerns the tree as a whole (shape, reachability, line spans, symbol and
value placement) is astree.validate_unit's, and its verdict is reported as
an InterchangeError on the record of the node it blames.
"""
from __future__ import annotations

import json
from typing import Iterable

from .astree import AstNode, InvariantError, SourceUnit, validate_unit

FORMAT = "ast-v1"


class InterchangeError(Exception):
    """Schema violation; carries the offending record index (0-based)."""

    def __init__(self, message: str, record: int | None = None):
        self.record = record
        if record is not None:
            message = "record %d: %s" % (record, message)
        super().__init__(message)


def export_ast(unit: SourceUnit) -> str:
    """Serialize a SourceUnit to ast-v1 text (header record first, then nodes
    in document order)."""
    lines = [json.dumps({"format": FORMAT, "path": unit.path, "root": unit.root},
                        sort_keys=True)]
    for n in unit.iter_preorder():
        rec: dict = {"id": n.id, "kind": n.kind, "children": list(n.children),
                     "line": [n.line_start, n.line_end]}
        if n.symbol is not None:
            rec["symbol"] = n.symbol
        if n.value is not None:
            rec["value"] = n.value
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


def import_ast(stream: str | Iterable[str]) -> SourceUnit:
    """Parse ast-v1 text (or an iterable of lines) into a validated SourceUnit."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in stream]
    records = []
    for i, ln in enumerate(lines):
        if not ln.strip():
            continue
        try:
            records.append((i, json.loads(ln)))
        except json.JSONDecodeError as e:
            raise InterchangeError("not valid JSON: %s" % e, i) from None
    if not records:
        raise InterchangeError("empty stream")
    hdr_idx, header = records[0]
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise InterchangeError("missing %r header" % FORMAT, hdr_idx)
    root = header.get("root")
    if not isinstance(root, int):
        raise InterchangeError("header lacks integer 'root'", hdr_idx)
    path = header.get("path", "<imported>")

    nodes: dict[int, AstNode] = {}
    rec_index: dict[int, int] = {}
    for i, rec in records[1:]:
        if not isinstance(rec, dict):
            raise InterchangeError("node record must be an object", i)
        node_id = rec.get("id")
        kind = rec.get("kind")
        if not isinstance(node_id, int):
            raise InterchangeError("missing integer 'id'", i)
        if not isinstance(kind, str) or not kind:
            raise InterchangeError("missing 'kind'", i)
        if node_id in nodes:
            raise InterchangeError("duplicate id %d" % node_id, i)
        children = rec.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, int) for c in children):
            raise InterchangeError("'children' must be a list of ints", i)
        line = rec.get("line", [1, 1])
        if (not isinstance(line, list) or len(line) != 2
                or not all(isinstance(x, int) for x in line)):
            raise InterchangeError("'line' must be [start, end]", i)
        symbol = rec.get("symbol")
        value = rec.get("value")
        if symbol is not None and not isinstance(symbol, str):
            raise InterchangeError("'symbol' must be a string", i)
        if value is not None and not isinstance(value, str):
            raise InterchangeError("'value' must be a string", i)
        nodes[node_id] = AstNode(id=node_id, kind=kind, children=tuple(children),
                                 symbol=symbol, value=value,
                                 line_start=line[0], line_end=line[1])
        rec_index[node_id] = i

    if root not in nodes:
        raise InterchangeError("root %d not among node records" % root, hdr_idx)
    unit = SourceUnit(path=path, root=root, nodes=nodes, node_count=len(nodes))
    try:
        validate_unit(unit)
    except InvariantError as e:
        raise InterchangeError(str(e), rec_index.get(e.node)) from None
    return unit
