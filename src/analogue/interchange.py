"""Newline-delimited AST interchange ("ast-v1").

Lets external full-language frontends feed the pipeline: one JSON record per
node after a header record.  Unknown kind strings are kept verbatim and act
as opaque tags during matching.

import_ast reads the records with jsonl, the reader of every JSON-lines
format, and checks each on its own: valid JSON, the node-record core it
shares with tmpl-v2 (an int id that does not repeat, a str kind, a list of
int children), a non-empty kind, two int lines and str symbol and value.
The header needs an int root, and its path, if present, must be a str.
An int field never takes a bool.  Everything that concerns the tree as a
whole (shape, reachability, line spans, symbol and value placement) is
astree.validate_unit's, and its verdict is reported as an InterchangeError
on the record of the node it blames, or on the header for a missing root.
"""
from __future__ import annotations

import json

from . import jsonl
from .astree import AstNode, InvariantError, SourceUnit, validate_unit

FORMAT = "ast-v1"


class InterchangeError(jsonl.RecordError):
    """Schema violation; carries the offending record index (0-based)."""


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


def import_ast(text: str) -> SourceUnit:
    """Parse ast-v1 text into a validated SourceUnit."""
    records = jsonl.read(text, InterchangeError)
    hdr, header = next(records, (None, None))
    if type(header) is not dict or header.get("format") != FORMAT:
        raise InterchangeError("missing %r header" % FORMAT, hdr)
    root = header.get("root")
    if type(root) is not int:
        raise InterchangeError("header lacks integer 'root'", hdr)
    jsonl.fields(header, {"path": str}, hdr, InterchangeError)

    nodes: dict[int, AstNode] = {}
    rec_index: dict[int, int] = {}
    for i, rec in records:
        node_id, kind, children = jsonl.node(rec, i, rec_index, InterchangeError)
        if not kind:
            raise InterchangeError("empty 'kind'", i)
        line = rec.get("line", [1, 1])
        if not jsonl.ints(line, 2):
            raise InterchangeError("'line' must be [start, end]", i)
        jsonl.fields(rec, dict.fromkeys(("symbol", "value"), (str, type(None))), i,
                     InterchangeError)
        nodes[node_id] = AstNode(node_id, kind, children, rec.get("symbol"),
                                 rec.get("value"), *line)

    unit = SourceUnit(path=header.get("path", "<imported>"), root=root, nodes=nodes)
    try:
        validate_unit(unit)
    except InvariantError as e:
        raise InterchangeError(str(e), rec_index.get(e.node, hdr)) from None
    return unit
