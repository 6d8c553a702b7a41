from __future__ import annotations

import json
import random

import pytest

from analogue.corpusgen import plant_file, random_snippet
from analogue.engine import anchor_index
from analogue.interchange import InterchangeError, export_ast, import_ast
from analogue.php_parser import parse_source


def header(root=0, path="x.php"):
    return json.dumps({"format": "ast-v1", "path": path, "root": root})


def rec(node_id, kind, children=(), symbol=None, value=None, line=(1, 1)):
    r = {"id": node_id, "kind": kind, "children": list(children),
         "line": list(line)}
    if symbol is not None:
        r["symbol"] = symbol
    if value is not None:
        r["value"] = value
    return json.dumps(r)


def test_roundtrip_identity_on_fixtures(tutorial_books, tutorial_search, clone_units):
    for unit, _ in [tutorial_books, tutorial_search, *clone_units.values()]:
        again = import_ast(export_ast(unit))
        assert unit == again
        assert again.node_count == unit.node_count
        assert anchor_index(again) == anchor_index(unit)


def test_roundtrip_identity_on_random_corpus():
    rng = random.Random(17)
    for _ in range(20):
        text, _ = plant_file(random_snippet(rng), "verbatim", rng)
        unit = parse_source(text)
        assert unit == import_ast(export_ast(unit))


def test_deep_chain_roundtrips_and_compares_equal():
    terms = ["$v%d" % i for i in range(5000)]
    unit = parse_source("<?php $x = " + " . ".join(terms) + ";")
    assert anchor_index(unit).max_depth > 5000
    assert unit == import_ast(export_ast(unit))
    terms[0] = "$w"
    assert unit != parse_source("<?php $x = " + " . ".join(terms) + ";")


def test_hand_built_statement_tree_reproduces_paths():
    # the two-statement SQLi shape, written as an external record stream
    lines = [
        header(root=0),
        rec(0, "StmtList", [1, 6], line=(1, 2)),
        rec(1, "Assign", [2, 3], line=(1, 1)),
        rec(2, "Var", symbol="$title", line=(1, 1)),
        rec(3, "ArrayDim", [4, 5], line=(1, 1)),
        rec(4, "Var", symbol="$_POST", line=(1, 1)),
        rec(5, "Literal", value="title", line=(1, 1)),
        rec(6, "Assign", [7, 8], line=(2, 2)),
        rec(7, "Var", symbol="$result", line=(2, 2)),
        rec(8, "Call", [9, 10], line=(2, 2)),
        rec(9, "Name", symbol="mysql_query", line=(2, 2)),
        rec(10, "ArgList", [11], line=(2, 2)),
        rec(11, "Encapsed", [12, 13, 14], line=(2, 2)),
        rec(12, "Literal", value="SELECT ... '%", line=(2, 2)),
        rec(13, "Var", symbol="$title", line=(2, 2)),
        rec(14, "Literal", value="%'", line=(2, 2)),
    ]
    unit = import_ast("\n".join(lines))

    def leaf_paths(node_id, acc):
        n = unit.nodes[node_id]
        if not n.children:
            yield acc + [n.kind]
        for c in n.children:
            yield from leaf_paths(c, acc + [n.kind])

    paths = list(leaf_paths(unit.root, []))
    assert ["StmtList", "Assign", "Var"] in paths
    assert ["StmtList", "Assign", "ArrayDim", "Var"] in paths
    assert ["StmtList", "Assign", "Call", "Name"] in paths
    assert ["StmtList", "Assign", "Call", "ArgList", "Encapsed", "Var"] in paths
    # same source variable appears in both statements
    vars_ = [n.symbol for n in unit.iter_preorder() if n.kind == "Var"]
    assert vars_.count("$title") == 2


def test_single_record_stream_is_valid_empty_unit():
    unit = import_ast("\n".join([header(root=5),
                                 rec(5, "StmtList", [])]))
    assert unit.node_count == 1
    assert unit.nodes[unit.root].children == ()


def test_unknown_kinds_survive_roundtrip_verbatim():
    lines = [header(root=0),
             rec(0, "StmtList", [1]),
             rec(1, "MethodCallExpression", [])]
    unit = import_ast("\n".join(lines))
    assert unit.nodes[1].kind == "MethodCallExpression"
    again = import_ast(export_ast(unit))
    assert again.nodes[again.root].children
    assert unit == again


@pytest.mark.parametrize("lines,expect_record", [
    # missing id
    ([header(0), '{"kind": "StmtList", "children": []}'], 1),
    # missing kind
    ([header(0), '{"id": 0, "children": []}'], 1),
    # dangling child reference
    ([header(0), rec(0, "StmtList", [7])], 1),
    # shared child (two parents)
    ([header(0), rec(0, "StmtList", [1, 2]), rec(1, "Echo", [3]),
      rec(2, "Echo", [3]), rec(3, "Literal", value="x")], None),
    # unreachable record
    ([header(0), rec(0, "StmtList", []), rec(1, "Echo", [])], 2),
    # duplicate id
    ([header(0), rec(0, "StmtList", []), rec(0, "StmtList", [])], 2),
    # Var without symbol
    ([header(0), rec(0, "StmtList", [1]), rec(1, "Var")], 2),
    # root is not a StmtList
    ([header(0), rec(0, "Echo", [])], 1),
    # child span escapes parent span (blamed on the child record)
    ([header(0), rec(0, "StmtList", [1], line=(1, 1)),
      rec(1, "Echo", [], line=(1, 9))], 2),
    # a canonical kind other than Var, Name and Literal carrying a symbol
    ([header(0), rec(0, "StmtList", [1]), rec(1, "Call", [2], symbol="f"),
      rec(2, "Name", symbol="f")], 2),
    # unreachable records out of id order: the first in the stream is blamed
    ([header(0), rec(0, "StmtList", []), rec(9, "Echo", []), rec(4, "Echo", [])], 2),
    # a bool where an int belongs, though True == 1
    ([header(True), rec(1, "StmtList", [])], 0),
    ([header(1), '{"id": true, "kind": "StmtList", "children": []}'], 1),
    ([header(0), rec(0, "StmtList", [], line=(True, True))], 1),
    # a root without a record is blamed on the header
    ([header(3), rec(0, "StmtList", [])], 0),
    # a header path that is present must be a str
    ([header(0, path=5), rec(0, "StmtList", [])], 0),
    ([header(0, path=None), rec(0, "StmtList", [])], 0),
])
def test_schema_violations_rejected(lines, expect_record):
    with pytest.raises(InterchangeError) as exc:
        import_ast("\n".join(lines))
    if expect_record is not None:
        assert exc.value.record == expect_record


def test_cycle_rejected():
    with pytest.raises(InterchangeError):
        import_ast("\n".join([header(0),
                              rec(0, "StmtList", [1]),
                              rec(1, "Other", [0])]))


def test_header_required():
    with pytest.raises(InterchangeError):
        import_ast(rec(0, "StmtList", []))


def test_invalid_json_reports_index():
    with pytest.raises(InterchangeError) as exc:
        import_ast("\n".join([header(0), "{oops"]))
    assert exc.value.record == 1
