from __future__ import annotations

import random

import pytest

from analogue.astree import slice_statements
from analogue.compiler import compile_template
from analogue.corpusgen import (plant_file, random_snippet, render_file,
                                render_snippet)
from analogue.engine import (ScanOptions, match_at, match_to_record,
                             scan_unit)
from analogue.php_parser import parse_source
from analogue.template import derive_template


def make_program(seed_text: str, lines=None, symbol_policy="preserve"):
    unit = parse_source(seed_text)
    stmts = slice_statements(unit, *lines) if lines else \
        unit.children_of(unit.nodes[unit.root])
    t = derive_template(unit, stmts, symbol_policy=symbol_policy)
    return unit, t, compile_template(t)


def scan_text(program, text, **opt_kw):
    unit = parse_source(text)
    return scan_unit(program, unit, ScanOptions(**opt_kw))[0]


SEED = "<?php\n$a = $_POST['x'];\nmysql_query(\"SELECT '$a'\");\n"


def test_dataflow_break_kills_match():
    _, _, p = make_program(SEED)
    target = "<?php\n$a = $_POST['x'];\nmysql_query(\"SELECT '$b'\");\n"
    assert scan_text(p, target) == []


def test_consistent_rename_still_matches():
    _, _, p = make_program(SEED)
    target = "<?php\n$q = $_POST['x'];\nmysql_query(\"SELECT '$q'\");\n"
    ms = scan_text(p, target)
    assert len(ms) == 1
    assert ms[0].bindings[0] == "$q"


def test_superglobal_wildcards_like_any_variable():
    # a seed reading from a superglobal matches a lookalike reading from an
    # ordinary array variable
    _, _, p = make_program("<?php $var = $_GET['var'];")
    ms = scan_text(p, "<?php $var = $value['id'];")
    assert len(ms) == 1


def test_literal_values_are_ignored():
    _, _, p = make_program(SEED)
    target = "<?php\n$a = $_POST['zzz'];\nmysql_query(\"UPDATE '$a'\");\n"
    assert len(scan_text(p, target)) == 1


def test_changed_callee_name_blocks_preserve_but_not_wildcard():
    _, _, preserve = make_program(SEED, symbol_policy="preserve")
    _, _, wildcard = make_program(SEED, symbol_policy="wildcard")
    target = "<?php\n$a = $_POST['x'];\nother_sink(\"SELECT '$a'\");\n"
    assert scan_text(preserve, target) == []
    assert len(scan_text(wildcard, target)) == 1


def test_gap_between_statements_kills_match():
    _, _, p = make_program(SEED)
    target = "<?php\n$a = $_POST['x'];\necho 'hi';\nmysql_query(\"SELECT '$a'\");\n"
    assert scan_text(p, target) == []


def test_statements_around_do_not_matter():
    _, _, p = make_program(SEED)
    target = ("<?php\necho 'before';\n$a = $_POST['x'];\n"
              "mysql_query(\"SELECT '$a'\");\necho 'after';\n")
    ms = scan_text(p, target)
    assert [(m.line_start, m.line_end) for m in ms] == [(3, 4)]


def test_extra_trailing_children_allowed_by_default():
    _, _, p = make_program("<?php process($a);")
    ms = scan_text(p, "<?php process($x, 'extra', 42);")
    assert len(ms) == 1


def test_exact_arity_rejects_extra_children():
    _, _, p = make_program("<?php process($a);")
    assert scan_text(p, "<?php process($x, 'extra');", exact_arity=True) == []
    assert len(scan_text(p, "<?php process($x);", exact_arity=True)) == 1


def test_missing_children_never_match():
    _, _, p = make_program("<?php process($a, $b);")
    assert scan_text(p, "<?php process($x);") == []


def test_literal_position_requires_a_literal_node():
    # wildcarded literals ignore the value but still demand a Literal there
    _, _, p = make_program("<?php sink('constant');")
    assert len(scan_text(p, "<?php sink('changed');")) == 1
    assert scan_text(p, "<?php sink($variable);") == []


def test_imported_opaque_kinds_compare_by_tag():
    import json
    from analogue.interchange import import_ast
    from analogue.template import derive_template
    from analogue.compiler import compile_template

    def stream(kind):
        return "\n".join([
            json.dumps({"format": "ast-v1", "path": "x", "root": 0}),
            json.dumps({"id": 0, "kind": "StmtList", "children": [1],
                        "line": [1, 1]}),
            json.dumps({"id": 1, "kind": kind, "children": [2], "line": [1, 1]}),
            json.dumps({"id": 2, "kind": "Var", "symbol": "$v", "line": [1, 1]}),
        ])

    seed = import_ast(stream("YieldExpr"))
    t = derive_template(seed, seed.children_of(seed.nodes[seed.root]))
    p = compile_template(t)
    same, _ = scan_unit(p, import_ast(stream("YieldExpr")))
    other, _ = scan_unit(p, import_ast(stream("AwaitExpr")))
    assert len(same) == 1 and other == []


def test_two_classes_may_share_a_name():
    _, _, p = make_program("<?php sink($a, $b);")
    assert len(scan_text(p, "<?php sink($same, $same);")) == 1


def test_overlapping_matches_all_reported():
    _, _, p = make_program("<?php echo $a; echo $a;")
    ms = scan_text(p, "<?php echo $x; echo $x; echo $x;")
    assert [(m.stmt_list_id, m.start_index) for m in ms] == [(ms[0].stmt_list_id, 0),
                                                             (ms[0].stmt_list_id, 1)]


def test_nested_blocks_are_scanned():
    _, _, p = make_program("<?php echo $a;")
    target = "<?php\necho $top;\nif ($c) {\n    echo $inner;\n}\n"
    ms = scan_text(p, target)
    assert len(ms) == 2
    assert {m.line_start for m in ms} == {2, 4}


def test_matches_come_in_document_order():
    # anchors are ordered by (StmtList document order, start index): all of a
    # block's windows come before any deeper block's
    _, _, p = make_program("<?php echo $a;")
    target = "<?php\necho $a;\nwhile ($c) {\n  echo $b;\n  echo $d;\n}\necho $e;\n"
    ms = scan_text(p, target)
    assert [m.line_start for m in ms] == [2, 7, 4, 5]
    assert [m.start_index for m in ms] == [0, 2, 0, 1]


def test_match_fields_and_record_shape(tutorial_books):
    unit, text = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)
    p = compile_template(t)
    ms, _ = scan_unit(p, unit)
    m = ms[0]
    assert m.statement_span == 2
    assert m.query_id == p.query_id
    assert (m.line_start, m.line_end) == (5, 6)
    rec = match_to_record(m)
    assert set(rec) == {"query", "file", "lines", "stmt_index", "bindings", "excerpt"}
    assert rec["lines"] == [5, 6]
    assert rec["bindings"] == {"0": "$title", "1": "$_POST", "2": "$result"}


def test_match_at_requires_stmt_list():
    unit, t, p = make_program(SEED)
    with pytest.raises(ValueError):
        match_at(p, unit, unit.nodes[unit.root].children[0], 0)


def test_match_at_out_of_range_is_none():
    unit, t, p = make_program(SEED)
    assert match_at(p, unit, unit.root, 99) is None
    assert match_at(p, unit, unit.root, -1) is None


def test_depth_pruning_equivalence_on_generated_corpus():
    rng = random.Random(23)
    for _ in range(40):
        seed = random_snippet(rng)
        _, _, p = make_program(render_file(render_snippet(seed)))
        mutation = rng.choice(("verbatim", "rename", "insert_between"))
        text, _ = plant_file(seed, mutation, rng)
        if rng.random() < 0.4:
            # push the plant into a nested block to vary anchor depths
            body = text.split("\n", 1)[1]
            text = "<?php\nif ($gate) {\n" + body.replace("<?php\n", "") + "}\n"
        unit = parse_source(text)
        on, _ = scan_unit(p, unit, ScanOptions(depth_pruning=True))
        off, _ = scan_unit(p, unit, ScanOptions(depth_pruning=False))
        assert [m.key() for m in on] == [m.key() for m in off]


def test_depth_pruning_skips_candidates():
    # one deep nest plus a shallow template: pruning must cut candidates
    deep = "<?php\nif ($a) { if ($b) { if ($c) { echo 'x'; } } }\n$t = $_GET['k'];\nsink(\"v $t\");\n"
    _, _, p = make_program("<?php\n$t = $_GET['k'];\nsink(\"v $t\");\n")
    unit = parse_source(deep)
    on_ms, on_ctr = scan_unit(p, unit, ScanOptions(depth_pruning=True))
    off_ms, off_ctr = scan_unit(p, unit, ScanOptions(depth_pruning=False))
    assert [m.key() for m in on_ms] == [m.key() for m in off_ms]
    assert on_ctr.candidates_tried <= off_ctr.candidates_tried


def test_alpha_rename_of_target_preserves_anchors():
    import re
    rng = random.Random(29)
    for _ in range(15):
        seed = random_snippet(rng)
        _, _, p = make_program(render_file(render_snippet(seed)))
        text, _ = plant_file(seed, "verbatim", rng)
        names = sorted(set(re.findall(r"\$[A-Za-z_]\w*", text)))
        mapping = {n: "$rn%d" % i for i, n in enumerate(names)}
        renamed = re.sub(r"\$[A-Za-z_]\w*", lambda m: mapping[m.group(0)], text)
        anchors = {(m.stmt_list_id, m.start_index) for m in scan_text(p, text)}
        anchors_renamed = {(m.stmt_list_id, m.start_index)
                           for m in scan_text(p, renamed)}
        assert anchors and anchors == anchors_renamed


def test_counter_counts_are_monotone_and_populated():
    unit, t, p = make_program(SEED)
    ms, ctr = scan_unit(p, unit)
    assert ms and ctr.node_comparisons > 0 and ctr.candidates_tried > 0


def test_empty_unit_scans_clean():
    _, _, p = make_program(SEED)
    ms, ctr = scan_unit(p, parse_source(""))
    assert ms == [] and ctr.candidates_tried == 0
