from __future__ import annotations

import json
import random

import pytest

from analogue import astree
from analogue.astree import slice_statements
from analogue.corpusgen import mutate, random_snippet, render_file, render_snippet
from analogue.php_parser import parse_source
from analogue.template import (ApiSymbol, CallWildcard, EmptyInput,
                               LiteralWildcard, Template, TemplateFormatError,
                               VarWildcard, derive_template,
                               deserialize_template, query_id_of,
                               serialize_template)
from analogue.testing import template_stats


def derive_from(text: str, lines=None, **kw) -> Template:
    unit = parse_source(text)
    if lines:
        stmts = slice_statements(unit, *lines)
    else:
        stmts = unit.children_of(unit.nodes[unit.root])
    return derive_template(unit, stmts, **kw)


def var_leaves(t: Template):
    return [n for n in t.iter_preorder() if isinstance(n.leaf_role, VarWildcard)]


def test_assignment_then_query_share_a_class(tutorial_books):
    unit, _ = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)
    assert len(t.statements) == 2
    lhs_root = t.nodes[t.statements[0]]
    lhs_var = t.nodes[lhs_root.children[0]]
    assert isinstance(lhs_var.leaf_role, VarWildcard)
    # the variable inside the query string carries the same class id
    in_string = [n for n in t.iter_preorder(t.statements[1])
                 if isinstance(n.leaf_role, VarWildcard)
                 and n.leaf_role.class_id == lhs_var.leaf_role.class_id]
    assert in_string, "data flow between the two statements was lost"
    # callee name preserved under the default policy
    apis = [n.leaf_role.name for n in t.iter_preorder()
            if isinstance(n.leaf_role, ApiSymbol)]
    assert "mysql_query" in apis


def test_single_statement_without_variables_has_no_classes():
    t = derive_from("<?php foo();")
    assert template_stats(t).var_class_count == 0
    assert var_leaves(t) == []


def test_each_variable_used_twice_yields_one_class_per_variable():
    # oracle: the generator's own emission log says which names exist and
    # that each appears exactly twice
    rng = random.Random(21)
    v = 5
    lines = []
    names = []
    for i in range(v):
        name = "war%d" % i
        names.append(name)
        lines.append("$%s = $bas%d['k%d'];" % (name, i, i))
        lines.append("sink%d(\"x $%s y\");" % (i, name))
    t = derive_from(render_file(lines))
    leaves = var_leaves(t)
    per_class: dict[int, int] = {}
    for n in leaves:
        per_class[n.leaf_role.class_id] = per_class.get(n.leaf_role.class_id, 0) + 1
    # base variables add one extra single-use class each
    twice = [c for c, k in per_class.items() if k == 2]
    assert len(twice) == v
    assert len([n for n in leaves
                if per_class[n.leaf_role.class_id] == 2]) == 2 * v
    assert template_stats(t).var_class_count == len(per_class) == 2 * v


def test_class_ids_dense_in_first_occurrence_order():
    t = derive_from("<?php $b = $a; $c = $b; $a = $c;")
    leaves = var_leaves(t)
    first_seen: list[int] = []
    for n in leaves:
        if n.leaf_role.class_id not in first_seen:
            first_seen.append(n.leaf_role.class_id)
    assert first_seen == list(range(len(first_seen)))


def test_shape_preservation(tutorial_books):
    unit, _ = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)

    def shapes_equal(tmpl_id, unit_node):
        tn = t.nodes[tmpl_id]
        if tn.kind != unit_node.kind or len(tn.children) != len(unit_node.children):
            return False
        return all(shapes_equal(tc, unit.nodes[uc])
                   for tc, uc in zip(tn.children, unit_node.children))

    assert all(shapes_equal(r, s) for r, s in zip(t.statements, stmts))
    # wildcarding preserves the node count
    src_nodes = sum(1 for s in stmts for _ in _walk(unit, s.id))
    assert template_stats(t).node_count == src_nodes


def _walk(unit, node_id):
    yield node_id
    for c in unit.nodes[node_id].children:
        yield from _walk(unit, c)


def test_rename_independence():
    rng = random.Random(3)
    for _ in range(20):
        s = random_snippet(rng)
        original = render_file(render_snippet(s))
        renamed = render_file(mutate(s, "rename", rng)[0])
        t1 = derive_from(original)
        t2 = derive_from(renamed)
        assert query_id_of(t1) == query_id_of(t2)


def test_classes_are_equal_exactly_where_names_are():
    rng = random.Random(8)
    for _ in range(30):
        s = random_snippet(rng)
        unit = parse_source(render_file(render_snippet(s)))
        stmts = unit.children_of(unit.nodes[unit.root])
        t = derive_template(unit, stmts)
        # oracle: template var leaves come in the same walk order as the
        # unit's Var nodes, so zip names with class ids
        names = [n.symbol for s0 in stmts for nid in _walk(unit, s0.id)
                 if (n := unit.nodes[nid]).kind == astree.VAR]
        classes = [n.leaf_role.class_id for n in var_leaves(t)]
        assert len(names) == len(classes)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert (names[i] == names[j]) == (classes[i] == classes[j])


def test_literal_values_are_erased():
    t = derive_from("<?php $a = 'secret'; $b = 42;")
    lits = [n for n in t.iter_preorder() if isinstance(n.leaf_role, LiteralWildcard)]
    assert len(lits) == 2
    assert all(n.kind == astree.LITERAL for n in lits)


def test_wildcard_policy_erases_call_names():
    t = derive_from("<?php $r = mysql_query($sql);", symbol_policy="wildcard")
    roles = [n.leaf_role for n in t.iter_preorder() if n.kind == astree.NAME]
    assert roles and all(isinstance(r, CallWildcard) for r in roles)
    t2 = derive_from("<?php $r = mysql_query($sql);", symbol_policy="preserve")
    assert query_id_of(t) != query_id_of(t2)


def test_empty_input_rejected(tutorial_books):
    unit, _ = tutorial_books
    with pytest.raises(EmptyInput):
        derive_template(unit, [])


def test_stats_match_independent_walk():
    rng = random.Random(13)
    for _ in range(15):
        t = derive_from(render_file(render_snippet(random_snippet(rng))))
        # independent re-traversal
        count = 0
        var_w = lit_w = api = 0
        stack = [(r, 0) for r in t.statements]
        seen_depth = 0
        while stack:
            nid, d = stack.pop()
            n = t.nodes[nid]
            count += 1
            seen_depth = max(seen_depth, d)
            if isinstance(n.leaf_role, VarWildcard):
                var_w += 1
            elif isinstance(n.leaf_role, LiteralWildcard):
                lit_w += 1
            elif isinstance(n.leaf_role, ApiSymbol):
                api += 1
            stack.extend((c, d + 1) for c in n.children)
        st = template_stats(t)
        assert (st.node_count, st.var_wildcards, st.literal_wildcards,
                st.api_symbols, st.depth) == (count, var_w, lit_w, api, seen_depth)


def test_template_depth_of_query_statement(tutorial_books):
    unit, _ = tutorial_books
    t = derive_template(unit, slice_statements(unit, 5, 6))
    # Assign -> Call -> ArgList -> Encapsed -> leaf
    assert t.template_depth == 4


def test_serialization_roundtrip(tutorial_books):
    unit, _ = tutorial_books
    t = derive_template(unit, slice_statements(unit, 5, 6))
    again = deserialize_template(serialize_template(t))
    assert t == again
    assert query_id_of(t) == query_id_of(again)
    assert again.seed_origin == t.seed_origin
    assert again.template_depth == t.template_depth


def test_serialization_roundtrip_random():
    rng = random.Random(44)
    for _ in range(100):
        t = derive_from(render_file(render_snippet(random_snippet(rng))),
                        symbol_policy=rng.choice(("preserve", "wildcard")))
        assert t == deserialize_template(serialize_template(t))


def _raw_json_lines(text: str) -> str:
    """text with each record written as json.dumps(..., ensure_ascii=False)
    writes it: characters outside ASCII unescaped."""
    return "".join(json.dumps(json.loads(ln), ensure_ascii=False) + "\n"
                   for ln in text.splitlines())


def test_deserialize_reads_an_api_name_holding_a_line_separator():
    # a name may hold any character outside ASCII, U+2028 too
    t = derive_from("<?php\n$r = f\u2028g($_GET['x']);\n")
    raw = _raw_json_lines(serialize_template(t))
    assert "f\u2028g" in raw
    again = deserialize_template(raw)
    assert t == again
    assert query_id_of(again) == query_id_of(t)


def test_deserialize_rejects_garbage():
    with pytest.raises(TemplateFormatError):
        deserialize_template("")
    with pytest.raises(TemplateFormatError, match="^record 0: missing 'tmpl-v2' header$"):
        deserialize_template('{"roots": [0]}')
    good = serialize_template(derive_from("<?php $a = $b;"))
    # a record that is not a node
    with pytest.raises(TemplateFormatError, match="^record 4: a node record needs"):
        deserialize_template(good + '{"edges": [[1, 2]]}\n')


def test_deserialize_refuses_a_tmpl_v1_file_at_its_header():
    lines = serialize_template(derive_from("<?php $a = $b;")).splitlines()
    header = json.loads(lines[0])
    header.update(format="tmpl-v1", mode="normal")
    with pytest.raises(TemplateFormatError) as exc:
        deserialize_template("\n".join([json.dumps(header)] + lines[1:]
                                       + ['{"edges": [[1, 2]]}']))
    assert str(exc.value) == ("record 0: format 'tmpl-v1' is not read; "
                              "derive the template again as 'tmpl-v2'")


def test_query_id_ignores_seed_origin(tmp_path):
    text = "<?php\n$a = $_GET['x'];\nsink(\"q $a\");\n"
    t1 = derive_from(text)
    unit2 = parse_source(text, path="elsewhere/other.php")
    t2 = derive_template(unit2, unit2.children_of(unit2.nodes[unit2.root]))
    assert t1.seed_origin != t2.seed_origin
    assert query_id_of(t1) == query_id_of(t2)


def test_deserialize_rejects_a_node_reached_twice():
    good = serialize_template(derive_from("<?php $a = $b;"))
    lines = [json.loads(ln) for ln in good.splitlines()]
    for rec in lines[1:]:
        if rec["kind"] == "Var":
            rec["children"] = [lines[0]["roots"][0]]
            break
    with pytest.raises(TemplateFormatError,
                       match=r"^record 1: node 0 has multiple parents or a cycle$"):
        deserialize_template("\n".join(json.dumps(rec) for rec in lines))


def test_deserialize_rejects_an_unreachable_record():
    good = serialize_template(derive_from("<?php $a = $b;"))
    lines = good.splitlines()
    stray = json.dumps({"id": 99, "kind": "Var", "leaf_role": {"role": "var", "class": 0}})
    with pytest.raises(TemplateFormatError, match=r"^record 4: unreachable nodes: \[99\]$"):
        deserialize_template("\n".join(lines + [stray]))


@pytest.mark.parametrize("origin", [{"path": "s.php", "lines": [1.5, [2]]},
                                    {"path": "s.php", "lines": [1, "2"]},
                                    {"path": "s.php", "lines": [True, 2]},
                                    {"path": ["s.php"], "lines": [1, 2]},
                                    {"lines": [1, 2]},
                                    {"path": "s.php", "lines": [1, 2, 3]}])
def test_deserialize_rejects_an_origin_without_a_str_path_and_two_int_lines(origin):
    lines = serialize_template(derive_from("<?php $a = $b;")).splitlines()
    header = json.loads(lines[0])
    header["origin"] = origin
    with pytest.raises(TemplateFormatError, match="^record 0: malformed origin"):
        deserialize_template("\n".join([json.dumps(header)] + lines[1:]))
    header["origin"] = None
    again = deserialize_template("\n".join([json.dumps(header)] + lines[1:]))
    assert again.seed_origin is None


def _records_with_ids_from_one(text: str) -> list[dict]:
    """The records of a tmpl-v2 text with every node id one higher, so that
    the first root is 1, the id a bool would pass for."""
    recs = [json.loads(ln) for ln in text.splitlines()]
    recs[0]["roots"] = [r + 1 for r in recs[0]["roots"]]
    for rec in recs[1:]:
        rec["id"] += 1
        rec["children"] = [c + 1 for c in rec["children"]]
    return recs


@pytest.mark.parametrize("where,good,bad,error", [
    ((2, "leaf_role", "class"), 0, False, "record 2: var role needs a non-negative 'class'"),
    ((1, "id"), 1, True, "record 1: a node record needs an int 'id' and a str 'kind'"),
    ((0, "roots"), [1], [True], "record 0: header needs non-empty integer 'roots'"),
    ((0, "template_depth"), 1, 99, "record 0: template_depth is 99, but the tree implies 1"),
], ids=["class", "id", "roots", "template_depth"])
def test_deserialize_rejects_a_bool_in_an_int_field_and_a_wrong_header_depth(
        where, good, bad, error):
    recs = _records_with_ids_from_one(serialize_template(derive_from("<?php $a = $b;")))
    *path, key = where
    target = recs
    for step in path:
        target = target[step]
    assert target[key] == good
    again = deserialize_template("\n".join(json.dumps(rec) for rec in recs))
    assert again.template_depth == 1
    target[key] = bad
    with pytest.raises(TemplateFormatError) as exc:
        deserialize_template("\n".join(json.dumps(rec) for rec in recs))
    assert str(exc.value) == error
