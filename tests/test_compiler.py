from __future__ import annotations

import dataclasses
import json
import random
import time
from collections import Counter

import pytest

from analogue import astree
from analogue.astree import slice_statements
from analogue.compiler import (ASCEND, BIND, CHECK, DESCEND, KIND, NEXT,
                               SYMBOL, MatcherProgram, MatcherStep,
                               ProgramFormatError, compile_template,
                               deserialize_program, export_traversal_script,
                               serialize_program, validate_program)
from analogue.corpusgen import random_snippet, render_file, render_snippet
from analogue.engine import scan_unit
from analogue.php_parser import parse_source
from analogue.template import (SYMBOL_POLICIES, ApiSymbol, SeedOrigin,
                               VarWildcard, derive_template,
                               deserialize_template, query_id_of,
                               serialize_template)
from analogue.testing import template_stats


def compile_from(text: str, lines=None, **kw):
    unit = parse_source(text)
    stmts = slice_statements(unit, *lines) if lines else \
        unit.children_of(unit.nodes[unit.root])
    t = derive_template(unit, stmts, **kw)
    return unit, t, compile_template(t)


def semantic_ops(p):
    return [s.op for s in p.steps if s.op in (KIND, SYMBOL, BIND, CHECK, NEXT)]


def test_query_template_program_binds_once_checks_once(tutorial_books):
    unit, _ = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)
    p = compile_template(t)
    validate_program(p)
    symbols = [s.name for s in p.steps if s.op == SYMBOL]
    assert symbols == ["mysql_query"]
    # the class shared between the two statements binds once, checks once
    shared = [n.leaf_role.class_id for n in t.iter_preorder()
              if isinstance(n.leaf_role, VarWildcard)]
    shared_class = next(c for c in shared if shared.count(c) == 2)
    binds = [s for s in p.steps if s.op == BIND and s.class_id == shared_class]
    checks = [s for s in p.steps if s.op == CHECK and s.class_id == shared_class]
    assert (len(binds), len(checks)) == (1, 1)
    # bind happens in the first statement, check in the second
    assert p.steps.index(binds[0]) < p.steps.index(checks[0])


def test_trivial_call_program_has_no_var_steps():
    _, _, p = compile_from("<?php foo();")
    assert semantic_ops(p) == [KIND, KIND, SYMBOL, KIND]
    kinds = [s.kind for s in p.steps if s.op == KIND]
    assert kinds == [astree.CALL, astree.NAME, astree.ARG_LIST]
    assert not [s for s in p.steps if s.op in (BIND, CHECK)]


def test_step_counts_match_independent_walk():
    # oracle: count template features by an independent recursive walk, then
    # compare against the emitted opcode mix
    rng = random.Random(31)
    for _ in range(100):
        unit, t, p = compile_from(render_file(render_snippet(random_snippet(rng))),
                                  symbol_policy=rng.choice(("preserve", "wildcard")))
        nodes = name_leaves = var_leaves = 0

        def walk(nid):
            nonlocal nodes, name_leaves, var_leaves
            n = t.nodes[nid]
            nodes += 1
            if isinstance(n.leaf_role, ApiSymbol):
                name_leaves += 1
            if isinstance(n.leaf_role, VarWildcard):
                var_leaves += 1
            for c in n.children:
                walk(c)

        for r in t.statements:
            walk(r)
        counts = Counter(s.op for s in p.steps)
        # filter/bind/check/next steps follow the template feature counts;
        # explicit navigation adds one descend+ascend pair per non-root node
        assert len(semantic_ops(p)) == nodes + name_leaves + var_leaves + \
            (len(t.statements) - 1)
        assert counts[KIND] == nodes
        assert counts[SYMBOL] == name_leaves
        assert counts[BIND] + counts[CHECK] == var_leaves
        assert counts[NEXT] == len(t.statements) - 1
        assert counts[DESCEND] == counts[ASCEND] == \
            nodes - len(t.statements)
        # the header counts derived from the steps are the template's own
        assert (p.statement_count, p.var_class_count, p.template_depth) == \
            (len(t.statements), template_stats(t).var_class_count, t.template_depth)
        validate_program(p)


def test_wildcard_policy_emits_no_symbol_steps():
    _, _, p = compile_from("<?php $r = mysql_query($q);",
                           symbol_policy="wildcard")
    assert not [s for s in p.steps if s.op == SYMBOL]


def test_compile_is_deterministic_and_content_addressed(tutorial_books, tmp_path):
    unit, text = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t1 = derive_template(unit, stmts)
    t2 = derive_template(unit, stmts)
    p1, p2 = compile_template(t1), compile_template(t2)
    assert p1 == p2
    assert p1.query_id == query_id_of(t1)
    # the same seed text parsed from another path compiles to the same id
    unit_b = parse_source(text, path="copied/elsewhere.php")
    t3 = derive_template(unit_b, slice_statements(unit_b, 5, 6))
    assert compile_template(t3).query_id == p1.query_id


def test_self_match(tutorial_books):
    rng = random.Random(7)
    unit, _ = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)
    p = compile_template(t)
    matches, _ = scan_unit(p, unit)
    assert any(m.line_start == 5 and m.line_end == 6 for m in matches)
    # and over random snippets: the compiled program always finds its seed
    for _ in range(25):
        text = render_file(render_snippet(random_snippet(rng)))
        u = parse_source(text)
        tt = derive_template(u, u.children_of(u.nodes[u.root]))
        ms, _ = scan_unit(compile_template(tt), u)
        assert any(m.stmt_list_id == u.root and m.start_index == 0 for m in ms)


def test_self_match_bindings_are_identity(tutorial_books):
    unit, _ = tutorial_books
    stmts = slice_statements(unit, 5, 6)
    t = derive_template(unit, stmts)
    p = compile_template(t)
    matches, _ = scan_unit(p, unit)
    m = next(m for m in matches if m.line_start == 5)
    assert m.bindings == {0: "$title", 1: "$_POST", 2: "$result"}


def test_traversal_script_shape(tutorial_books):
    unit, _ = tutorial_books
    t = derive_template(unit, slice_statements(unit, 5, 6))
    p = compile_template(t)
    script = export_traversal_script(p)
    lines = script.strip().splitlines()
    assert len(lines) == len(p.steps)
    # remembering a variable is a sideEffect; re-checking it is a filter
    assert any(ln.startswith(".sideEffect{ var_0") for ln in lines)
    assert ".filter{ it.code == var_0 }" in lines
    assert ".filter{ it.code == 'mysql_query' }" in lines
    assert ".nextStatement()" in lines
    bind_line = next(i for i, ln in enumerate(lines) if "sideEffect{ var_0" in ln)
    check_line = next(i for i, ln in enumerate(lines) if ln == ".filter{ it.code == var_0 }")
    assert bind_line < check_line


def test_script_without_variables_has_no_side_effects():
    _, _, p = compile_from("<?php foo();")
    script = export_traversal_script(p)
    assert "sideEffect" not in script
    assert len(script.strip().splitlines()) == len(p.steps)


def test_program_serialization_roundtrip():
    rng = random.Random(61)
    for _ in range(20):
        _, _, p = compile_from(render_file(render_snippet(random_snippet(rng))))
        again = deserialize_program(serialize_program(p))
        assert again == p



def test_a_chain_deeper_than_the_recursion_limit_derives_and_matches_itself_once():
    # one statement whose left-associative "." chain nests 1,500 deep
    text = "<?php\n$q = " + " . ".join("$a%d" % (i % 7) for i in range(1500)) + ";\n"
    unit, t, p = compile_from(text)
    assert t.template_depth == 1500
    validate_program(p)
    matches, _ = scan_unit(p, unit)
    assert [(m.stmt_list_id, m.start_index, m.line_start) for m in matches] == \
        [(unit.root, 0, 2)]


def test_a_20000_term_chain_round_trips_compiles_and_matches_itself_once():
    # Seven names over 20,000 positions: the same-class pairs of positions
    # number about 28 million, so nothing on this path may list them.
    t0 = time.perf_counter()
    text = "<?php\n$q = " + " . ".join("$a%d" % (i % 7) for i in range(20000)) + ";\n"
    unit = parse_source(text)
    t = derive_template(unit, unit.children_of(unit.nodes[unit.root]))
    again = deserialize_template(serialize_template(t))
    assert again == t
    p = compile_template(again)
    assert deserialize_program(serialize_program(p)) == p
    assert (p.var_class_count, p.template_depth) == (8, 20000)
    matches, _ = scan_unit(p, unit)
    assert [(m.stmt_list_id, m.start_index, m.line_start) for m in matches] == \
        [(unit.root, 0, 2)]
    assert time.perf_counter() - t0 < 30.0


# Strings json escapes: non-ASCII (BMP, astral and a lone surrogate), quotes,
# backslashes and control characters.
ODD = ["", "plain", "é", " ", "☃", "\U0001F600", "\ud800", '"', "'", "\\",
       '\\"', "\x00", "\x1f", "\t\n\r", "\x7f", "\b\f", "</script>"]


def reference_text(p: MatcherProgram) -> str:
    """prog-v1 as json.dumps writes it: what serialize_program must equal."""
    steps = []
    for s in p.steps:
        rec: dict = {"op": s.op, "node": s.node_id}
        for key, val in (("kind", s.kind), ("arity", s.arity), ("name", s.name),
                         ("class", s.class_id), ("child", s.child_index)):
            if val is not None:
                rec[key] = val
        steps.append(rec)
    doc = {
        "format": "prog-v1",
        "query_id": p.query_id,
        "statement_count": p.statement_count,
        "var_class_count": p.var_class_count,
        "template_depth": p.template_depth,
        "symbol_policy": p.symbol_policy,
        "origin": None if p.origin is None else {
            "path": p.origin.path,
            "lines": [p.origin.line_start, p.origin.line_end]},
        "steps": steps,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def random_program(rng: random.Random) -> MatcherProgram:
    """A valid program of one to three statements, each opening with a KIND
    step, with odd strings in every kind, name, query id and path."""
    def odd() -> str:
        return rng.choice(ODD) + rng.choice(ODD)

    steps: list[MatcherStep] = []
    bound: list[int] = []

    def node(node_id: int, depth: int) -> None:
        steps.append(MatcherStep(KIND, node_id, odd(), rng.choice((None, 0, 3))))
        r = rng.random()
        if r < 0.3:
            steps.append(MatcherStep(SYMBOL, node_id, name=odd()))
        elif r < 0.6 and bound and rng.random() < 0.5:
            steps.append(MatcherStep(CHECK, node_id, class_id=rng.choice(bound)))
        elif r < 0.6:
            bound.append(rng.randrange(10 ** rng.randrange(1, 20)))
            steps.append(MatcherStep(BIND, node_id, class_id=bound[-1]))
        for i in range(rng.randrange(3) if depth < 3 else 0):
            steps.append(MatcherStep(DESCEND, node_id + 1, child_index=i))
            node(node_id + 1, depth + 1)
            steps.append(MatcherStep(ASCEND, node_id))

    for i in range(rng.randrange(1, 4)):
        if i:
            steps.append(MatcherStep(NEXT, i))
        node(rng.randrange(-5, 100), 0)
    origin = None if rng.random() < 0.3 else \
        SeedOrigin(odd(), rng.randrange(10 ** 6), rng.randrange(10 ** 6))
    return MatcherProgram(steps=tuple(steps), query_id=odd(),
                          symbol_policy=rng.choice(SYMBOL_POLICIES), origin=origin)


def test_writer_equals_json_dumps():
    rng = random.Random(67)
    programs = [random_program(rng) for _ in range(300)]
    programs += [compile_from(render_file(render_snippet(random_snippet(rng))))[2]
                 for _ in range(20)]
    assert any(p.statement_count == 1 for p in programs) and \
        any(p.origin is None for p in programs)
    for p in programs:
        text = serialize_program(p)
        assert text == reference_text(p)
        assert deserialize_program(text) == p


# Values of no field's type: a program holds only str, int and None.
ALIEN = [True, False, 1.5, -0.0, 1e300, [], {}, [1, "é", None],
         {"z": [2, {"b": [], "a": "\\"}], "a": 1}]


@pytest.mark.parametrize("value", ALIEN, ids=repr)
def test_a_value_of_no_field_type_is_rejected_in_every_field(value):
    """validate_program checks node ids, the fields an op does not read, the
    policy, the query id and the origin, and a SeedOrigin checks its own
    fields, so the writer sees only str, int and None."""
    steps = (MatcherStep(KIND, 0, "K", 1), MatcherStep(DESCEND, 1, child_index=0),
             MatcherStep(BIND, 1, class_id=0), MatcherStep(ASCEND, 0),
             MatcherStep(NEXT, 2), MatcherStep(KIND, 2, "L"),
             MatcherStep(SYMBOL, 2, name="f"))
    p = MatcherProgram(steps=steps, query_id="q", origin=SeedOrigin("s.php", 1, 2))
    for origin in ((value, 1, 2), ("s.php", value, 2), ("s.php", 1, value)):
        with pytest.raises(ValueError, match="malformed origin"):
            SeedOrigin(*origin)
    edits = [{"symbol_policy": value}, {"query_id": value}, {"origin": value}]
    for i, s in enumerate(steps):
        for field in range(1, len(s)):      # node id and every field after it
            edited = steps[:i] + (s[:field] + (value,) + s[field + 1:],) + steps[i + 1:]
            edits.append({"steps": tuple(map(MatcherStep._make, edited))})
    for edit in edits:
        with pytest.raises(ProgramFormatError):
            dataclasses.replace(p, **edit)


def old_facts(p: MatcherProgram) -> dict:
    """The five facts as MatcherProgram's properties found them, one walk
    of the steps each: the oracle for what validate_program returns."""
    depth = deepest = 0
    for s in p.steps:
        if s.op == DESCEND:
            depth += 1
            deepest = max(deepest, depth)
        elif s.op == ASCEND:
            depth -= 1
    return {"statement_count": 1 + sum(1 for s in p.steps if s.op == NEXT),
            "var_class_count": len({s.class_id for s in p.steps if s.op == BIND}),
            "template_depth": deepest,
            "preserved_symbols": frozenset(s.name for s in p.steps if s.op == SYMBOL),
            "comparison_steps": sum(1 for s in p.steps
                                    if s.op not in (DESCEND, ASCEND, NEXT))}


def test_validate_program_returns_the_facts_the_old_walks_found():
    rng = random.Random(71)
    programs = [random_program(rng) for _ in range(500)]
    programs += [compile_from(render_file(render_snippet(random_snippet(rng))),
                              symbol_policy=rng.choice(SYMBOL_POLICIES))[2]
                 for _ in range(50)]
    for p in programs:
        facts = old_facts(p)
        assert validate_program(p) == facts
        assert {name: getattr(p, name) for name in facts} == facts
