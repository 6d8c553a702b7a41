"""The generated matchers against the step interpreter they replaced.

tests/reference_matcher.py replays a program one step at a time.  engine's
match_at and scan_unit run the straight-line function generated from it.
Both must give the same Match or None at every anchor, under every
combination of ScanOptions, and add the same number of node comparisons.
"""
from __future__ import annotations

import dataclasses
import json
import pickle
import random
import re

import pytest

from analogue.astree import STMT_LIST, SourceUnit, TreeBuilder
from analogue import engine
from analogue.compiler import (ASCEND, BIND, CHECK, DESCEND, KIND, NEXT, SYMBOL,
                               UNDECIDED, MatcherProgram, MatcherStep,
                               ProgramFormatError, ShapeTest, deserialize_program,
                               matcher_source, serialize_program, shape_verdict)
from analogue.corpusgen import random_snippet
from analogue.engine import (MAX_SHAPE_CHILDREN, NO_SHAPE, ComparisonCounter,
                             ScanOptions, anchor_index, match_at, scan_unit)

import reference_matcher
from test_scan_index import OPTION_GRID, planted_unit, program_for


def variants(p: MatcherProgram, rng: random.Random) -> list[MatcherProgram]:
    """The program, plus valid programs of shapes compile_template never
    emits: a statement-root KIND step without an arity, a class bound
    twice, a class bound under a fresh id."""
    out = [p]
    steps = list(p.steps)
    out.append(dataclasses.replace(
        p, steps=(steps[0]._replace(arity=None), *steps[1:])))
    checks = [i for i, s in enumerate(steps) if s.op == CHECK]
    if checks:
        i = rng.choice(checks)
        rebind = steps[:i] + [steps[i]._replace(op=BIND)] + steps[i + 1:]
        out.append(dataclasses.replace(p, steps=tuple(rebind)))
    binds = [i for i, s in enumerate(steps) if s.op == BIND]
    if binds:
        cls = steps[rng.choice(binds)].class_id
        fresh = [s._replace(class_id=99) if s.class_id == cls else s for s in steps]
        out.append(dataclasses.replace(p, steps=tuple(fresh)))
    return out


def shrunk(unit, rng: random.Random):
    """A copy of the unit with the last child of some nodes cut off, so that
    programs also fail where they descend."""
    nodes = {i: dataclasses.replace(n, children=n.children[:-1]
                                    if n.children and rng.random() < 0.3 else n.children)
             for i, n in unit.nodes.items()}
    return SourceUnit(unit.path, unit.root, nodes)


def anchors(unit):
    for sl in unit.stmt_lists():
        for start in range(-1, len(sl.children) + 1):
            yield sl.id, start


def test_match_at_equals_the_step_interpreter_everywhere():
    rng = random.Random(97)
    attempts = matched = 0
    for _ in range(64):
        seed = random_snippet(rng)
        units = [planted_unit(seed, rng), planted_unit(random_snippet(rng), rng)]
        units.append(shrunk(units[0], rng))
        for policy in ("preserve", "wildcard"):
            for p in variants(program_for(seed, policy), rng):
                for unit in units:
                    for opts in OPTION_GRID:
                        got_c, want_c = ComparisonCounter(), ComparisonCounter()
                        for sl_id, start in anchors(unit):
                            got = match_at(p, unit, sl_id, start, opts, got_c)
                            want = reference_matcher.match_at(p, unit, sl_id, start,
                                                              opts, want_c)
                            assert got == want
                            if got is not None:
                                assert list(got.bindings.items()) == \
                                    list(want.bindings.items())
                                matched += 1
                            assert got_c == want_c
                            attempts += 1
    assert matched > 1000 and attempts > 100_000


def interpreted_scan(p: MatcherProgram, unit, opts: ScanOptions):
    """scan_unit's result, from the step interpreter at the same anchors."""
    index = anchor_index(unit)
    tried = index.anchors(p.steps[0].kind)
    depth_limit = index.max_depth - p.template_depth + 1
    want, want_c = [], ComparisonCounter()
    for sl_id, depth, start, siblings in tried:
        if ((opts.depth_pruning and depth >= depth_limit)
                or start + p.statement_count > siblings):
            continue
        want_c.candidates_tried += 1
        m = reference_matcher.match_at(p, unit, sl_id, start, opts, want_c)
        if m is not None:
            want.append(m)
    return want, want_c


def random_inputs():
    """Random seeds' programs and their variants, over a planted unit."""
    rng = random.Random(101)
    for _ in range(8):
        seed = random_snippet(rng)
        unit = shrunk(planted_unit(seed, rng), rng)
        for policy in ("preserve", "wildcard"):
            for p in variants(program_for(seed, policy), rng):
                yield p, unit


def shape_unit(kind: str = "Assign"):
    """Statements of kind `kind` (and a few others) whose shapes differ in
    arity, in their children's kinds, and below their children, at two
    depths."""
    b = TreeBuilder()

    def var(name):
        return b.add("Var", symbol=name)

    def call(*args):
        return b.add("Call", [b.add("Name", symbol="f"), *args])

    def stmts():
        return [b.add(kind, [var("$a"), var("$a")]),
                b.add(kind, [var("$a"), var("$b")]),
                b.add(kind, [var("$b"), call(b.add("ArgList", [var("$a")]))]),
                b.add(kind, [var("$a"), call()]),
                b.add(kind, [var("$a")]),
                b.add(kind),
                b.add(kind, [var("$a"), var("$a"), b.add("Literal", value="1")]),
                b.add("Echo", [var("$a")]),
                b.add(kind, [b.add("ArrayDim", [var("$a"), var("$k")]), var("$a")]),
                b.add(kind, [var("$v%d" % i) for i in range(MAX_SHAPE_CHILDREN + 1)])]

    inner = b.add(STMT_LIST, stmts())
    outer = stmts() + [b.add("If", [var("$c"), inner])] + stmts()
    return b.finish("shapes.php", b.add(STMT_LIST, outer))


def steps(*spec) -> tuple[MatcherStep, ...]:
    """Steps from (op, field) pairs: a KIND step takes (kind, arity)."""
    out = []
    for i, (op, *value) in enumerate(spec):
        if op == KIND:
            out.append(MatcherStep(KIND, i, kind=value[0], arity=value[1]))
        elif op == SYMBOL:
            out.append(MatcherStep(SYMBOL, i, name=value[0]))
        elif op in (BIND, CHECK):
            out.append(MatcherStep(op, i, class_id=value[0]))
        elif op == DESCEND:
            out.append(MatcherStep(DESCEND, i, child_index=value[0]))
        else:
            out.append(MatcherStep(op, i))
    return tuple(out)


def shape_programs(kind: str = "Assign") -> dict[str, MatcherProgram]:
    """Programs whose first statement mixes shape tests with tests that
    read more than the shape."""
    head = [(KIND, kind, 2), (DESCEND, 0), (KIND, "Var", 0), (BIND, 0), (ASCEND,)]
    cases = {
        "check-before-child-kind":
            head + [(DESCEND, 1), (CHECK, 0), (KIND, "Var", 0), (ASCEND,)],
        "symbol-before-child-kind":
            [(KIND, kind, 2), (DESCEND, 0), (KIND, "Var", 0), (SYMBOL, "$a"),
             (ASCEND,), (DESCEND, 1), (KIND, "Call", 2), (ASCEND,)],
        "exact-arity-on-a-child":
            head + [(DESCEND, 1), (KIND, "Call", 2), (DESCEND, 0),
                    (KIND, "Name", 0), (ASCEND,), (ASCEND,)],
        "descend-to-a-missing-child":
            [(KIND, kind, 3), (DESCEND, 2), (KIND, "Literal", 0), (ASCEND,)],
        "descend-below-a-child":
            [(KIND, kind, 2), (DESCEND, 1), (DESCEND, 0), (KIND, "Name", 0),
             (ASCEND,), (ASCEND,)],
        "two-statements":
            head + [(NEXT,), (KIND, "Echo", 1), (DESCEND, 0), (KIND, "Var", 0),
                    (CHECK, 0), (ASCEND,)],
    }
    return {name: MatcherProgram(steps=steps(*spec), query_id=name)
            for name, spec in cases.items()}


def shape_inputs():
    """Each shape program over one shared unit, then over a fresh unit."""
    unit = shape_unit()
    for p in shape_programs().values():
        yield p, unit
        yield p, shape_unit()


def test_scan_unit_counts_what_the_interpreter_counts():
    """scan_unit adds up the comparison counts in its own loop, not through
    match_at, and decides most attempts on the first statement's shape: its
    matches and totals must equal the interpreter's over the same anchors."""
    for inputs in (random_inputs(), shape_inputs()):
        for p, unit in inputs:
            for opts in OPTION_GRID:
                assert scan_unit(p, unit, opts) == interpreted_scan(p, unit, opts)


def test_shape_tests_end_where_a_test_reads_more_than_the_shape():
    ps = shape_programs()
    tests = {name: (p.compiled(False).shape_tests, p.compiled(True).shape_tests)
             for name, p in ps.items()}
    stmt = ShapeTest(-1, "Assign", None, 1), ShapeTest(-1, "Assign", 2, 1)
    var0 = ShapeTest(0, None, None, 1), ShapeTest(0, "Var", None, 2)
    # with exact arity, the run ends at the KIND step on child 0
    assert tests["check-before-child-kind"] == (
        (stmt[0], *var0, ShapeTest(1, None, None, 3)), (stmt[1], var0[0]))
    assert tests["symbol-before-child-kind"] == ((stmt[0], *var0), (stmt[1], var0[0]))
    assert tests["exact-arity-on-a-child"] == (
        (stmt[0], *var0, ShapeTest(1, None, None, 3), ShapeTest(1, "Call", None, 4)),
        (stmt[1], var0[0]))
    assert tests["descend-to-a-missing-child"] == (
        (stmt[0], ShapeTest(2, None, None, 1), ShapeTest(2, "Literal", None, 2)),
        (ShapeTest(-1, "Assign", 3, 1), ShapeTest(2, None, None, 1)))
    assert tests["descend-below-a-child"] == ((stmt[0], ShapeTest(1, None, None, 1)),
                                              (stmt[1], ShapeTest(1, None, None, 1)))
    assert tests["two-statements"] == ((stmt[0], *var0), (stmt[1], var0[0]))
    loose, exact = tests["check-before-child-kind"]
    verdicts = {("Var", "Var", "Literal"): (UNDECIDED, 1),
                ("Var", "Var"): (UNDECIDED, UNDECIDED),
                ("Var",): (3, 1),
                ("Call", "Var"): (2, UNDECIDED),
                (): (1, 1)}
    for child_kinds, want in verdicts.items():
        assert (shape_verdict(loose, "Assign", child_kinds),
                shape_verdict(exact, "Assign", child_kinds)) == want


def test_programs_sharing_a_unit_keep_their_own_verdicts():
    """One unit's shape ids serve every program, in either order, while each
    program decides the same shape for itself."""
    ps = shape_programs()
    decided, undecided = ps["descend-to-a-missing-child"], ps["check-before-child-kind"]
    for order in ((decided, undecided), (undecided, decided)):
        unit = shape_unit()
        index = anchor_index(unit)
        for p in order:
            for opts in OPTION_GRID:
                assert scan_unit(p, unit, opts, index) == interpreted_scan(p, unit, opts)
        var_var = unit.nodes[unit.root].children[0]     # Assign($a, $a)
        sid = index.shapes[var_var]
        assert sid != NO_SHAPE
        for exact in (False, True):
            assert decided.compiled(exact).verdicts[sid] == 1
            assert undecided.compiled(exact).verdicts[sid] == UNDECIDED


def test_a_full_shape_table_leaves_new_shapes_to_the_matcher(monkeypatch):
    """Once the table holds MAX_SHAPES shapes, a statement of a new shape
    gets NO_SHAPE and every attempt at it runs the matcher; scans still
    equal the interpreter's, and the table does not grow."""
    before = len(engine._shapes)
    monkeypatch.setattr(engine, "MAX_SHAPES", before)
    for p in shape_programs("Assign:full").values():
        unit = shape_unit("Assign:full")
        index = anchor_index(unit)
        for opts in OPTION_GRID:
            assert scan_unit(p, unit, opts, index) == interpreted_scan(p, unit, opts)
        shapes = index.shapes
        assert all(shapes[stmt] == NO_SHAPE for stmt in shapes
                   if unit.nodes[stmt].kind == "Assign:full")
    assert len(engine._shapes) == before
    monkeypatch.undo()
    unit = shape_unit("Assign:full")
    wide = unit.nodes[unit.root].children[9]
    assert len(unit.nodes[wide].children) > MAX_SHAPE_CHILDREN
    assert engine.shape_id(unit.nodes[wide], unit.nodes) == NO_SHAPE
    assert engine.shape_id(unit.nodes[unit.nodes[unit.root].children[0]],
                           unit.nodes) == len(engine._shapes) - 1


def test_every_program_that_loads_scans_alike_with_and_without_depth_pruning():
    """Depth pruning skips statement lists by the program's template_depth.
    A prog-v1 file may state it, but loads only where it equals the depth
    the steps imply, so no file that loads makes the pruned scan drop a
    match."""
    rng = random.Random(103)
    loaded = matched = 0
    for _ in range(12):
        seed = random_snippet(rng)
        units = [planted_unit(seed, rng), planted_unit(random_snippet(rng), rng)]
        for policy in ("preserve", "wildcard"):
            for p in variants(program_for(seed, policy), rng):
                doc = json.loads(serialize_program(p))
                for depth in range(8):
                    doc["template_depth"] = depth
                    try:
                        q = deserialize_program(json.dumps(doc))
                    except ProgramFormatError:
                        continue
                    loaded += 1
                    for unit in units:
                        for exact in (False, True):
                            pruned, _ = scan_unit(q, unit, ScanOptions(True, exact))
                            unpruned, _ = scan_unit(q, unit, ScanOptions(False, exact))
                            assert pruned == unpruned
                            matched += len(pruned)
    assert loaded > 12 * 2 and matched > 50


# Programs that the matcher once ran: a step it does not know (counted as a
# comparison and otherwise ignored), and statements that open with no shape
# test.  Each is refused where it is made, with the step named.
REFUSED = {
    "unknown-op": ([(KIND, "Assign", 2), ("kindd",), (DESCEND, 1), (KIND, "Call", 2),
                    (ASCEND,)], "step 1: unknown op 'kindd'"),
    "no-shape-tests": ([(SYMBOL, "$a")],
                       "step 0: a statement opens with a kind step, not a symbol step"),
    "bind-only": ([(BIND, 0)],
                  "step 0: a statement opens with a kind step, not a bind step"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_a_program_the_shape_tests_cannot_decide_is_refused(name):
    spec, message = REFUSED[name]
    with pytest.raises(ProgramFormatError, match="^%s$" % re.escape(message)):
        MatcherProgram(steps=steps(*spec), query_id=name)


HOSTILE = ["'", '"', "\\", "\n", "__import__('os')", "\"); import os; (\"",
           "'''", "\\'\n", "{0}", "%s", "\u2028"]


def hostile_program(kind: str, name: str) -> MatcherProgram:
    """One statement of kind `kind` whose first child is a Name `name`."""
    steps = (MatcherStep(KIND, 0, kind=kind, arity=1),
             MatcherStep(DESCEND, 1, child_index=0),
             MatcherStep(KIND, 1, kind="Name", arity=0),
             MatcherStep(SYMBOL, 1, name=name),
             MatcherStep(ASCEND, 0),
             MatcherStep(NEXT, 2),
             MatcherStep(KIND, 2, kind=name, arity=1),
             MatcherStep(DESCEND, 3, child_index=0),
             MatcherStep(KIND, 3, kind=kind, arity=0),
             MatcherStep(BIND, 3, class_id=0),
             MatcherStep(ASCEND, 2))
    p = MatcherProgram(steps=steps, query_id="hostile")
    return deserialize_program(serialize_program(p))


def hostile_unit(kind: str, name: str, near: str):
    """Statement pairs: the exact strings, then each with one of them off."""
    b = TreeBuilder()
    stmts = []
    for k, n in ((kind, name), (near, name), (kind, near), (kind, name)):
        stmts.append(b.add(k, [b.add("Name", symbol=n)]))
        stmts.append(b.add(n, [b.add(k, symbol=n)]))
    return b.finish("hostile.php", b.add(STMT_LIST, stmts))


@pytest.mark.parametrize("kind", HOSTILE)
def test_hostile_strings_match_exactly_and_never_reach_the_source(kind):
    for name in HOSTILE:
        p = hostile_program(kind, name)
        # the same program with plain strings, equal where kind and name are
        plain = hostile_program("Plain", "Plain" if name == kind else "Other")
        unit = hostile_unit(kind, name, near=kind + name + "x")
        for exact in (False, True):
            source, consts, _ = matcher_source(p, exact)
            assert source == matcher_source(plain, exact)[0]
            assert "import" not in source
            assert kind in consts and name in consts
            assert len({(type(c), c) for c in consts}) == len(consts)
        for opts in OPTION_GRID:
            got, _ = scan_unit(p, unit, opts)
            assert [m.start_index for m in got] == [0, 6]
            assert all(m.bindings == {0: name} for m in got)


def test_matchers_are_cached_per_variant_and_not_pickled():
    p = program_for(random_snippet(random.Random(3)), "preserve")
    assert p.compiled() is p.compiled(False)
    assert p.compiled(True) is not p.compiled()
    assert len(p._matchers) == 2
    again = pickle.loads(pickle.dumps(p))
    assert again == p and again._matchers == {} and len(p._matchers) == 2
    assert dataclasses.replace(p)._matchers == {}
    assert "_matchers" not in repr(p)
