"""The generated matchers against the step interpreter they replaced.

tests/reference_matcher.py replays a program one step at a time.  engine's
match_at and scan_unit run the straight-line function generated from it.
Both must give the same Match or None at every anchor, under every
combination of ScanOptions, and add the same number of node comparisons.
"""
from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from analogue.astree import STMT_LIST, SourceUnit, TreeBuilder
from analogue.compiler import (ASCEND, BIND, CHECK, DESCEND, KIND, NEXT, SYMBOL,
                               MatcherProgram, MatcherStep, deserialize_program,
                               matcher_source, serialize_program)
from analogue.corpusgen import random_snippet
from analogue.engine import ComparisonCounter, match_at, scan_unit

import reference_matcher
from test_scan_index import OPTION_GRID, planted_unit, program_for


def variants(p: MatcherProgram, rng: random.Random) -> list[MatcherProgram]:
    """The program, plus valid programs of shapes compile_template never
    emits: no statement-root KIND step, a class bound twice, a class bound
    under a fresh id."""
    out = [p]
    steps = list(p.steps)
    out.append(dataclasses.replace(p, steps=tuple(steps[1:])))
    checks = [i for i, s in enumerate(steps) if s.op == CHECK]
    if checks:
        i = rng.choice(checks)
        rebind = steps[:i] + [dataclasses.replace(steps[i], op=BIND)] + steps[i + 1:]
        out.append(dataclasses.replace(p, steps=tuple(rebind)))
    binds = [i for i, s in enumerate(steps) if s.op == BIND]
    if binds:
        i = rng.choice(binds)
        fresh = steps[:i] + [dataclasses.replace(steps[i], class_id=99)] + steps[i + 1:]
        out.append(dataclasses.replace(p, steps=tuple(fresh)))
    return out


def shrunk(unit, rng: random.Random):
    """A copy of the unit with the last child of some nodes cut off, so that
    programs also fail where they descend."""
    nodes = {i: dataclasses.replace(n, children=n.children[:-1]
                                    if n.children and rng.random() < 0.3 else n.children)
             for i, n in unit.nodes.items()}
    return SourceUnit(unit.path, unit.root, nodes, len(nodes))


def anchors(unit):
    for sl in unit.stmt_lists():
        for start in range(-1, len(sl.children) + 1):
            yield sl.id, start


def test_match_at_equals_the_step_interpreter_everywhere():
    rng = random.Random(97)
    attempts = matched = 0
    for _ in range(32):
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


def test_scan_unit_counts_what_the_interpreter_counts():
    """scan_unit adds up the comparison counts in its own loop, not through
    match_at: its totals must equal the interpreter's over the same anchors."""
    rng = random.Random(101)
    for _ in range(8):
        seed = random_snippet(rng)
        unit = shrunk(planted_unit(seed, rng), rng)
        for policy in ("preserve", "wildcard"):
            for p in variants(program_for(seed, policy), rng):
                for opts in OPTION_GRID:
                    got, counter = scan_unit(p, unit, opts)
                    index = unit.anchor_index()
                    tried = (index.by_kind.get(p.steps[0].kind, ())
                             if p.steps[0].op == KIND else index.anchors)
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
                    assert (got, counter) == (want, want_c)


def test_unknown_op_is_counted_and_otherwise_ignored():
    seed = random_snippet(random.Random(5))
    p = program_for(seed, "preserve")
    odd = dataclasses.replace(p, steps=p.steps[:1] + (MatcherStep("kindd", 0),) + p.steps[1:])
    unit = planted_unit(seed, random.Random(6))
    for opts in OPTION_GRID:
        got_c, want_c = ComparisonCounter(), ComparisonCounter()
        for sl_id, start in anchors(unit):
            assert (match_at(odd, unit, sl_id, start, opts, got_c)
                    == reference_matcher.match_at(odd, unit, sl_id, start, opts, want_c))
        assert got_c == want_c
    assert odd.comparison_steps == p.comparison_steps + 1


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
    p = MatcherProgram(steps=steps, statement_count=2, var_class_count=1,
                       template_depth=2, query_id="hostile")
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
            for injective in (False, True):
                source, consts = matcher_source(p, exact, injective)
                assert source == matcher_source(plain, exact, injective)[0]
                assert "import" not in source
                assert kind in consts and name in consts
                assert len({(type(c), c) for c in consts}) == len(consts)
        for opts in OPTION_GRID:
            got, _ = scan_unit(p, unit, opts)
            assert [m.start_index for m in got] == [0, 6]
            assert all(m.bindings == {0: name} for m in got)


def test_matchers_are_cached_per_variant_and_not_pickled():
    p = program_for(random_snippet(random.Random(3)), "preserve")
    assert p.matcher() is p.matcher(False, False)
    assert p.matcher(True, False) is not p.matcher()
    assert len(p._matchers) == 2
    again = pickle.loads(pickle.dumps(p))
    assert again == p and again._matchers == {} and len(p._matchers) == 2
    assert dataclasses.replace(p)._matchers == {}
    assert "_matchers" not in repr(p)
