"""scan_unit (compiled programs) vs brute_force_scan (brute-force reference)."""
from __future__ import annotations

import random

import pytest

from genutil import random_pair

from analogue import astree
from analogue.astree import TreeBuilder, slice_statements
from analogue.compiler import compile_template
from analogue.engine import ScanOptions, scan_unit
from analogue.php_parser import parse_source
from analogue.template import derive_template
from analogue.testing import brute_force_scan


def agree(t, unit, **opt_kw) -> bool:
    p = compile_template(t)
    engine_ms, _ = scan_unit(p, unit, ScanOptions(**opt_kw))
    oracle_ms = brute_force_scan(t, unit, exact_arity=opt_kw.get("exact_arity", False))
    return engine_ms == oracle_ms


def test_oracle_agrees_on_tutorial_scans(tutorial_books, tutorial_search, clone_units):
    unit, _ = tutorial_books
    for lines in [(5, 6), (11, 12)]:
        t = derive_template(unit, slice_statements(unit, *lines))
        assert agree(t, unit)
    search, _ = tutorial_search
    t = derive_template(search, slice_statements(search, 4, 6), symbol_policy="wildcard")
    for target, _ in [tutorial_books, tutorial_search, *clone_units.values()]:
        assert agree(t, target)


def test_oracle_agrees_on_a_2000_term_chain():
    def chain(names):
        return "$q = " + " . ".join("$%s%d" % (names[i], i % 7) for i in range(2000)) + ";"

    seed = parse_source("<?php\n" + chain("a" * 2000) + "\n")
    t = derive_template(seed, seed.children_of(seed.nodes[seed.root]))
    # the seed, a consistent renaming of it, and a copy whose last term
    # breaks the data flow
    target = parse_source("<?php\n%s\n%s\n%s\n" % (
        chain("a" * 2000), chain("b" * 2000), chain("a" * 1999 + "c")))
    assert agree(t, target)
    assert [m.line_start for m in brute_force_scan(t, target)] == [2, 3]


def _deepest(nested) -> int:
    """The largest depth d for which parse_source(nested(d)) returns, where
    nested(d + 1) raises RecursionError, found by bisection in this process."""
    lo, hi = 1, 4000  # 4,000 levels take more than the default 1,000 frames
    parse_source(nested(lo))
    with pytest.raises(RecursionError):
        parse_source(nested(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse_source(nested(mid))
        except RecursionError:
            hi = mid
        else:
            lo = mid
    return lo


@pytest.mark.parametrize("nested", [
    lambda d: "<?php\n$x = " + "(" * d + "$y" + ")" * d + ";\n",
    lambda d: "<?php\n$x = " + "$a . (" * d + "$y" + ")" * d + ";\n",
    lambda d: "<?php\n" + "if ($a) {" * d + "$y = $a;" + "}" * d + "\n",
], ids=["parentheses", "concat-groups", "if-blocks"])
def test_a_seed_at_the_parsers_nesting_limit_matches_itself_once(nested):
    depth = _deepest(nested)
    unit = parse_source(nested(depth))
    t = derive_template(unit, unit.children_of(unit.nodes[unit.root]))
    matches, _ = scan_unit(compile_template(t), unit)
    assert [(m.stmt_list_id, m.start_index, m.line_start) for m in matches] == \
        [(unit.root, 0, 2)]
    assert agree(t, unit)


def test_oracle_agrees_on_random_pairs():
    rng = random.Random(1001)
    for _ in range(150):
        t, unit = random_pair(rng)
        assert agree(t, unit, depth_pruning=True)
        assert agree(t, unit, depth_pruning=False)


def test_oracle_agrees_under_the_arity_option():
    rng = random.Random(1002)
    for _ in range(60):
        t, unit = random_pair(rng)
        assert agree(t, unit, exact_arity=True)


_KINDS = (astree.ASSIGN, astree.CALL, astree.ECHO, astree.ARRAY_DIM,
          astree.ENCAPSED, astree.ARG_LIST, "BinOp:concat", "Other:custom",
          "YieldFrom", "Other:call")
_LEAF_KINDS = (astree.VAR, astree.NAME, astree.LITERAL, "Other:leaf")


def random_unit(rng: random.Random):
    """A structurally valid unit with arbitrary kinds, as an importer could
    produce; several StmtLists with multi-statement windows."""
    b = TreeBuilder()

    def subtree(depth: int) -> int:
        if depth >= rng.randint(2, 4) or rng.random() < 0.3:
            kind = rng.choice(_LEAF_KINDS)
            if kind in (astree.VAR, astree.NAME):
                return b.add(kind, symbol="$v%d" % rng.randrange(4))
            if kind == astree.LITERAL:
                return b.add(kind, value=str(rng.randrange(100)))
            return b.add(kind)
        if rng.random() < 0.15:
            kids = [statement(depth + 1) for _ in range(rng.randint(0, 3))]
            return b.add(astree.STMT_LIST, kids)
        kids = [subtree(depth + 1) for _ in range(rng.randint(0, 3))]
        return b.add(rng.choice(_KINDS), kids)

    def statement(depth: int) -> int:
        return subtree(depth)

    top = [statement(0) for _ in range(rng.randint(1, 6))]
    root = b.add(astree.STMT_LIST, top)
    return b.finish("<random-unit>", root)


def test_oracle_agrees_on_arbitrary_tree_shapes():
    # units built directly (any kind strings, any arity), not via the parser
    rng = random.Random(2002)
    agreements = 0
    for _ in range(120):
        unit = random_unit(rng)
        stmt_lists = [n for n in unit.stmt_lists() if n.children]
        if not stmt_lists:
            continue
        src = rng.choice(stmt_lists)
        start = rng.randrange(len(src.children))
        span = rng.randint(1, min(3, len(src.children) - start))
        stmts = [unit.nodes[c] for c in src.children[start:start + span]]
        t = derive_template(unit, stmts,
                            symbol_policy=rng.choice(("preserve", "wildcard")))
        p = compile_template(t)
        engine_ms, _ = scan_unit(p, unit)
        oracle_ms = brute_force_scan(t, unit)
        assert engine_ms == oracle_ms
        # the originating window itself is always found, wherever it nests
        assert any(m.stmt_list_id == src.id and m.start_index == start
                   for m in engine_ms)
        agreements += 1
        # cross-scan another random unit: mostly negative, still must agree
        other = random_unit(rng)
        cross_engine, _ = scan_unit(p, other)
        assert cross_engine == brute_force_scan(t, other)
    assert agreements >= 100


def test_oracle_sees_identical_bindings():
    rng = random.Random(1003)
    checked = 0
    for _ in range(80):
        t, unit = random_pair(rng)
        p = compile_template(t)
        engine_ms, _ = scan_unit(p, unit)
        oracle_ms = brute_force_scan(t, unit)
        for a, b in zip(engine_ms, oracle_ms):
            assert a.bindings == b.bindings
            checked += 1
    assert checked > 20, "suite generated too few positive matches to be meaningful"
