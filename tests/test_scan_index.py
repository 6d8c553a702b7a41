"""The indexed scan against an exhaustive anchor loop, and the symbol prefilter.

scan_unit tries only the anchors listed under the kind of the program's first
KIND step; the miner skips units that lack one of a program's preserved
symbols.  Both must leave the matches, and their order, unchanged.  The anchor
index itself is checked against a walk that visits every node.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import php_text

from analogue import miner
from analogue.astree import STMT_LIST, AstNode, SourceUnit
from analogue.compiler import (KIND, compile_template, deserialize_program,
                               serialize_program)
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                plant_file, random_filler, random_snippet,
                                render_file, render_snippet, render_stmt)
from analogue.engine import (ComparisonCounter, ScanOptions, attach_excerpt,
                             match_at, match_to_record, scan_unit, source_lines)
from analogue.interchange import import_ast
from analogue.miner import (MinerOptions, discover_files, scan_repository,
                            write_mining_outputs)
from analogue.php_parser import LexError, ParseError, parse_source
from analogue.template import derive_template


def program_for(seed, symbol_policy):
    unit = parse_source(render_file(render_snippet(seed)))
    t = derive_template(unit, unit.children_of(unit.nodes[unit.root]),
                        symbol_policy=symbol_policy)
    return compile_template(t)


def exhaustive_scan(p, unit, opts):
    """Every StmtList x every start, in document order, through match_at."""
    matches = []
    for sl in unit.stmt_lists():
        for start in range(len(sl.children)):
            m = match_at(p, unit, sl.id, start, opts)
            if m is not None:
                matches.append(m)
    return matches


def planted_unit(seed, rng):
    """Filler around several plants of the seed, some nested one or two deep."""
    body = [render_stmt(random_filler(rng)) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, 4)):
        text, _ = plant_file(seed, rng.choice(("verbatim", "rename", "literal")),
                             rng, filler_before=rng.randint(0, 2),
                             filler_after=rng.randint(0, 2))
        lines = text.split("\n", 1)[1].splitlines()
        for _ in range(rng.choice((0, 0, 1, 2))):
            lines = (["%s ($g%d) {" % (rng.choice(("if", "while")), rng.randrange(99))]
                     + lines + ["}"])
        body.extend(lines)
    return parse_source(render_file(body))


OPTION_GRID = [ScanOptions(depth_pruning=d, exact_arity=e)
               for d, e in itertools.product((True, False), repeat=2)]


def test_indexed_scan_equals_exhaustive_loop():
    rng = random.Random(41)
    seen_matches = 0
    for _ in range(12):
        seed = random_snippet(rng)
        unit = planted_unit(seed, rng)
        target_seed = random_snippet(rng)
        other = planted_unit(target_seed, rng)
        for policy in ("preserve", "wildcard"):
            p = program_for(seed, policy)
            for u in (unit, other):
                for opts in OPTION_GRID:
                    got, _ = scan_unit(p, u, opts)
                    want = exhaustive_scan(p, u, opts)
                    assert got == want
                    seen_matches += len(got)
    assert seen_matches


def test_program_not_opening_with_kind_falls_back_to_every_anchor():
    seed = parse_source("<?php echo $a;")
    echo = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root])))
    assert echo.steps[0].op == KIND
    # Without its statement-root KIND step the program is still valid prog-v1
    # and matches any statement whose first child is a variable.
    loose = deserialize_program(serialize_program(
        dataclasses.replace(echo, steps=echo.steps[1:])))
    assert loose.steps[0].op != KIND
    unit = parse_source("<?php\necho $x;\nif ($c) {\n  return $y;\n}\nprint_it($z);\n")
    for opts in OPTION_GRID:
        got, _ = scan_unit(loose, unit, opts)
        assert got == exhaustive_scan(loose, unit, opts)
    got, _ = scan_unit(loose, unit)
    assert [unit.nodes[unit.nodes[m.stmt_list_id].children[m.start_index]].kind
            for m in got] == ["Echo", "If", "Return"]
    assert len(scan_unit(echo, unit)[0]) == 1


def test_mining_with_prefilter_equals_scanning_every_unit(tmp_path):
    rng = random.Random(43)
    seeds = distinct_snippets(rng, 4)
    generate_test_corpus(seeds, tmp_path, repo_count=4, rng_seed=5)
    programs = [program_for(s, policy) for s in seeds
                for policy in ("preserve", "wildcard")]
    opts = MinerOptions()
    skipped = 0
    for repo in sorted(d for d in tmp_path.iterdir() if d.is_dir()):
        result = scan_repository(repo, programs, opts)
        skipped += sum(s.units_skipped for s in result.stats)
        units = []
        for rel in discover_files(repo):
            text = (repo / rel).read_text(encoding="utf-8")
            units.append((parse_source(text, path="%s/%s" % (repo.name, rel)),
                          source_lines(text)))
        want = []
        for p in programs:
            for unit, lines in units:
                want.extend(attach_excerpt(m, lines) for m in scan_unit(p, unit)[0])
        assert ([match_to_record(m) for m in result.matches]
                == [match_to_record(m) for m in want])
    assert skipped > 0


def test_absent_callee_skips_every_unit(tmp_path):
    rng = random.Random(47)
    generate_test_corpus(distinct_snippets(rng, 3), tmp_path, repo_count=2,
                         rng_seed=7)
    seed = parse_source("<?php\n$a = $_POST['x'];\nnever_called_here(\"SELECT '$a'\");\n")
    p = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root]),
                                         symbol_policy="preserve"))
    results = [scan_repository(tmp_path / ("repo%03d" % r), [p]) for r in range(2)]
    for r in results:
        assert r.files_scanned == 3
        [s] = r.stats
        assert (s.units_skipped, s.candidates_tried, s.node_comparisons,
                s.match_count) == (3, 0, 0, 0)
    paths = write_mining_outputs(results, tmp_path / "out")
    records = [json.loads(line) for line in paths["stats"].read_text().splitlines()]
    assert [(rec["units_skipped"], rec["candidates_tried"]) for rec in records] \
        == [(3, 0), (3, 0)]


def full_walk_index(unit):
    """What anchor_index() must hold, from a pre-order walk that visits every
    node: (anchors, by_kind items in order, symbols, max_depth)."""
    anchors, by_kind, symbols, max_depth = [], {}, set(), 0
    stack = [(unit.root, 0)]
    while stack:
        node_id, depth = stack.pop()
        n = unit.nodes[node_id]
        symbols.add(n.symbol)
        max_depth = max(max_depth, depth)
        if n.kind == STMT_LIST:
            for start, c in enumerate(n.children):
                a = (node_id, depth, start, len(n.children))
                anchors.append(a)
                by_kind.setdefault(unit.nodes[c].kind, []).append(a)
        stack.extend((c, depth + 1) for c in reversed(n.children))
    return anchors, list(by_kind.items()), frozenset(symbols), max_depth


def assert_index_is_full_walk(unit):
    index = unit.anchor_index()
    assert (index.anchors, list(index.by_kind.items()), index.symbols,
            index.max_depth) == full_walk_index(unit)


def shuffled_import(unit, rng):
    """unit through ast-v1 with its ids permuted and its records shuffled, so
    that the ids are in no particular order."""
    ids = list(unit.nodes)
    new_id = dict(zip(ids, rng.sample(ids, len(ids))))
    records = []
    for n in unit.nodes.values():
        rec = {"id": new_id[n.id], "kind": n.kind,
               "children": [new_id[c] for c in n.children],
               "line": [n.line_start, n.line_end]}
        if n.symbol is not None:
            rec["symbol"] = n.symbol
        if n.value is not None:
            rec["value"] = n.value
        records.append(json.dumps(rec))
    rng.shuffle(records)
    header = json.dumps({"format": "ast-v1", "root": new_id[unit.root]})
    return import_ast("\n".join([header] + records) + "\n")


# Statements with empty StmtLists, closures inside expressions, inline HTML
# and leaves of every kind; bodies nest them in blocks, functions and closures.
STATEMENTS = [
    "$a = 1;", "echo $b, 'x', \"y$c\";", ";", "{}", "if ($a) {}", "while ($a);",
    "if ($a) { $b = f($c); } elseif ($d) {} else {}",
    "foreach ($xs as $k => $v) { $y[] = $v; }", "function h() {}",
    "$f = function ($x) use ($y) { return $x . $y; };",
    "g(fn ($x) => $x + 1, static function () {}, function () { $z = 2; });",
    "$q = [function () { $a = 1; }, 'k' => [1, [2]], fn () => [3]];",
    "class C { public function m() { $this->a = 1; } }",
    "?>\n<p>x</p><?php", "mysql_query(\"SELECT {$_GET['id']}\");",
    "try { $a = 1; } catch (E $e) {} finally { $b = 2; }", "$$a[0] = -$b ** 2;",
]
BLOCKS = ["if ($c) { %s }", "while ($c): %s endwhile;", "{ %s }",
          "$f = function () { %s };", "h(function () { %s }, 1);",
          "function k() { %s }", "$a = [fn () => function () { %s }];"]
php_body = st.recursive(
    st.lists(st.sampled_from(STATEMENTS), max_size=4).map(" ".join),
    lambda inner: st.tuples(st.sampled_from(BLOCKS), st.lists(inner, max_size=3))
    .map(lambda b: b[0] % " ".join(b[1])),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(php_body, st.randoms(use_true_random=False))
def test_anchor_index_equals_a_full_walk(body, rng):
    unit = parse_source("<?php " + body)
    assert_index_is_full_walk(unit)
    again = shuffled_import(unit, rng)
    assert_index_is_full_walk(again)
    assert again.anchor_index().max_depth == unit.anchor_index().max_depth


@settings(max_examples=300, deadline=None)
@given(php_text, st.randoms(use_true_random=False))
def test_anchor_index_equals_a_full_walk_on_odd_text(text, rng):
    try:
        unit = parse_source("<?php " + text)
    except (LexError, ParseError):
        return
    assert_index_is_full_walk(unit)
    assert_index_is_full_walk(shuffled_import(unit, rng))


def test_anchor_index_of_leaf_roots():
    empty = parse_source("<?php ")
    assert not empty.nodes[empty.root].children
    assert_index_is_full_walk(empty)
    assert empty.anchor_index().anchors == [] and empty.anchor_index().max_depth == 0
    leaf = SourceUnit(path="leaf", root=7, nodes={7: AstNode(7, "Var", symbol="$a")})
    assert_index_is_full_walk(leaf)
    assert leaf.anchor_index().symbols == {"$a"}


def test_unit_without_an_anchor_for_the_first_kind_returns_zero_counts(tmp_path,
                                                                        monkeypatch):
    """Every (program, unit) pair still goes through miner.scan_unit, whose
    early return gives the counts of trying no anchor at all."""
    seed = parse_source("<?php\n$a = $_GET['x'];\nmysql_query(\"SELECT '$a'\");\n")
    programs = [compile_template(derive_template(
        seed, seed.children_of(seed.nodes[seed.root]), symbol_policy=policy))
        for policy in ("preserve", "wildcard")]
    assert {p.compiled().first for p in programs} == {"Assign"}
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.php").write_text("<?php\necho mysql_query('q');\nif ($b) { f($b); }\n")
    calls = []

    def scan_unit_spy(p, unit, opts=None, real=miner.scan_unit):
        out = real(p, unit, opts)
        calls.append(out)
        return out

    monkeypatch.setattr(miner, "scan_unit", scan_unit_spy)
    result = scan_repository(repo, programs)
    assert calls == [([], ComparisonCounter(0, 0))] * 2
    assert [(s.units_skipped, s.candidates_tried, s.node_comparisons, s.match_count)
            for s in result.stats] == [(0, 0, 0, 0)] * 2
