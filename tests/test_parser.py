from __future__ import annotations

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import QUOTED_HOLES, php_text
from analogue import astree
from analogue.astree import TreeBuilder, validate_unit
from analogue.compiler import compile_template
from analogue.corpusgen import filler_file, plant_file, random_snippet
from analogue.engine import scan_unit
from analogue.interchange import export_ast
from analogue.miner import parse_file
from analogue.php_parser import LexError, ParseError, _Parser, parse_source, tokenize
from analogue.template import derive_template

FIXTURES = Path(__file__).parent / "fixtures"


def kinds_path(unit, *path):
    """Follow child indices from a top-level statement; return node."""
    node = unit.nodes[unit.root]
    for idx in path:
        node = unit.nodes[node.children[idx]]
    return node


def test_query_call_statement_shape(tutorial_books):
    unit, _ = tutorial_books
    # line 6: $result = mysql_query("...") is Assign(Var, Call(Name, ArgList(Encapsed)))
    stmt = next(s for s in unit.children_of(unit.nodes[unit.root])
                if s.line_start == 6)
    assert stmt.kind == astree.ASSIGN
    var, call = unit.children_of(stmt)
    assert (var.kind, var.symbol) == (astree.VAR, "$result")
    assert call.kind == astree.CALL
    name, args = unit.children_of(call)
    assert (name.kind, name.symbol) == (astree.NAME, "mysql_query")
    assert args.kind == astree.ARG_LIST
    encapsed = unit.children_of(args)[0]
    assert encapsed.kind == astree.ENCAPSED
    parts = unit.children_of(encapsed)
    assert [p.kind for p in parts] == [astree.LITERAL, astree.VAR, astree.LITERAL]
    assert parts[1].symbol == "$title"


def test_interpolated_string_keeps_variable_dataflow(tutorial_books):
    # "...'%$title%'..." must stay an Encapsed with a Var child, not one flat literal
    unit, _ = tutorial_books
    encapsed = [n for n in unit.iter_preorder() if n.kind == astree.ENCAPSED]
    assert any("$title" in [unit.nodes[c].symbol for c in e.children
                            if unit.nodes[c].kind == astree.VAR]
               for e in encapsed)


def test_superglobals_are_plain_var_nodes(tutorial_books):
    unit, _ = tutorial_books
    post = [n for n in unit.iter_preorder() if n.symbol == "$_POST"]
    assert post and all(n.kind == astree.VAR for n in post)


def test_empty_input():
    unit = parse_source("")
    assert unit.node_count == 1
    root = unit.nodes[unit.root]
    assert root.kind == astree.STMT_LIST
    assert root.children == ()


def test_thousand_assignments_against_emission_log():
    # independent oracle: count nodes straight off the generator's emission
    # log (one Assign + one Var + one literal RHS per statement, plus root)
    rng = random.Random(1234)
    log = []
    lines = []
    for i in range(1000):
        name = "v%d" % i
        value = rng.randrange(10_000)
        log.append((name, value))
        lines.append("$%s = %d;" % (name, value))
    expected_nodes = 1 + 3 * len(log)
    unit = parse_source("<?php\n" + "\n".join(lines) + "\n")
    assert unit.node_count == expected_nodes
    assert len(unit.nodes[unit.root].children) == len(log)


def test_depths_root_is_zero_and_literals_sit_deep(tutorial_books):
    unit, _ = tutorial_books
    parents = {c: n.id for n in unit.nodes.values() for c in n.children}

    def depth(node_id: int) -> int:
        d = 0
        while node_id != unit.root:
            node_id, d = parents[node_id], d + 1
        return d

    index = unit.anchor_index()
    assert [a[1] for anchors in index.by_kind.values() for a in anchors
            if a[0] == unit.root] == [0] * len(unit.nodes[unit.root].children)
    assert index.max_depth == max(map(depth, unit.nodes))
    # literal leaves inside the interpolated query string sit >= 4 levels
    # below their statement node
    stmt = next(s for s in unit.children_of(unit.nodes[unit.root])
                if s.line_start == 6)
    encapsed = [n for n in unit.iter_preorder() if n.kind == astree.ENCAPSED][0]
    lits = [c for c in encapsed.children if unit.nodes[c].kind == astree.LITERAL]
    assert lits and all(depth(lit) - depth(stmt.id) >= 4 for lit in lits)


def test_tree_builder_widens_a_node_to_its_children():
    b = TreeBuilder()
    leaf = b.add(astree.VAR, symbol="$a", line_start=3, line_end=4)
    later = b.add(astree.LITERAL, value="1", line_start=7, line_end=9)
    assert (b._nodes[leaf].line_start, b._nodes[leaf].line_end) == (3, 4)
    outside = b.add(astree.ASSIGN, [leaf, later], line_start=5, line_end=6)
    assert (b._nodes[outside].line_start, b._nodes[outside].line_end) == (3, 9)
    composite = b.add(astree.ARRAY_DIM, [later], line_end=8)
    assert (b._nodes[composite].line_start, b._nodes[composite].line_end) == (7, 9)
    owned = b.add(astree.STMT_LIST, [leaf], line_start=2, line_end=5)
    assert (b._nodes[owned].line_start, b._nodes[owned].line_end) == (2, 5)


def _random_tree_unit(rng: random.Random, n_nodes: int):
    b = TreeBuilder()
    root = b.add(astree.STMT_LIST, line_start=1, line_end=1)
    ids = [root]
    children: dict[int, list[int]] = {root: []}
    for _ in range(n_nodes - 1):
        parent = rng.choice(ids)
        kind = astree.STMT_LIST if rng.random() < 0.3 else "Other:n"
        node = b.add(kind, line_start=1, line_end=1)
        children[parent].append(node)
        children[node] = []
        ids.append(node)
    for node_id, kids in children.items():
        b._nodes[node_id].children = tuple(kids)
    return b.finish("<random>", root)


def test_depths_match_recursive_oracle():
    rng = random.Random(99)
    unit = _random_tree_unit(rng, 10_000)

    # independent recursion (the index walks an explicit stack)
    oracle: dict[int, int] = {}

    def walk(node_id: int, depth: int) -> None:
        oracle[node_id] = depth
        for c in unit.nodes[node_id].children:
            walk(c, depth + 1)

    walk(unit.root, 0)
    index = unit.anchor_index()
    stmt_lists = [n for n in unit.iter_preorder()
                  if n.kind == astree.STMT_LIST and n.children]
    anchors = [(n.id, oracle[n.id], start, len(n.children))
               for n in stmt_lists for start in range(len(n.children))]

    def kind_at(a):
        return unit.nodes[unit.nodes[a[0]].children[a[2]]].kind

    # every anchor in exactly one list, its statement's kind's, in document order
    assert index.by_kind == {k: [a for a in anchors if kind_at(a) == k]
                             for k in map(kind_at, anchors)}
    assert index.max_depth == max(oracle.values())


def tree_text(unit, node_id: int) -> str:
    """A node and its subtree: kind, symbol or value, line span, children."""
    n = unit.nodes[node_id]
    text = " ".join(filter(None, (n.kind, n.symbol, None if n.value is None
                                  else repr(n.value), "%d-%d" % (n.line_start, n.line_end))))
    if n.children:
        text += " (%s)" % ", ".join(tree_text(unit, c) for c in n.children)
    return text


# print is read by one rule, as an operator at the loosest level, in
# statement position too; these are the trees it gave as a statement keyword.
@pytest.mark.parametrize("text,tree", [
    ("<?php print $a;", "StmtList 1-1 (Other:print 1-1 (Var $a 1-1))"),
    ("<?php print $a or die();",
     "StmtList 1-1 (Other:print 1-1 (BinOp:or 1-1 (Var $a 1-1, "
     "Call 1-1 (Name die 1-1, ArgList 1-1))))"),
    ("<?php print($x) ;", "StmtList 1-1 (Other:print 1-1 (Var $x 1-1))"),
    ("<?php print;", "StmtList 1-1 (Other:opaque 1-1)"),
    ("<?php print $a, $b;", "StmtList 1-1 (Other:opaque 1-1)"),
    ("<?php if ($x) print 'a'; else print 'b';",
     "StmtList 1-1 (If 1-1 (Var $x 1-1, StmtList 1-1 (Other:print 1-1 (Literal 'a' 1-1)), "
     "StmtList 1-1 (Other:print 1-1 (Literal 'b' 1-1))))"),
    ("<?php PRINT $a = 1;",
     "StmtList 1-1 (Other:print 1-1 (Assign 1-1 (Var $a 1-1, Literal '1' 1-1)))"),
    ("<?php $b = print $c;",
     "StmtList 1-1 (Assign 1-1 (Var $b 1-1, Other:print 1-1 (Var $c 1-1)))"),
    ("<?php print $a ?>", "StmtList 1-1 (Other:print 1-1 (Var $a 1-1))"),
    ("<?php print $a ?>tail", "StmtList 1-1 (Other:print 1-1 (Var $a 1-1), Html 1-1)"),
    ("<?php print\n  $a\n  . $b\n;",
     "StmtList 1-4 (Other:print 1-4 (BinOp:concat 2-3 (Var $a 2-2, Var $b 3-3)))"),
    ("<?php print $a;\nprint\n$b;",
     "StmtList 1-3 (Other:print 1-1 (Var $a 1-1), Other:print 2-3 (Var $b 3-3))"),
    ("<?php\nprint 1 +\n2\n?>x",
     "StmtList 1-4 (Other:print 2-3 (BinOp:+ 2-3 (Literal '1' 2-2, Literal '2' 3-3)), "
     "Html 4-4)"),
])
def test_print_trees(text, tree):
    unit = parse_source(text)
    assert tree_text(unit, unit.root) == tree


def test_parent_spans_contain_child_spans_over_generated_corpus():
    rng = random.Random(5)
    for i in range(25):
        if i % 3 == 0:
            text = filler_file(rng, n_statements=8)
        else:
            text, _ = plant_file(random_snippet(rng), "verbatim", rng)
        unit = parse_source(text)
        validate_unit(unit)  # includes span containment and tree shape


def test_fixture_units_validate(tutorial_books, tutorial_search, clone_units):
    for unit, _ in [tutorial_books, tutorial_search, *clone_units.values()]:
        validate_unit(unit)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_crashes_on_arbitrary_text(text):
    try:
        unit = parse_source("<?php " + text)
        validate_unit(unit)
    except (LexError, ParseError) as e:
        assert e.line >= 1


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["", "<?php ", "<p>\n<?php\n"]), php_text)
def test_parser_raises_only_its_own_errors_on_php_like_text(prefix, text):
    try:
        validate_unit(parse_source(prefix + text))
    except (LexError, ParseError, RecursionError):
        pass


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=200))
def test_parser_accepts_arbitrary_bytes(data):
    try:
        parse_file(data, "<memory>")
    except (LexError, ParseError) as e:
        assert e.line >= 1


def test_lex_error_carries_line_number():
    with pytest.raises(LexError) as exc:
        parse_source("<?php\n\n$a = 'oops")
    assert exc.value.line == 3


def test_unbalanced_delimiters_rejected():
    with pytest.raises(ParseError):
        parse_source("<?php foo(((( ;")


def test_malformed_statement_becomes_opaque_node():
    unit = parse_source("<?php $a = 1 + ; echo 2;")
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    assert kinds == ["Other:opaque", astree.ECHO]


def top_level(unit):
    return [(n.kind, n.line_start, n.line_end) for n in unit.children_of(unit.nodes[unit.root])]


def test_stray_closer_at_statement_start_is_an_opaque_statement():
    unit = parse_source("<?php\n$a = 1;\n@unknown_stmt ) ;\n$x = $_GET['a'];\n"
                        "mysql_query($x);\n", path="stray.php")
    assert top_level(unit) == [(astree.ASSIGN, 2, 2), ("Other:opaque", 3, 3),
                               ("Other:opaque", 3, 3), (astree.ASSIGN, 4, 4),
                               (astree.CALL, 5, 5)]
    seed = parse_source("<?php\n$x = $_GET['a'];\nmysql_query($x);\n")
    p = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root])))
    matches, _ = scan_unit(p, unit)
    assert [(m.line_start, m.line_end) for m in matches] == [(4, 5)]
    for closer in ")]}":
        assert top_level(parse_source("<?php %s $b = 2;" % closer)) == \
            [("Other:opaque", 1, 1), (astree.ASSIGN, 1, 1)]
    with pytest.raises(ParseError):  # an unclosed block still fails the file
        parse_source("<?php\nif ($x) {\n  echo 'open';\n")


def test_block_heads_that_lack_their_brace_are_malformed_statements():
    """PHP puts '{' right after try, catch (...) and finally, and a class
    header ends at '{': the statement fails there, not at a later '{'."""
    unit = parse_source("<?php\ntry $a = 1;\n$b = 2;\ntry {} catch (E $e) $x = 1;\n"
                        "try {} finally $y = 1;\nclass A extends B;\n"
                        "class C extends D }\nswitch ($a) $z = 1;\nfunction f() }\n"
                        "try { $c = 3; } catch (E $e) {} finally {}\n")
    assert top_level(unit) == [
        ("Other:opaque", 2, 2), (astree.ASSIGN, 3, 3), ("Other:opaque", 4, 4),
        ("Other:opaque", 5, 5), ("Other:opaque", 6, 6), ("Other:opaque", 7, 7),
        ("Other:opaque", 7, 7), ("Other:opaque", 8, 8), ("Other:opaque", 9, 9),
        ("Other:opaque", 9, 9), ("Other:try", 10, 10)]


# Each of these, repeated to 16,000 lines, parses in time linear in its
# length.  A scan that searched past its statement for a '{' or an
# 'endswitch' re-read the rest of the file at each repeat: 2,000 lines of
# each took 2 to 7 s that way.
@pytest.mark.parametrize("line", [
    "try $a = 1;\n", "try {} catch (E $e) $x = 1;\n", "try {} finally $x = 1;\n",
    "class A extends B;\n", "class A extends B }\n", "switch ($a) $b = 1;\n",
    "function f() }\n", "switch ($a): $b = 1;\n",
])
def test_malformed_block_heads_parse_in_linear_time(line):
    t0 = time.perf_counter()
    unit = parse_source("<?php\n" + line * 16000)
    assert time.perf_counter() - t0 < 2.0
    assert {n.kind for n in unit.children_of(unit.nodes[unit.root])} == {"Other:opaque"}


# Each of these strings parses in time linear in its length.  A reader that
# searched from each "{$" or "${" to the string's end for its "}" took 70.8 s
# on the first and minutes on the second; one that searched from each "$a["
# for its "]" took 5.6 s on the first of the [key] strings.
@pytest.mark.parametrize("text", [
    pytest.param('$x = "%s";' % ("{$a " * 16000), id="one string of {$a holes"),
    pytest.param('$x = "%s";' % ("${a " * 16000), id="one string of ${a holes"),
    pytest.param('$x = "{$a";\n' * 16000, id="one {$a string per line"),
    pytest.param('$x = "{$a"; ' * 16000, id="{$a strings on one line"),
    pytest.param("$x = '{$a \"'; $y = \"{$b\"; " * 16000, id="quotes after {$ on one line"),
    pytest.param('$x = "%s";' % ("$a['k " * 16000), id="one string of unclosed 'k keys"),
    pytest.param('$x = "%s";' % ("$a[-k " * 16000), id="one string of unclosed -k keys"),
    pytest.param('$x = "%s";' % ("$a[$k " * 16000), id="one string of unclosed $k keys"),
    pytest.param('$x = "%s";' % ("{$a['k\n" * 16000), id="one string of {$a['k lines"),
    pytest.param('$x = "%s]";' % ("$a['k " * 16000), id="'k keys that one ] ends"),
])
def test_unclosed_string_holes_parse_in_linear_time(text):
    t0 = time.perf_counter()
    unit = parse_source("<?php\n" + text)
    assert time.perf_counter() - t0 < 2.0
    assert {n.kind for n in unit.children_of(unit.nodes[unit.root])} == {astree.ASSIGN}


@pytest.mark.parametrize("body, hole", [
    ('{$a["k"]}', True), ("{$o->{'p'}}", True), ('${a["k"]}', True),
    ('{$a["{$b["{$c}"]}"]}', True),
    ("{$a{{}}}", True), ("{$a{{{}}}}", False),  # braces nested three deep
    ("{$a['k\n']}", False), ('{$a["k\n"]}', False),  # a string ends on its line
    ("{$a['k']", False), ("${a", False),
])
def test_a_hole_is_code_up_to_the_brace_that_closes_it(body, hole):
    unit = parse_source("<?php $q = <<<EOT\nx %s y $z\nEOT;\n" % body)
    encapsed = kinds_path(unit, 0, 1)
    assert encapsed.kind == astree.ENCAPSED
    assert (unit.children_of(encapsed)[0].value == "x ") == hole


def test_static_closures_are_closures_and_static_names_are_not():
    unit = parse_source("<?php $f = static fn ($x) => $x + $y; static::make($a);"
                        " static $n = 0; $g = static  FUNCTION () {};")
    closure = kinds_path(unit, 0, 1)
    assert closure.kind == "Other:closure"
    assert [n.kind for n in unit.children_of(closure)] == [astree.binop("+")]
    call = kinds_path(unit, 1)
    assert call.kind == "Other:call"
    assert [(n.kind, n.symbol) for n in unit.children_of(kinds_path(unit, 1, 0))] \
        == [(astree.NAME, "static"), (astree.NAME, "make")]
    assert kinds_path(unit, 2).kind == "Other:opaque"
    assert kinds_path(unit, 3, 1).kind == "Other:closure"


def test_alternative_switch_ends_at_its_own_endswitch():
    unit = parse_source("<?php\nswitch ($a):\ncase 1: echo 1; break;\nendswitch;\n"
                        "$x = $_GET['a'];\nif ($b) { mysql_query($x); }\n")
    assert top_level(unit) == [("Other:switch", 2, 4), (astree.ASSIGN, 5, 5),
                               (astree.IF, 6, 6)]
    # a nested ':' switch needs its own endswitch; a braced one and a method
    # named switch do not
    unit = parse_source("<?php\nswitch ($a):\ncase 1:\n  switch ($b): default: endswitch;\n"
                        "  switch ($c) { default: break; }\n  $d ? $o->switch($e) : 0;\n"
                        "endswitch\n?>\n<?php $x = 1;\n")
    assert top_level(unit) == [("Other:switch", 2, 7), (astree.ASSIGN, 9, 9)]
    # without the outer endswitch, the switch is a malformed statement
    unit = parse_source("<?php\nswitch ($a):\ncase 1: switch ($b):\nendswitch;\n")
    assert top_level(unit) == [("Other:opaque", 2, 4)]


def shape(unit, node):
    """(kind, first line, last line, children's shapes) of node."""
    return (node.kind, node.line_start, node.line_end,
            [shape(unit, c) for c in unit.children_of(node)])


def test_switch_try_and_namespace_bodies_are_statement_lists():
    unit = parse_source("<?php\nswitch ($a) {\n  case 1:\n    $b = 1;\n    break;\n"
                        "  default:\n}\nswitch ($a): ?>\n<?php case 'x': echo 1; endswitch;\n"
                        "try { $c = 1; }\ncatch (E $e) { $d = 1; }\nfinally { $f = 1; }\n"
                        "namespace N {\n  $g = 1;\n}\nnamespace M;\n"
                        "namespace\\foo($_GET['id']);\n"
                        "declare(strict_types=1) { $h = 1; }\n"
                        "declare(ticks=1):\n  $i = 1;\nenddeclare;\n"
                        "declare(strict_types=1);\n")
    validate_unit(unit)
    assign = lambda line: (astree.ASSIGN, line, line, [  # noqa: E731
        (astree.VAR, line, line, []), (astree.LITERAL, line, line, [])])
    assert [shape(unit, n) for n in unit.children_of(unit.nodes[unit.root])] == [
        ("Other:switch", 2, 7, [
            (astree.VAR, 2, 2, []),
            ("Other:case", 3, 5, [(astree.LITERAL, 3, 3, []), (astree.STMT_LIST, 3, 5, [
                assign(4), ("Other:break", 5, 5, [])])]),
            ("Other:case", 6, 6, [(astree.STMT_LIST, 6, 6, [])])]),
        # the '?>' and '<?php' before the first case are skipped
        ("Other:switch", 8, 9, [
            (astree.VAR, 8, 8, []),
            ("Other:case", 9, 9, [(astree.LITERAL, 9, 9, []), (astree.STMT_LIST, 9, 9, [
                (astree.ECHO, 9, 9, [(astree.LITERAL, 9, 9, [])])])])]),
        ("Other:try", 10, 12, [(astree.STMT_LIST, line, line, [assign(line)])
                               for line in (10, 11, 12)]),
        ("Other:namespace", 13, 15, [(astree.STMT_LIST, 13, 15, [assign(14)])]),
        ("Other:namespace", 16, 16, []),
        # a namespace-relative name is no namespace declaration
        (astree.CALL, 17, 17, [(astree.NAME, 17, 17, []), (astree.ARG_LIST, 17, 17, [
            (astree.ARRAY_DIM, 17, 17, [(astree.VAR, 17, 17, []),
                                        (astree.LITERAL, 17, 17, [])])])]),
        ("Other:declare", 18, 18, [(astree.STMT_LIST, 18, 18, [assign(18)])]),
        ("Other:declare", 19, 21, [(astree.STMT_LIST, 19, 21, [assign(20)])]),
        ("Other:declare", 22, 22, [])]
    assert kinds_path(unit, 5, 0).symbol == "namespace\\foo"


def test_a_case_outside_its_switch_or_text_before_the_first_case_is_malformed():
    unit = parse_source("<?php\nswitch ($a) { $b = 1; case 1: }\n$c = 2;\n"
                        "switch ($a): ?>text<?php case 1: endswitch;\ncase 2: $d = 3;\n")
    # recovery reads a failed switch to the first ';' after its braces, or
    # up to a '?>'; a stray case is no statement
    assert top_level(unit) == [("Other:opaque", 2, 3), ("Other:opaque", 4, 4),
                               (astree.HTML, 4, 4), ("Other:opaque", 4, 4),
                               ("Other:opaque", 5, 5)]


def _tree_or_error(text: str) -> str:
    try:
        return export_ast(parse_source(text))
    except ParseError as e:
        return "ParseError at line %d" % e.line


# Heads of every block that nests statements, in both syntaxes, with what
# closes them.  Unclosed, n ':' heads re-parsed each other in time
# exponential in n before parse_statements_until kept its failure memo, so
# the property below keeps its texts to 14 pieces.
_BLOCK_PIECES = ["if ($a):", "if ($a) {", "while ($a):", "while ($a) {",
                 "foreach ($a as $b):", "foreach ($a as $b) {", "for (;;):", "for (;;) {",
                 "switch ($a):", "switch ($a) {", "case 1:", "default:", "endif;",
                 "endwhile;", "endforeach;", "endfor;", "endswitch;", "}", "$b = 1;"]


class _Forgetful(set):
    """A failure memo that keeps nothing: every statement is parsed afresh."""

    def add(self, item):
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BLOCK_PIECES), max_size=14))
def test_failure_memo_does_not_change_the_tree(pieces):
    """A statement that failed once from a position is recovered at once
    from then on; the tree must equal the one parsed with the memo emptied
    before each statement."""
    text = "<?php\n" + " ".join(pieces)
    memoised = _tree_or_error(text)
    init = _Parser.__init__

    def unmemoised(self, toks, builder):
        init(self, toks, builder)
        self.failed_starts = _Forgetful()

    _Parser.__init__ = unmemoised
    try:
        assert _tree_or_error(text) == memoised
    finally:
        _Parser.__init__ = init


# k unclosed ':' heads still re-read what follows them k times, so these are
# pinned at 200 lines, not 16,000; without the failure memo, 22 lines of
# each of the first four took 38 to 54 s on a 2-vCPU host.
@pytest.mark.parametrize("line", [
    "if ($a): $b = 1;\n", "while ($a): $b = 1;\n", "foreach ($a as $b): $b = 1;\n",
    "for (;;): $b = 1;\n", "switch ($a): $b = 1;\n",
])
def test_unterminated_alternative_blocks_parse_in_bounded_time(line):
    t0 = time.perf_counter()
    unit = parse_source("<?php\n" + line * 200)
    assert time.perf_counter() - t0 < 2.0
    validate_unit(unit)
    assert {n.kind for n in unit.children_of(unit.nodes[unit.root])} == {"Other:opaque"}


def test_html_outside_php_becomes_statements():
    unit = parse_source("<b>x</b><?php echo 1; ?>trailer")
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    assert kinds == [astree.HTML, astree.ECHO, astree.HTML]


def test_short_echo_tag():
    unit = parse_source("<?= $x ?>")
    stmt = unit.children_of(unit.nodes[unit.root])[0]
    assert stmt.kind == astree.ECHO


def test_control_flow_subset(tutorial_search):
    unit, _ = tutorial_search
    top = [n.kind for n in unit.children_of(unit.nodes[unit.root])]
    assert top == [astree.ASSIGN, astree.CALL, astree.ASSIGN, astree.ASSIGN,
                   astree.WHILE, astree.CALL]
    loop = next(n for n in unit.children_of(unit.nodes[unit.root])
                if n.kind == astree.WHILE)
    cond, body = unit.children_of(loop)
    assert cond.kind == astree.ASSIGN
    assert body.kind == astree.STMT_LIST
    assert len(body.children) == 3


def test_multiline_string_spans(tutorial_search):
    unit, _ = tutorial_search
    stmt = next(s for s in unit.children_of(unit.nodes[unit.root])
                if s.line_start == 5)
    assert (stmt.line_start, stmt.line_end) == (5, 6)


def test_close_tag_inside_line_comment_ends_php_region():
    # PHP quirk: ?> terminates the region even inside a // comment
    unit = parse_source("<?php echo 1; // trailing ?><b>markup</b>")
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    assert kinds == [astree.ECHO, astree.HTML]


def test_crlf_input_keeps_line_numbers():
    unit = parse_source("<?php\r\n$a = 1;\r\n$b = 2;\r\n")
    stmts = unit.children_of(unit.nodes[unit.root])
    assert [s.line_start for s in stmts] == [2, 3]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.php")))
def test_crlf_copy_has_the_node_kinds_and_spans_of_the_lf_copy(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")

    def shape(src):
        return [(n.kind, n.line_start, n.line_end)
                for n in parse_source(src).iter_preorder()]

    assert shape(text.replace("\n", "\r\n")) == shape(text)


@pytest.mark.parametrize("end, html, line", [
    ("\r\n", "<b>", 2), ("\n", "<b>", 2), ("\r", "<b>", 1),
    ("\n\r\n", "\r\n<b>", 2), (" \n", " \n<b>", 1)])
def test_close_tag_swallows_one_line_end(end, html, line):
    toks = tokenize("<?php echo 1; ?>" + end + "<b>")
    assert toks[-1][:3] == ("html", html, line)


def test_kitchen_sink_subset_parses_and_validates():
    unit = parse_source("""<?php
$items = array('a' => 1, 'b' => 2);
$short = ['x', 'y' => $items];
$n = (int)$_GET['n'];
$total = 0;
for ($i = 0; $i < $n; $i++) {
    $total += $i;
}
foreach ($items as $key => $value):
    echo "$key=$value\\n";
endforeach;
$cb = function ($row) use ($total) { return $row + $total; };
switch ($n) { case 1: echo 'one'; break; default: echo 'many'; }
do { $n--; } while ($n > 0 && !$stop);
$obj->method($a, $b)->chained;
Widget::create($cfg);
$s = $flag ? 'yes' : 'no';
$t = $maybe ?: 'fallback';
include 'lib.php';
global $registry;
$sql = <<<QUERY
SELECT * FROM t WHERE name = '$s'
QUERY;
@unlink('/tmp/x');
print "done\\n";
""")
    validate_unit(unit)
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    # every construct lands somewhere sensible; nothing fell to opaque recovery
    assert "Other:opaque" not in kinds
    assert kinds.count(astree.ASSIGN) >= 6
    assert "Other:for" in kinds and astree.FOREACH in kinds
    assert "Other:switch" in kinds and "Other:do" in kinds
    assert "Other:include" in kinds and "Other:global" in kinds
    assert "Other:print" in kinds
    # the heredoc interpolates: its Encapsed carries the $s variable
    heredoc_assign = [unit.nodes[c] for c in unit.nodes[unit.root].children
                      if unit.nodes[c].kind == astree.ASSIGN][-1]
    sub_kinds = {unit.nodes[nid].kind
                 for nid in _preorder_ids(unit, heredoc_assign.id)}
    assert astree.ENCAPSED in sub_kinds


def _preorder_ids(unit, nid):
    yield nid
    for c in unit.nodes[nid].children:
        yield from _preorder_ids(unit, c)


def test_augmented_assignment_ops_carry_distinct_tags():
    unit = parse_source("<?php $a .= 'x'; $a += 1;")
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    assert kinds == ["AugAssign:.=", "AugAssign:+="]


def test_classes_and_functions_become_tagged_other_nodes():
    unit = parse_source("""<?php
class Foo extends Bar {
    public function run($x) { echo $x; }
}
function helper() { return 1; }
$a = 1;
""")
    kinds = [unit.nodes[c].kind for c in unit.nodes[unit.root].children]
    assert kinds == ["Other:class", "Other:function", astree.ASSIGN]
    cls = unit.children_of(unit.nodes[unit.root])[0]
    method = unit.children_of(cls)[0]
    assert method.kind == "Other:function"
    body = unit.children_of(method)[0]
    assert body.kind == astree.STMT_LIST
    assert unit.nodes[body.children[0]].kind == astree.ECHO


def test_property_hooks_do_not_end_the_class_body():
    unit = parse_source("""<?php
class User {
    public string $name { get => $this->n; set { $this->n = $value; } }
}
$x = $_GET['a']; mysql_query($x);
""")
    root = unit.nodes[unit.root]
    assert [(n.kind, n.line_start, n.line_end) for n in unit.children_of(root)] \
        == [("Other:class", 2, 4), (astree.ASSIGN, 5, 5), (astree.CALL, 5, 5)]
    # both statements are scan positions of the top-level StmtList
    index = unit.anchor_index()
    assert [index.by_kind[k] for k in (astree.ASSIGN, astree.CALL)] \
        == [[(unit.root, 0, 1, 3)], [(unit.root, 0, 2, 3)]]


@pytest.mark.parametrize("closure", [
    "function ($row) use ($total)",
    "function &($row) use (&$total): array",   # returns by reference
    "static function ($row) use ($total): int",
])
def test_closure_body_is_a_statement_list(closure):
    unit = parse_source("<?php $cb = %s { return $row + $total; };" % closure)
    node = kinds_path(unit, 0, 1)
    assert node.kind == "Other:closure"
    body = unit.children_of(node)[0]
    assert body.kind == astree.STMT_LIST
    assert [n.kind for n in unit.children_of(body)] == [astree.RETURN]


@pytest.mark.parametrize("text, tree", [
    ('<?php $a = [...$b, $_GET["id"]];',
     "StmtList 1-1 (Assign 1-1 (Var $a 1-1, Other:array 1-1 (Other:spread 1-1 (Var $b 1-1), "
     "ArrayDim 1-1 (Var $_GET 1-1, Literal 'id' 1-1))))"),
    ("<?php $f = fn(int $x): ?int => $x * 2;",
     "StmtList 1-1 (Assign 1-1 (Var $f 1-1, Other:closure 1-1 (BinOp:* 1-1 (Var $x 1-1, "
     "Literal '2' 1-1))))"),
    ("<?php $f = static fn(): int => 1;",
     "StmtList 1-1 (Assign 1-1 (Var $f 1-1, Other:closure 1-1 (Literal '1' 1-1)))"),
    ("<?php foreach ($a as &$v) {}",
     "StmtList 1-1 (Foreach 1-1 (Var $a 1-1, Var $v 1-1, StmtList 1-1))"),
])
def test_array_unpacking_typed_arrow_functions_and_foreach_references(text, tree):
    unit = parse_source(text)
    assert tree_text(unit, unit.root) == tree


@pytest.mark.parametrize("text", [
    "<?php $a = [1 2];", "<?php $a = array(1 2);", "<?php f(1 2);",
    "<?php $a = [1, , 2];", "<?php $a = [,];", "<?php $f = fn($x) $x;",
    "<?php $f = fn($x): int { return $x; };",
])
def test_a_list_without_its_commas_or_an_arrow_without_its_arrow_is_malformed(text):
    assert top_level(parse_source(text)) == [("Other:opaque", 1, 1)]


def _list_shape(opener: str, items: list[str], separators: list[str]):
    """What `$x = <opener>items<closer>;` parses to: the subtrees of the
    list's items when the statement is that assignment, else the kinds and
    spans of the top-level statements, or the error."""
    closer = "]" if opener == "[" else ")"
    body = "".join(item + sep for item, sep in zip(items, separators))
    try:
        unit = parse_source("<?php\n$x = %s%s%s;\n" % (opener, body, closer))
    except (LexError, ParseError) as e:
        return type(e).__name__
    first = unit.children_of(unit.nodes[unit.root])[0]
    if first.kind == astree.ASSIGN:
        value = unit.nodes[first.children[1]]
        if opener == "array(" and value.kind == astree.CALL:
            value = unit.nodes[value.children[1]]
        if value.kind in (astree.ARG_LIST, "Other:array"):
            return [tree_text(unit, c) for c in value.children]
    return top_level(unit)


# Items of both lists: mostly expressions, nested lists and strings with
# holes, and sometimes genutil's PHP pieces without brackets, whose quotes,
# comments, tags and stray operators end most statements as malformed ones.
# Most separators are commas.
_EXPRS = st.sampled_from(["$a", "1", "-2", "'k'", "$_GET['id']", "f($b)", "[1, 2]",
                          "array(3 => $c)", "[...$d]", '"x $a"', "$o->p", "fn() => 1"]
                         + ['"%s"' % h for h in QUOTED_HOLES])
_ITEM_PART = st.one_of(_EXPRS, _EXPRS, _EXPRS,
                       php_text.filter(lambda s: not set(s) & set("()[]{}")))
_ITEMS = st.lists(st.one_of(_ITEM_PART, _ITEM_PART.map("...".__add__),
                            st.tuples(_ITEM_PART, _ITEM_PART).map(" => ".join)),
                  max_size=6)
_SEPARATORS = st.lists(st.sampled_from([",", ", ", ",\n"] * 6 + ["\n", " "]), min_size=6)


@settings(max_examples=500, deadline=None)
@given(_ITEMS, _SEPARATORS)
def test_array_call_and_bracket_literal_read_their_items_by_one_rule(items, separators):
    """array(...) and [...] hold the same item subtrees, spans included;
    where a comma is missing, both are malformed or neither is.  The last
    item takes a trailing comma or nothing."""
    separators[len(items) - 1:] = ["," if separators[-1].startswith(",") else ""]
    assert _list_shape("array(", items, separators) == _list_shape("[", items, separators)


def test_a_bracket_list_holds_what_the_array_call_holds():
    items = ["...$a", "'k' => [1,\n2]", "$_GET['id']"]
    shape = _list_shape("[", items, [", ", ",\n", ","])
    assert shape == _list_shape("array(", items, [", ", ",\n", ","])
    assert shape == ["Other:spread 2-2 (Var $a 2-2)",
                     "Other:kv 2-3 (Literal 'k' 2-2, Other:array 2-3 (Literal '1' 2-2, "
                     "Literal '2' 3-3))",
                     "ArrayDim 4-4 (Var $_GET 4-4, Literal 'id' 4-4)"]
