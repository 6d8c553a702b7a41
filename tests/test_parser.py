from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import php_text
from analogue import astree
from analogue.astree import TreeBuilder, validate_unit
from analogue.corpusgen import filler_file, plant_file, random_snippet
from analogue.php_parser import LexError, ParseError, parse_source, tokenize

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
    parents = unit.parent_map()

    def depth(node_id: int) -> int:
        d = 0
        while node_id != unit.root:
            node_id, d = parents[node_id], d + 1
        return d

    index = unit.anchor_index()
    assert [a[1] for a in index.anchors if a[0] == unit.root] \
        == [0] * len(unit.nodes[unit.root].children)
    assert index.max_depth == max(map(depth, unit.nodes))
    # literal leaves inside the interpolated query string sit >= 4 levels
    # below their statement node
    stmt = next(s for s in unit.children_of(unit.nodes[unit.root])
                if s.line_start == 6)
    encapsed = [n for n in unit.iter_preorder() if n.kind == astree.ENCAPSED][0]
    lits = [c for c in encapsed.children if unit.nodes[c].kind == astree.LITERAL]
    assert lits and all(depth(lit) - depth(stmt.id) >= 4 for lit in lits)


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
    assert index.anchors == [(n.id, oracle[n.id], start, len(n.children))
                             for n in stmt_lists for start in range(len(n.children))]
    assert index.max_depth == max(oracle.values())


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
        parse_source(data)
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
])
def test_closure_body_is_a_statement_list(closure):
    unit = parse_source("<?php $cb = %s { return $row + $total; };" % closure)
    node = kinds_path(unit, 0, 1)
    assert node.kind == "Other:closure"
    body = unit.children_of(node)[0]
    assert body.kind == astree.STMT_LIST
    assert [n.kind for n in unit.children_of(body)] == [astree.RETURN]
