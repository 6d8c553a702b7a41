"""The parser's trees and errors are pinned to recorded digests.

Each case hashes the ast-v1 export of a parsed input (or the text of the
LexError/ParseError it raises) with sha256.  The digests were recorded with
the character-by-character lexer this parser replaced, so a change in any
token, node, line span or error message shows up here.  The expression-soup
digest was recorded with the chain of one function per precedence level that
the precedence-climbing parse_expr replaced.  The edge-cases-crlf digest was
re-recorded when `?>` began to swallow a following \r\n, not only a \n.
The malformed and expression-soup digests were re-recorded when a `)`, `]`
or `}` that starts a statement became an opaque statement: the 28 inputs
whose outcome changed (`<?php } $a = 1;` and 27 soup files) all raised
"unexpected ')'", "']'" or "'}'" before and parse now.  The edge-cases and
edge-cases-crlf digests were re-recorded when try/catch/finally, switch and
braced namespace bodies began to be parsed instead of skipped: the `switch`,
`try` and `namespace Baz { }` lines gained their case and body nodes, and no
other node changed.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from analogue import astree
from analogue.engine import anchor_index
from analogue.corpusgen import distinct_snippets, generate_test_corpus, scaled_file
from analogue.interchange import export_ast
from analogue.miner import parse_file
from analogue.php_parser import LexError, ParseError, parse_source

FIXTURES = Path(__file__).parent / "fixtures"

# Most constructs the parser knows, plus statements it has to recover from.
EDGE_CASES = r"""<html><?php
// line comment ?> back in html <?php
# hash comment
/* block
   comment */
$a = 1 + 2 * 3 ** 4 - -5 . "x" . 'y\'s';
$b .= $a ?? null;
$c = $a ? $b : ($a ?: $c);
$d = (int) $x + (string)$y - (Foo) $z;
$e = new Foo(...$args);
$f = $obj->prop->method($a, $b)[0]::CONST;
$g = $arr['k']["k2"][];
$h = function ($x) use ($y) { return $x + $y; };
$i = fn($x) => $x * 2;
$j = [1, 'a' => 2, [3]];
$k = array(1, 2 => 3,);
$l = "interp $var {$obj->p['x']} ${name} $arr[key] $arr[0] $arr[$i] $arr['q'] $obj->prop \$esc {$x";
$m = <<<EOT
  heredoc $var {$x['y']}
    two
  EOT;
$n = <<<'NOW'
nowdoc $var
NOW;
if ($a == 1): echo 1; elseif ($a): echo 2; else: echo 3; endif;
if ($a) { $b = 1; } else if ($c) { $b = 2; } elseif ($d) $b = 3; else $b = 4;
while ($x) { $x--; }
while ($y): $y++; endwhile;
foreach ($arr as $k => &$v) { print $v; }
foreach ($arr as $v): endforeach;
for ($i = 0, $j = 1; $i < 10; $i++) {}
for (;;);
switch ($x) { case 1: break; default: continue; }
do { $x++; } while ($x < 3);
try { x(); } catch (Exception $e) { y(); } finally { z(); }
function &foo($a = [1, 2]) { global $g, $h; return; }
abstract class A extends B implements C {
    const X = 1;
    use T { a as b; }
    public static $p = 2;
    public function m() { return $this->p; }
    abstract function n();
}
interface I { function f(); }
namespace Foo\Bar;
namespace Baz { }
use Foo\Baz;
include 'x.php';
require_once __DIR__ . '/y.php';
throw new \Foo\Bar\Exc("x");
$z = \strlen($x) instanceof Foo && !$q || ~$r;
$w = @$u and $v or $t xor $s;
$$v = ${'x'};
$vv = $$$w;
$x = 0x1F + 1e+5 + .5 + 1_000 + 07 + 1.5e3 + 0XaB;
$o = clone $p;
$s = Foo::$bar + Foo::{'baz'} + $o->{$name};
@unknown_stmt $x ;
$bad = $a->;
$q = $a <=> $b;
$r <<= 2; $s >>= 1; $t **= 2; $u ??= 3; $v %= 4; $w |= 5; $x &= 6; $y ^= 7;
$y = $a === $b !== $c <> $d != $e <= $f >= $g << $h >> $i;
echo $a, $b;
print("p");
return $x
?>
<p>html</p>
<?= $x ?>
<?php break 2; continue; unset($x) ;
"""

MALFORMED = [
    "<?php $a = 'open",
    '<?php $a = "open',
    "<?php /* open",
    "<?php $a = 1;\n  \n   `cmd`;",
    "<?php $a = <<<\n",
    "<?php $a = <<<EOT",
    "<?php $a = <<<EOT\nbody\n",
    "<?php $a = <<<'EOT\nx\nEOT;",
    "<?php { $a = 1;",
    "<?php $a = f(1, 2;",
    "<?php endif;",
    "<?php else { }",
    "<?php if ($a): $b = 1;",
    "<?php class A",
    "<?php class A { function f() {",
    "<?php function f(",
    "<?php switch ($a)",
    "<?php try { ",
    "<?php do { } until;",
    "<?php foreach ($a of $b) {}",
    "<?php $a = [1, 2",
    "<?php $a->;",
    "<?php } $a = 1;",
]

_SOUP_ATOMS = ["$a", "$b", "$_GET['q']", "1", "2.5", "'s'", '"x $a {$b[0]}"', "true",
               "null", "FOO", "Foo::$p", "\\strlen", "[1, 'k' => $a]"]
_SOUP_BINARY = ["=", ".=", "+=", "??=", "??", "or", "and", "xor", "instanceof", "**",
                ".", "+", "-", "*", "&&", "||", "==", "<", "&", "|"]
_SOUP_PREFIX = ["!", "@", "&", "(int)", "(string) ", "new ", "clone ", "print ", "++",
                "--", "-", "+", "~"]
_SOUP_POSTFIX = ["++", "--", "()", "[]", "->p", "::$q", "->m($a)"]


def _soup_expr(rng: random.Random, depth: int) -> list[str]:
    """Tokens of one random expression, nested at most `depth` deep."""
    if depth == 0 or rng.random() < 0.2:
        return [rng.choice(_SOUP_ATOMS)]
    sub = lambda: _soup_expr(rng, depth - 1)  # noqa: E731
    form = rng.randrange(8)
    if form < 3:
        return sub() + [rng.choice(_SOUP_BINARY)] + sub()
    if form == 3:
        return sub() + ["?"] + sub() + [":"] + sub()
    if form == 4:
        return sub() + ["?:"] + sub()
    if form == 5:
        return [rng.choice(_SOUP_PREFIX)] + sub()
    if form == 6:
        post = rng.choice(_SOUP_POSTFIX + ["[", "("])
        if post == "[":
            return sub() + ["["] + sub() + ["]"]
        if post == "(":
            return sub() + ["("] + sub() + [","] + sub() + [")"]
        return sub() + [post]
    return ["("] + sub() + [")"]


def expression_soup(rng: random.Random, count: int) -> list[str]:
    """`count` one-statement PHP files of random expressions.  One in ten
    loses a token, so that the parser's error texts are pinned too."""
    out = []
    for _ in range(count):
        toks = _soup_expr(rng, rng.randint(1, 6))
        if rng.random() < 0.1:
            del toks[rng.randrange(len(toks))]
        out.append("<?php\n" + "".join(t + rng.choice(" \n" if rng.random() < 0.1 else " ")
                                        for t in toks) + ";\n")
    return out


def _outcome(text: str | bytes, path: str) -> str:
    """The export of text's tree, or its error; bytes are read as `mine`
    reads a file."""
    try:
        unit = (parse_file(text, path)[0] if isinstance(text, bytes)
                else parse_source(text, path=path))
        return export_ast(unit)
    except (LexError, ParseError) as e:
        return "%s: %s\n" % (type(e).__name__, e)


def _sha(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def tree_digests(work_dir: Path) -> dict[str, str]:
    """sha256 of each case's exports; work_dir receives the generated corpus."""
    out = {name.name: _sha([_outcome(name.read_bytes(), name.name)])
           for name in sorted(FIXTURES.glob("*.php"))}
    seeds = distinct_snippets(random.Random(11), 6)
    generate_test_corpus(seeds, work_dir, repo_count=10, rng_seed=11)
    out["corpus"] = _sha([_outcome(p.read_bytes(), p.relative_to(work_dir).as_posix())
                          for p in sorted(work_dir.rglob("*.php"))])
    out["scaled"] = _sha([_outcome(scaled_file(random.Random(11), 600), "scaled.php")])
    out["edge-cases"] = _sha([_outcome(EDGE_CASES, "edge.php")])
    out["edge-cases-crlf"] = _sha([_outcome(EDGE_CASES.replace("\n", "\r\n"), "edge.php")])
    out["malformed"] = _sha([_outcome(t, "bad.php") for t in MALFORMED])
    out["expression-soup"] = _sha([_outcome(t, "soup.php")
                                   for t in expression_soup(random.Random(11), 4000)])
    return out


GOLDEN = {
    "clone_flights.php":
        "870a942ec62347ee644e834d2c238eea08dbd751e07e4f35695431c5ef7a9a27",
    "clone_products.php":
        "36abd00a257d080e38de1af5bb5d7573e68d44239b1598c1c7f039fc69ad9ae4",
    "clone_users.php":
        "a5770aa0f5e63e6a626c08bae7f87955903af07e379673c59c6861053617b7cc",
    "tutorial_books.php":
        "244d430129757a816b908db0b4513b47ea3e43184d9e6438aac7cc1f30eea4c1",
    "tutorial_search.php":
        "3b2b25f59612fc49484f80dfe147630378a29280857ba0dd76244d92da6215ef",
    "corpus":
        "568ff2e7f9db58d9c3e18250c98970eb7b38dad6da13bb2938ca46d5e0e707da",
    "scaled":
        "283db9e9b8f1eaba885527e74790d2712951c5f17f72c3a073e710726ff3098a",
    "edge-cases":
        "bc76eb848a2199b1e32b9b2c71201b7114f1f8ad31b7ec6e77388289c64c093b",
    "edge-cases-crlf":
        "3f2fe68eaadc200d4f2915acca8ea54d79640432028247533feb88b4dc7a4752",
    "malformed":
        "d98c919fe03100b0f7313452a61bab408ca7464a5b428eb58624383d5808b731",
    "expression-soup":
        "efc84767744009e1c02fe27a0d211a7e6e0bdd45e5181c02e6f3bd3860f66ea7",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    return tree_digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_parse_output_matches_recorded_digest(digests, case):
    assert digests[case] == GOLDEN[case]


def test_every_case_has_a_recorded_digest(digests):
    assert sorted(digests) == sorted(GOLDEN)


# Three frames per parenthesis (parse_expr, _parse_unary, _parse_primary):
# at the default recursion limit, the parser with one function per
# precedence level stopped at 140 parentheses and 123 concatenation groups,
# and the one with a fourth frame per operand (_parse_postfix) at 247 and
# 197 outside pytest; these depths were `too-deep` there.
@pytest.mark.parametrize("depth", [1, 280])
def test_nested_parentheses_parse(depth):
    unit = parse_source("<?php $x = " + "(" * depth + "$y" + ")" * depth + ";")
    assign = unit.nodes[unit.nodes[unit.root].children[0]]
    assert [unit.nodes[c].kind for c in assign.children] == [astree.VAR, astree.VAR]


# Each block construct nested to about 85% of the depth at which it ran into
# the default recursion limit, measured outside pytest, before statement
# dispatch, blocks and functions had one rule each: bare block 493, if 197,
# while with ':' 246, named function 246, closure 123, array literal 197,
# else-if chain 985 (parentheses: the test above).  The closure and array
# depths are past where one more frame per expression operand stopped them
# (123 and 197); under pytest they now stop at 136 and 238.  These depths
# parse both before and after; one more frame per nesting level makes one of
# them fail.
@pytest.mark.parametrize("head, opener, inner, closer, tail, depth, levels", [
    ("", "{", "$y = 1;", "}", "", 419, 1),
    ("", "if ($a) {", "$y = 1;", "}", "", 167, 2),
    ("", "while ($a):", "$y = 1;", "endwhile;", "", 209, 2),
    ("", "function f() {", "$y = 1;", "}", "", 209, 2),
    ("", "$f = function () {", "$y = 1;", "};", "", 128, 3),
    ("$x = ", "[", "1", "]", ";", 215, 1),
    ("if ($a) {}", " else if ($a) {}", "", "", "", 837, 2),
], ids=["block", "if", "while-colon", "function", "closure", "array", "else-if"])
def test_nested_blocks_parse(head, opener, inner, closer, tail, depth, levels):
    unit = parse_source("<?php " + head + opener * depth + inner + closer * depth + tail)
    # each nesting step adds `levels` tree levels (If > StmtList, Assign >
    # closure > StmtList, ...); the innermost statement's operands sit two
    # levels below the last step
    assert anchor_index(unit).max_depth == levels * depth + 2


@pytest.mark.parametrize("depth", [1, 215])
def test_nested_concatenations_parse(depth):
    unit = parse_source("<?php $x = " + "$a . (" * depth + "$y" + ")" * depth + ";")
    # StmtList > Assign > depth concatenations > the innermost Var
    assert anchor_index(unit).max_depth == depth + 2
