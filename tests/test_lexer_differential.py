"""php_parser's master-regex lexer against the character-by-character oracle."""
from __future__ import annotations

import re
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_lexer
from genutil import php_text
from analogue.php_parser import _DIGIT, LexError, lex_fragment, tokenize


def _outcome(lex, *args):
    try:
        return lex(*args)  # (type, value, line, line_end, heredoc) tuples
    except LexError as e:
        return ("LexError", str(e), e.line)


def assert_same_tokens(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(reference_lexer.tokenize, text)


@settings(max_examples=1500, deadline=None)
@given(php_text)
@example('$q = "{$a["k"]}";')
@example("$q = \"{$a['k']}\";")
@example('$q = "{$a["{$b}"]}";')
@example("$q = \"{$o->{'p'}}\";")
@example('$q = "{$a[";')
def test_tokenize_agrees_with_reference_lexer(text):
    assert_same_tokens("<?php " + text)


@settings(max_examples=300, deadline=None)
@given(php_text)
def test_tokenize_agrees_on_text_with_html_around_php(text):
    assert_same_tokens("<p>\n" + text + "\n?>tail")


@settings(max_examples=300, deadline=None)
@given(php_text, st.integers(min_value=1, max_value=50))
def test_lex_fragment_agrees_with_reference_lexer(text, line):
    assert (_outcome(lex_fragment, text, line)
            == _outcome(reference_lexer.lex_fragment, text, line))


@pytest.mark.parametrize("text", [
    "<?php .²", "<?php 1²", "<?php .① + 1①2", "<?php .é", "<?php $x.²",
    "<?php 0x1F", "<?php 0X1fg", "<?php 0x", "<?php 1e+5", "<?php 1e+",
    "<?php 1E5.5", "<?php 1.2.3", "<?php 1_000.5e-3", "<?php ...5", "<?php .5.5",
])
def test_numbers_agree_with_reference_lexer(text):
    assert_same_tokens(text)


@pytest.mark.parametrize("text", [
    "<?php \n\n   `", "<?php $a;\n\t\f\r\n \x00", "<?php /* a\n b */\n\n  \x01",
    "<?php // c\n # d\n\n\\`",
])
def test_unexpected_character_keeps_its_character_and_line(text):
    assert_same_tokens(text)
    with pytest.raises(LexError) as info:
        tokenize(text)
    assert info.value.line == text.count("\n") + 1
    assert repr(text[-1]) in str(info.value)


@pytest.mark.parametrize("text", [
    "<?php\n\n 'open", '<?php\n "open\n', "<?php\n\n /* open ?>",
    "<?php # c ?>\n$a", "<?php // c ?>\r\n$a", "<?php $a ?>\n\n<?php $b",
    "<?php $a ?>", "<?php 'a\\\nb' . \"c\\\nd\"\n$e", "<?php 'a\\",
    # ?> and what follows it
    "<?php $a ?>\rtail", "<?php $a ?>\r\n<?php $b", "<?php $a ?>\r\r\n$b",
    "<?php $a ?>\n\n<p>\n</p><?php $b", "<?php $a ?><p>a<<?php $b", "<?php $a ?>x<?= $b ?>",
    "<?php $a ?>\n<? $b", "<?php $a ?>\n", "<?php $a ?><?php", "<?php $a <> $b ?>",
    "<?php $a <?php", "x<?=$a?>y<?=", "<?phpx", "<?", "", "\n\n", "<p><? ?>",
])
def test_edge_tokens_agree_with_reference_lexer(text):
    assert_same_tokens(text)


@pytest.mark.parametrize("text", [
    "<?php $a = <<<EOT\n  body\n    EOT;\n$b",         # indented terminator
    "<?php $a = <<<'EOT'\n\tbody\n\tEOT\n",
    "<?php $a = <<<EOT\nbody\nEOT",                   # terminator at EOF
    "<?php $a = <<<'EOT'\nbody\n  EOT",
    "<?php $a = <<<EOT\nEOTX\nEOT_\nEOT2\nEOT;\n",    # label, then an identifier character
    "<?php $a = <<<EOT\nEOTé\nEOT\n", "<?php $a = <<<EOT\nEOTX",
    "<?php <<<'EOT\"\nx\nEOT\n", "<?php <<<\"EOT'\nx\nEOT\n",   # mismatched quote
    "<?php <<<'EOT\nx\nEOT\n", "<?php <<<\"EOT\nx\nEOT\n", "<?php <<<'EOT'",
    "<?php $a = <<<EOT\nEOT;\n", "<?php $a = <<<'EOT'\nEOT;",   # empty body
    "<?php $a = <<<EOT\n\nEOT;\n",
    "<?php $a = <<<EOT\r\nline1\r\nline2\r\nEOT;\r\n$b",      # CRLF body
    "<?php $a = <<<'EOT'\r\n\r\nEOT\r\n",
    "<?php <<<", "<?php <<< \n", "<?php <<<EOT", "<?php <<<=", "<?php <<<$a",
    "<?php <<<EOT junk\nx\nEOT\n", "<?php <<< \t\"EOT\"\nx\n\tEOT\n",
    "<?php <<<1a\nx\n1a\n", "<?php <<<EOT\nx\nEOT\n<<<EOT\ny\nEOT\n",
    "<?php $a = <<<EOT\nx\n", "<?php /* c */ <<<EOT\nx ?> y\nEOT;\n",
])
def test_heredocs_agree_with_reference_lexer(text):
    assert_same_tokens(text)


@pytest.mark.parametrize("text", [
    "$a ?> b", "$a->b ?>\n<?php $c", "$x ?>'open", "$x ?>`", "$x // c ?> $y",
    "$a['k'] ?", "$a ?>",
])
def test_lex_fragment_stops_at_a_closing_tag(text):
    assert (_outcome(lex_fragment, text, 3)
            == _outcome(reference_lexer.lex_fragment, text, 3))
    assert lex_fragment(text, 3)[-1][1] == "?>" or "?>" not in text


def test_digit_class_is_str_isdigit():
    digit = re.compile("[%s]" % _DIGIT).fullmatch
    assert [c for c in map(chr, range(sys.maxunicode + 1))
            if bool(digit(c)) != c.isdigit()] == []


# Each of these, repeated to 16,000 lines, lexes (or fails) in time linear in
# its length.  A lexer that re-read the rest of the text at each of the
# 16,000 repeats would take minutes.
LINEAR = {
    "heredoc": ("<?php\n", "$a = <<<EOT\nbody ?> \" '\nEOT;\n"),
    "html-cycles": ("<?php\n", "$a; ?>\n<p>x</p><?php\n"),
    "open-string": ("<?php '", "\\'\n"),
    "open-heredoc": ("<?php\n", "$a = <<<EOT\n"),
    "question-comments": ("<?php\n", "// ?? ?x? ?" + "?" * 40 + "\n"),
}


@pytest.mark.parametrize("name", sorted(LINEAR))
def test_tokenize_is_linear(name):
    head, line = LINEAR[name]
    text = head + line * (16000 // line.count("\n"))
    t0 = time.perf_counter()
    _outcome(tokenize, text)
    assert time.perf_counter() - t0 < 2.0
    assert_same_tokens(text)
