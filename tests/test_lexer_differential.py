"""php_parser's master-regex lexer against the character-by-character oracle."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lexer
from genutil import php_text
from analogue.php_parser import LexError, lex_fragment, tokenize


def _outcome(lex, *args):
    try:
        return lex(*args)  # (type, value, line, line_end, heredoc) tuples
    except LexError as e:
        return ("LexError", str(e), e.line)


def assert_same_tokens(text: str) -> None:
    assert _outcome(tokenize, text) == _outcome(reference_lexer.tokenize, text)


@settings(max_examples=1500, deadline=None)
@given(php_text)
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
])
def test_edge_tokens_agree_with_reference_lexer(text):
    assert_same_tokens(text)
