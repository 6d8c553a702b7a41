"""php_parser's _HOLE reader of double-quoted strings against the
character-by-character oracle in reference_interpolation.py."""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_interpolation
from genutil import QUOTED_HOLES
from analogue.astree import TreeBuilder
from analogue.php_parser import LexError, ParseError, _build_interpolated, parse_source

# Pieces of string bodies: holes and their parts, keys of every form and the
# texts that are no key, escapes, braces, quotes and line breaks, and
# characters that are names or digits only outside ASCII.
STRING_PIECES = QUOTED_HOLES + [
    "$a", "$b", "$_x", "$é", "$1", "$", "[", "]", "[$b]", "[$]", "[0]", "[-1]",
    "[k]", "[k k]", "['k']", '["k"]', "[']", "[²]", "[]", "->", "->p", "->1",
    "{", "}", "{$", "${", "\\", "\\$", "\\{", "\\\\", "\\\n", "'", '"', "\n",
    "x", " ", "²", "é", "1", "-", "(", ")", "?>", "${a}", "{$a[1]}", "{$a->b}",
    "{$a(}", "{$a ?>}", "$a[$b\n]", "$a->",
]

string_bodies = st.lists(st.sampled_from(STRING_PIECES), max_size=16).map("".join)


def _outcome(build, raw: str, line: int, heredoc: bool):
    """The nodes build makes of a dq token with text raw, or its error."""
    tok = ("dq", raw, line, line + raw.count("\n") + heredoc, heredoc)
    b = TreeBuilder()
    b.add("Name", symbol="before")  # so that ids do not start at 0
    try:
        root = build(b, tok)
    except (LexError, ParseError) as e:
        return type(e).__name__, str(e), e.line
    return root, [(n.id, n.kind, n.children, n.symbol, n.value, n.line_start, n.line_end)
                  for n in b._nodes.values()]


@settings(max_examples=2000, deadline=None)
@given(string_bodies, st.integers(min_value=1, max_value=20), st.booleans())
@example('x {$a["k"]} y', 1, False)
@example("{$a['k']}\n$b", 2, True)
@example('{$a["{$b}"]}', 1, False)
@example("{$o->{'p'}}", 1, False)
@example('{$a["', 1, False)
def test_hole_reader_agrees_with_reference(raw, line, heredoc):
    assert (_outcome(_build_interpolated, raw, line, heredoc)
            == _outcome(reference_interpolation.build_interpolated, raw, line, heredoc))


@pytest.mark.parametrize("text, lines", [
    # the rest of the string is numbered from the line the [key] ends on
    ('<?php\n$q = "$a[$b\n] $c";', {"$a": 2, "$b\n": 2, "$c": 3}),
    ('<?php\n$q = "$a[1\n\n] $c\n{$d}";', {"$a": 2, "$c": 4, "$d": 5}),
    ('<?php\n$q = <<<EOT\n$a[-\n] $c\nEOT;\n', {"$a": 3, "$c": 4}),
])
def test_a_key_that_spans_lines_moves_the_lines_after_it(text, lines):
    unit = parse_source(text)
    got = {n.symbol: n.line_start for n in unit.nodes.values() if n.symbol in lines}
    assert got == lines
