"""Shared helpers for randomized differential tests and acceptance reporting."""
from __future__ import annotations

import random

from hypothesis import strategies as st

# one "ACCEPTANCE n: PASS/FAIL ..." line per criterion; printed by the
# pytest_terminal_summary hook in conftest.py
ACCEPTANCE_LINES: list[str] = []

from analogue.corpusgen import MUTATIONS, plant_file, random_snippet, render_file, render_snippet
from analogue.php_parser import parse_source
from analogue.template import Template, derive_template

# Text for the lexer and parser properties: pieces of PHP syntax, the
# characters that end or open tokens, and the characters where str.isdigit,
# str.isalpha and the regex classes disagree.
PHP_PIECES = [
    "<?php ", "<?=", "<?", "?>", "?>\n", "<<<EOT\n", "<<<'EOT'\n", "<<<\"EOT\"\n",
    "EOT", "EOT;\n", "  EOT\n", "/*", "*/", "//", "#", "'", '"', "\\", "\\'",
    '\\"', "$", "$a", "${", "{$", "->", "::", "=>", "===", "!==", "<=>", "**=",
    "<<=", "??=", "...", "<<", "<>", "<", "?", ".", "..", ".=", "0x", "0X1F", "1e",
    "1e+5", "1E-", "1.5", "1_0", "0", "9", "e", "E", "x", "_", "abc", "echo",
    " ", "\t", "\n", "\r", "\r\n", "\f", "\v", "²", "①", "é", " ",
    "\x85", "`", "\x00", "(", ")", "[", "]", "{", "}", ";", ",", "=", "+",
    "-", "*", "/", "%", "!", "&", "|", "^", "~", "@", ":",
]

php_text = st.lists(st.one_of(st.sampled_from(PHP_PIECES), st.text(max_size=3)),
                    max_size=40).map("".join)


def template_from_snippet(snippet, rng: random.Random,
                          symbol_policy: str | None = None) -> Template:
    unit = parse_source(render_file(render_snippet(snippet)))
    stmts = unit.children_of(unit.nodes[unit.root])
    policy = symbol_policy or rng.choice(("preserve", "wildcard"))
    return derive_template(unit, stmts, symbol_policy=policy)


def random_pair(rng: random.Random):
    """One (template, target unit) pair for differential testing.

    Targets reuse the seed's own statement shapes most of the time so the
    matcher gets plenty of near-misses, partial prefixes and binding checks.
    """
    seed = random_snippet(rng)
    t = template_from_snippet(seed, rng)
    target_seed = seed if rng.random() < 0.8 else random_snippet(rng)
    mutation = rng.choice(MUTATIONS)
    if mutation in ("insert_between", "break_flow") and len(target_seed.stmts) < 2:
        mutation = "rename"
    text, _ = plant_file(target_seed, mutation, rng,
                         filler_before=rng.randint(0, 2),
                         filler_after=rng.randint(0, 2))
    if rng.random() < 0.3:
        # nest the whole body one block deeper to vary anchor depths
        body = text.split("\n", 1)[1]
        text = "<?php\nwhile ($gate%d) {\n%s}\n" % (rng.randrange(100), body)
    return t, parse_source(text)
