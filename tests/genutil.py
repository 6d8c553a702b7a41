"""Shared helpers for randomized differential tests and acceptance reporting."""
from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from hypothesis import strategies as st

# one "ACCEPTANCE n: PASS/FAIL ..." line per criterion; printed by the
# pytest_terminal_summary hook in conftest.py
ACCEPTANCE_LINES: list[str] = []

from analogue.corpusgen import (MUTATIONS, CorpusLedger, plant_file, random_snippet,
                                render_file, render_snippet)
from analogue.php_parser import parse_source
from analogue.template import Template, derive_template

# Holes that hold quotes, closed and not: a quote inside a "{$...}" hole does
# not end the string around it.
QUOTED_HOLES = ['{$a["k"]}', "{$a['k']}", '{$a["{$b}"]}', "{$o->{'p'}}", '{$a["']

# Text for the lexer and parser properties: pieces of PHP syntax, the
# characters that end or open tokens, and the characters where str.isdigit,
# str.isalpha and the regex classes disagree.
PHP_PIECES = QUOTED_HOLES + [
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


# The lines around a plant in each block that real PHP keeps code in: a
# function, method, closure, try, catch, finally, case, default or braced
# namespace body.
HOST_CONTEXTS = {
    "function": "function host() {\n%s}",
    "method": "class Host {\npublic function run() {\n%s}\n}",
    "closure": "$host = function () use ($gate) {\n%s};",
    "try": "try {\n%s} catch (Exception $e) {\nlog_error($e);\n}",
    "catch": "try {\nstart();\n} catch (Exception $e) {\n%s}",
    "finally": "try {\nstart();\n} finally {\n%s}",
    "case": "switch ($_GET['action']) {\ncase 'list':\n%sbreak;\n}",
    "default": "switch ($_GET['action']) {\ncase 'list':\nbreak;\ndefault:\n%s}",
    "namespace": "namespace App\\Host {\n%s}",
}


def move_into_context(ledger: CorpusLedger, context: str) -> CorpusLedger:
    """Move the body of each PHP file of ledger's corpus, as render_file
    wrote it, into the host context's block; return the ledger with each
    plant's line moved with it."""
    wrapper = HOST_CONTEXTS[context]
    shift = wrapper.split("%s")[0].count("\n")
    for path in Path(ledger.root).glob("*/src/*.php"):
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<?php\n")
        path.write_text("<?php\n%s\n" % (wrapper % text[len("<?php\n"):]), encoding="utf-8")
    return CorpusLedger(ledger.root, [dataclasses.replace(p, line_start=p.line_start + shift)
                                      for p in ledger.plants])
