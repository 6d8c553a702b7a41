"""The character-by-character PHP lexer that php_parser's master regex replaced.

Kept as a test oracle, unchanged but for building php_parser's token tuples:
tests/test_lexer_differential.py checks that php_parser.tokenize yields the
same tokens, or the same LexError, as `tokenize` here.  Heredocs go through php_parser's own _lex_heredoc in both.
"""
from __future__ import annotations

from analogue.php_parser import (_OPS1, _OPS2, _OPS3, LexError, Token,
                                 _is_ident_char, _is_ident_start, _lex_heredoc)


def tokenize(text: str) -> list[Token]:
    """Split a whole file into tokens; content outside <?php ... ?> becomes html tokens."""
    toks: list[Token] = []
    i, line, n = 0, 1, len(text)
    while i < n:
        m = text.find("<?", i)
        if m == -1:
            m = n
        if m > i:
            seg = text[i:m]
            toks.append(("html", seg, line, line + seg.count("\n"), False))
            line += seg.count("\n")
            i = m
        if i >= n:
            break
        if text.startswith("<?php", i):
            i += 5
        elif text.startswith("<?=", i):
            toks.append(("ident", "echo", line, line, False))
            i += 3
        else:
            i += 2
        i, line = _lex_php(text, i, line, toks)
    return toks


def _lex_php(text: str, i: int, line: int, toks: list[Token]) -> tuple[int, int]:
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r\v\f":
            i += 1
            continue
        if text.startswith("?>", i):
            toks.append(("op", "?>", line, line, False))
            i += 2
            for nl in ("\r\n", "\n", "\r"):  # PHP swallows one newline after ?>
                if text.startswith(nl, i):
                    i += len(nl)
                    line += nl.count("\n")
                    break
            return i, line
        if text.startswith("//", i) or ch == "#":
            j = i + 2 if ch == "/" else i + 1
            while j < n and text[j] != "\n" and not text.startswith("?>", j):
                j += 1
            i = j  # line comments end at newline or at a closing tag
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += text.count("\n", i, end + 2)
            i = end + 2
            continue
        if ch == "$":
            j = i + 1
            if j < n and _is_ident_start(text[j]):
                k = j + 1
                while k < n and _is_ident_char(text[k]):
                    k += 1
                toks.append(("var", text[i:k], line, line, False))
                i = k
                continue
            toks.append(("op", "$", line, line, False))
            i += 1
            continue
        if _is_ident_start(ch):
            k = i + 1
            while k < n and _is_ident_char(text[k]):
                k += 1
            toks.append(("ident", text[i:k], line, line, False))
            i = k
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            k = i
            if text.startswith("0x", i) or text.startswith("0X", i):
                k = i + 2
                while k < n and (text[k] in "abcdefABCDEF_" or text[k].isdigit()):
                    k += 1
            else:
                seen_dot = seen_exp = False
                while k < n:
                    c = text[k]
                    if c.isdigit() or c == "_":
                        k += 1
                    elif c == "." and not seen_dot and not seen_exp:
                        seen_dot = True
                        k += 1
                    elif c in "eE" and not seen_exp and k + 1 < n and (
                            text[k + 1].isdigit() or text[k + 1] in "+-"):
                        seen_exp = True
                        k += 2 if text[k + 1] in "+-" else 1
                    else:
                        break
            toks.append(("number", text[i:k], line, line, False))
            i = k
            continue
        if ch == "'":
            j, ln = i + 1, line
            buf = []
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    buf.append(text[j:j + 2])
                    if text[j + 1] == "\n":
                        ln += 1
                    j += 2
                    continue
                if c == "'":
                    break
                if c == "\n":
                    ln += 1
                buf.append(c)
                j += 1
            if j >= n:
                raise LexError("unterminated single-quoted string", line)
            toks.append(("sq", "".join(buf), line, ln, False))
            i = j + 1
            line = ln
            continue
        if ch == '"':
            j, ln = i + 1, line
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    if text[j + 1] == "\n":
                        ln += 1
                    j += 2
                    continue
                if c == '"':
                    break
                if c == "\n":
                    ln += 1
                j += 1
            if j >= n:
                raise LexError("unterminated double-quoted string", line)
            toks.append(("dq", text[i + 1:j], line, ln, False))
            i = j + 1
            line = ln
            continue
        if text.startswith("<<<", i):
            i, line = _lex_heredoc(text, i, line, toks)
            continue
        if text.startswith(_OPS3, i):
            toks.append(("op", text[i:i + 3], line, line, False))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _OPS2:
            toks.append(("op", two, line, line, False))
            i += 2
            continue
        if ch in _OPS1:
            toks.append(("op", ch, line, line, False))
            i += 1
            continue
        raise LexError("unexpected character %r" % ch, line)
    return i, line


def lex_fragment(fragment: str, start_line: int) -> list[Token]:
    """Tokenize an expression fragment (already inside PHP mode)."""
    toks: list[Token] = []
    _lex_php(fragment, 0, start_line, toks)
    return toks
