"""The character-by-character PHP lexer that php_parser's master regex replaced.

Kept as a test oracle, unchanged but for building php_parser's token tuples,
with the line-by-line heredoc lexer php_parser had before its regex read
heredocs, and with a "..." string that reads a "{$" hole to its end
(`hole_end`), where php_parser's regex reads its _GROUP:
tests/test_lexer_differential.py checks that php_parser.tokenize yields the
same tokens, or the same LexError, as `tokenize` here.
"""
from __future__ import annotations

from analogue.php_parser import _OPS1, _OPS2, _OPS3, LexError, Token


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ord(ch) > 0x7f


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ord(ch) > 0x7f


def hole_end(text: str, start: int, depth: int = 2) -> int:
    """Index of the "}" that closes the group of PHP code opening at
    text[start] == "{", or -1.  The group holds other text, quoted strings
    that end on their own line and groups nested `depth` deep; a "..."
    string in it holds the "{$" holes of a group one level less deep."""
    i, n = start + 1, len(text)
    while i < n:
        ch = text[i]
        if ch == "}":
            return i
        if ch == "{":
            if depth == 0:
                return -1
            i = hole_end(text, i, depth - 1)
        elif ch == "'" or ch == '"':
            i = _line_string_end(text, i, depth - 1 if ch == '"' else -1)
        if i == -1:
            return -1
        i += 1
    return -1


def _line_string_end(text: str, start: int, depth: int) -> int:
    """Index of the quote that closes the string opening at text[start] on
    the same line, or -1; "{$" holes `depth` deep inside it are read whole,
    and any other "{" is text."""
    quote, i, n = text[start], start + 1, len(text)
    while i < n:
        ch = text[i]
        if ch == quote:
            return i
        if ch == "\n" or (ch == "\\" and text[i + 1:i + 2] in ("", "\n")):
            return -1
        if ch == "\\":
            i += 1
        elif ch == "{" and depth >= 0 and text[i + 1:i + 2] == "$":
            end = hole_end(text, i, depth)
            if end != -1:
                i = end
        i += 1
    return -1


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
            toks.append(("html", seg, line, line + seg.count("\n")))
            line += seg.count("\n")
            i = m
        if i >= n:
            break
        if text.startswith("<?php", i):
            i += 5
        elif text.startswith("<?=", i):
            toks.append(("ident", "echo", line, line))
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
            toks.append(("op", "?>", line, line))
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
                toks.append(("var", text[i:k], line, line))
                i = k
                continue
            toks.append(("op", "$", line, line))
            i += 1
            continue
        if _is_ident_start(ch):
            k = i + 1
            while k < n and _is_ident_char(text[k]):
                k += 1
            toks.append(("ident", text[i:k], line, line))
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
            toks.append(("number", text[i:k], line, line))
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
            toks.append(("sq", "".join(buf), line, ln))
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
                if c == "{" and text.startswith("$", j + 1):
                    end = hole_end(text, j)
                    if end != -1:
                        ln += text.count("\n", j, end)
                        j = end
                j += 1
            if j >= n:
                raise LexError("unterminated double-quoted string", line)
            toks.append(("dq", text[i + 1:j], line, ln))
            i = j + 1
            line = ln
            continue
        if text.startswith("<<<", i):
            i, line = _lex_heredoc(text, i, line, toks)
            continue
        if text.startswith(_OPS3, i):
            toks.append(("op", text[i:i + 3], line, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _OPS2:
            toks.append(("op", two, line, line))
            i += 2
            continue
        if ch in _OPS1:
            toks.append(("op", ch, line, line))
            i += 1
            continue
        raise LexError("unexpected character %r" % ch, line)
    return i, line


def _lex_heredoc(text: str, i: int, line: int, toks: list[Token]) -> tuple[int, int]:
    n = len(text)
    j = i + 3
    while j < n and text[j] in " \t":
        j += 1
    nowdoc = False
    quote = ""
    if j < n and text[j] in "'\"":
        nowdoc = text[j] == "'"
        quote = text[j]
        j += 1
    k = j
    while k < n and _is_ident_char(text[k]):
        k += 1
    label = text[j:k]
    if not label:
        raise LexError("malformed heredoc start", line)
    if quote:
        if k >= n or text[k] != quote:
            raise LexError("malformed heredoc start", line)
        k += 1
    nl = text.find("\n", k)
    if nl == -1:
        raise LexError("unterminated heredoc", line)
    body_start = nl + 1
    pos = body_start
    ln = line + 1
    while pos <= n:
        eol = text.find("\n", pos)
        if eol == -1:
            eol = n
        raw_line = text[pos:eol]
        stripped = raw_line.lstrip(" \t")
        after = stripped[len(label):]
        if stripped.startswith(label) and (not after or not _is_ident_char(after[0])):
            body = text[body_start:pos]
            if body.endswith("\n"):
                body = body[:-1]
            toks.append(("sq" if nowdoc else "dq", body, line, max(line, ln - 1)))
            indent = len(raw_line) - len(stripped)
            # resume lexing right after the terminator label
            return pos + indent + len(label), ln
        if eol == n:
            break
        pos = eol + 1
        ln += 1
    raise LexError("unterminated heredoc", line)


def lex_fragment(fragment: str, start_line: int) -> list[Token]:
    """Tokenize an expression fragment (already inside PHP mode)."""
    toks: list[Token] = []
    _lex_php(fragment, 0, start_line, toks)
    return toks
