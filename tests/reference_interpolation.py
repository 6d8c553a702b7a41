"""The character-by-character reader of double-quoted strings that
php_parser's _HOLE regex replaced.

Kept as a test oracle, unchanged but for two mends.  A simple hole whose
[key] spans a line break now moves the line count past it, so the rest of
the string is numbered from the line the hole ends on.  And a "${" or "{$"
hole ends where reference_lexer.hole_end says, the rule php_parser's
_GROUP regex follows.
tests/test_interpolation_differential.py checks that php_parser builds the
same nodes, with the same ids and line spans, or raises the same error, as
`build_interpolated` here.
"""
from __future__ import annotations

from analogue import astree
from analogue.astree import TreeBuilder
from analogue.php_parser import Token, _Parser, lex_fragment
from reference_lexer import _is_ident_char, _is_ident_start, hole_end


def build_interpolated(b: TreeBuilder, tok: Token) -> int:
    """Turn a double-quoted token into Encapsed(Literal/Var/... parts) or a plain Literal."""
    raw = tok[1]
    parts: list[int] = []
    buf: list[str] = []
    i, n = 0, len(raw)
    line = tok[2] + 1 if tok[4] else tok[2]  # heredoc bodies start on the next line
    seg_line = line

    def flush(end_line: int) -> None:
        nonlocal buf, seg_line
        if buf:
            parts.append(b.add(astree.LITERAL, value="".join(buf),
                               line_start=seg_line, line_end=end_line))
            buf = []
        seg_line = end_line

    while i < n:
        ch = raw[i]
        if ch == "\\" and i + 1 < n:
            buf.append(raw[i:i + 2])
            if raw[i + 1] == "\n":
                line += 1
            i += 2
            continue
        if ch == "\n":
            buf.append(ch)
            line += 1
            i += 1
            continue
        if ch == "$" and i + 1 < n and _is_ident_start(raw[i + 1]):
            flush(line)
            i, line = _simple_hole(b, raw, i, line, parts)
            seg_line = line
            continue
        if ch == "$" and i + 1 < n and raw[i + 1] == "{":
            end = hole_end(raw, i + 1)
            if end == -1:
                buf.append(ch)
                i += 1
                continue
            flush(line)
            inner = raw[i + 2:end]
            parts.append(b.add(astree.VAR, symbol="$" + inner,
                               line_start=line, line_end=line + inner.count("\n")))
            line += inner.count("\n")
            i = end + 1
            seg_line = line
            continue
        if ch == "{" and i + 1 < n and raw[i + 1] == "$":
            end = hole_end(raw, i)
            if end == -1:
                buf.append(ch)
                i += 1
                continue
            flush(line)
            fragment = raw[i + 1:end]
            toks = lex_fragment(fragment, line)
            sub = _Parser(toks, b)
            parts.append(sub.parse_expr())
            line += fragment.count("\n")
            i = end + 1
            seg_line = line
            continue
        buf.append(ch)
        i += 1
    if not parts:
        return b.add(astree.LITERAL, value=raw, line_start=tok[2], line_end=tok[3])
    flush(line)
    node = b.add(astree.ENCAPSED, parts, line_start=tok[2], line_end=tok[3])
    return node


def _simple_hole(b: TreeBuilder, raw: str, i: int, line: int,
                 parts: list[int]) -> tuple[int, int]:
    """Parse $name, $name[idx] or $name->prop starting at raw[i] == '$'."""
    j = i + 1
    while j < len(raw) and _is_ident_char(raw[j]):
        j += 1
    var_id = b.add(astree.VAR, symbol=raw[i:j], line_start=line)
    node = var_id
    if j < len(raw) and raw[j] == "[":
        close = raw.find("]", j)
        if close != -1:
            key = raw[j + 1:close]
            idx = None
            if key.startswith("$"):
                idx = b.add(astree.VAR, symbol=key, line_start=line)
            elif key and (key[0].isdigit() or key[0] == "-"):
                idx = b.add(astree.LITERAL, value=key, line_start=line)
            elif key and all(_is_ident_char(c) for c in key):
                idx = b.add(astree.LITERAL, value=key, line_start=line)
            elif key and key[0] in "'\"" and key[-1] == key[0] and len(key) >= 2:
                idx = b.add(astree.LITERAL, value=key[1:-1], line_start=line)
            if idx is not None:
                node = b.add(astree.ARRAY_DIM, [var_id, idx], line_start=line)
                j = close + 1
    elif raw.startswith("->", j) and j + 2 < len(raw) and _is_ident_start(raw[j + 2]):
        k = j + 2
        while k < len(raw) and _is_ident_char(raw[k]):
            k += 1
        prop = b.add(astree.NAME, symbol=raw[j + 2:k], line_start=line)
        node = b.add(astree.other("prop"), [var_id, prop], line_start=line)
        j = k
    parts.append(node)
    return j, line + raw.count("\n", i, j)  # the line mend: a [key] may span lines
