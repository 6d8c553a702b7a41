"""Tokenizer and recursive-descent parser for a pragmatic PHP subset.

Covers the constructs that matter for snippet matching: assignments, calls,
echo, array indexing, superglobals, single/double-quoted strings with
interpolation, concatenation, if/while/foreach, return and inline HTML.
Anything else is represented as a tagged ``Other:*`` node with best-effort
children, so files never need full-language support to be scannable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import astree
from .astree import TreeBuilder, SourceUnit


class LexError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__("%s (line %d)" % (message, line))
        self.line = line


@dataclass(slots=True)
class Token:
    type: str            # html | var | ident | number | sq | dq | op | eof
    value: str
    line: int
    line_end: int
    heredoc: bool = False


_OPS3 = ("===", "!==", "<=>", "**=", "<<=", ">>=", "??=", "...")
_OPS2 = ("==", "!=", "<>", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
         "*=", "/=", ".=", "%=", "->", "=>", "::", "<<", ">>", "**", "??",
         "|=", "&=", "^=")
_OPS1 = "=.+-*/%!<>()[]{},;:?@&|^~\\$"

_CASTS = frozenset({"int", "integer", "bool", "boolean", "float", "double",
                    "real", "string", "array", "object", "unset", "binary"})


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ord(ch) > 0x7f


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ord(ch) > 0x7f


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
            toks.append(Token("html", seg, line, line + seg.count("\n")))
            line += seg.count("\n")
            i = m
        if i >= n:
            break
        if text.startswith("<?php", i):
            i += 5
        elif text.startswith("<?=", i):
            toks.append(Token("ident", "echo", line, line))
            i += 3
        else:
            i += 2
        i, line = _lex_php(text, i, line, toks)
    return toks


def lex_fragment(fragment: str, start_line: int) -> list[Token]:
    """Tokenize an expression fragment (already inside PHP mode)."""
    toks: list[Token] = []
    _lex_php(fragment, 0, start_line, toks)
    return toks


_LEX_ERRORS = {
    "comment": "unterminated block comment",
    "sq_open": "unterminated single-quoted string",
    "dq_open": "unterminated double-quoted string",
}

# One token and the whitespace and comments before it.  Alternatives are
# tried in order: "var" comes before the "$" operator, "close" before "?",
# "heredoc" before "<<", "comment" (an unterminated one) before "/", and
# "number" before ".".  "bad" takes any other character and "end" the end of
# the text, so once the greedy prefix stops the match cannot fail and never
# backtracks into it.  "number" marks only the first character, because
# str.isdigit accepts digits such as "²" that no regex class matches; a "."
# before a non-ASCII character that is not a digit is the "." operator.
_TOKEN = re.compile(
    r"(?:[ \t\n\r\v\f]+|(?://|\#)[^\n?]*(?:\?(?!>)[^\n?]*)*|/\*.*?\*/)*"
    r"(?:(?P<var>\$%(ident)s)|(?P<ident>%(ident)s)"
    r"|(?P<close>\?>\n?)|(?P<heredoc><<<)|(?P<comment>/\*)"
    r"|(?P<number>[0-9]|\.(?=[0-9\x80-\U0010ffff]))"
    r"|(?P<op>%(ops)s|[%(ops1)s])"
    r"|(?P<sq>'[^'\\]*(?:\\.[^'\\]*)*')|(?P<dq>\"[^\"\\]*(?:\\.[^\"\\]*)*\")"
    r"|(?P<sq_open>')|(?P<dq_open>\")|(?P<bad>.)|(?P<end>\Z))"
    % {"ident": r"[A-Za-z_\x80-\U0010ffff][0-9A-Za-z_\x80-\U0010ffff]*",
       "ops": "|".join(map(re.escape, _OPS3 + _OPS2)),
       "ops1": re.escape(_OPS1)},
    re.DOTALL)


def _lex_php(text: str, i: int, line: int, toks: list[Token]) -> tuple[int, int]:
    """Lex PHP code from text[i] up to a closing tag (consumed) or the end."""
    match, count, append = _TOKEN.match, text.count, toks.append
    while True:
        m = match(text, i)
        kind = m.lastgroup
        s, e = m.span(kind)
        if s != i:
            line += count("\n", i, s)
        i = e
        if kind == "op" or kind == "ident" or kind == "var":
            append(Token(kind, text[s:i], line, line))
        elif kind == "sq" or kind == "dq":
            value = text[s + 1:i - 1]
            end = line + value.count("\n")
            append(Token(kind, value, line, end))
            line = end
        elif kind == "number":
            if text[s] == "." and not text[i].isdigit():
                append(Token("op", ".", line, line))
            else:
                i = _number_end(text, s)
                append(Token("number", text[s:i], line, line))
        elif kind == "close":  # PHP swallows one newline after ?>
            append(Token("op", "?>", line, line))
            return i, line + i - s - 2
        elif kind == "heredoc":
            i, line = _lex_heredoc(text, s, line, toks)
        elif kind == "end":
            return i, line
        else:
            raise LexError(_LEX_ERRORS.get(kind) or "unexpected character %r" % text[s],
                           line)


def _number_end(text: str, i: int) -> int:
    """End of the number literal starting at text[i]."""
    n = len(text)
    if text.startswith(("0x", "0X"), i):
        k = i + 2
        while k < n and (text[k] in "abcdefABCDEF_" or text[k].isdigit()):
            k += 1
        return k
    k = i
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
    return k


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
            toks.append(Token("sq" if nowdoc else "dq", body,
                              line, max(line, ln - 1), heredoc=True))
            indent = len(raw_line) - len(stripped)
            # resume lexing right after the terminator label
            return pos + indent + len(label), ln
        if eol == n:
            break
        pos = eol + 1
        ln += 1
    raise LexError("unterminated heredoc", line)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset({
    "echo", "print", "if", "elseif", "else", "while", "foreach", "for",
    "return", "function", "class", "interface", "trait", "abstract", "final",
    "global", "include", "include_once", "require", "require_once", "switch",
    "do", "break", "continue", "try", "throw", "namespace", "use", "enum",
    "endif", "endwhile", "endforeach", "endfor", "endswitch",
})

_BIN_PREC = {
    "??": 1,
    "||": 2, "&&": 3,
    "|": 4, "^": 5, "&": 6,
    "==": 7, "!=": 7, "===": 7, "!==": 7, "<>": 7,
    "<": 8, "<=": 8, ">": 8, ">=": 8, "<=>": 8,
    "<<": 9, ">>": 9,
    "+": 10, "-": 10, ".": 10,
    "*": 11, "/": 11, "%": 11,
    "**": 12,
    "instanceof": 8,
}

_AUG_ASSIGN = frozenset({"+=", "-=", "*=", "/=", ".=", "%=", "**=", "??=", "|=", "&=",
                         "^=", "<<=", ">>="})
_UNARY = frozenset({"!", "-", "+", "~", "++", "--"})
_POSTFIX = frozenset({"(", "[", "->", "::", "++", "--"})
_WORD_OPS = frozenset({"or", "and", "xor"})

_EOF = Token("eof", "", 0, 0)
# Lookahead reads at most two tokens past pos, and pos passes the first EOF
# (by one) only right before a ParseError, so three EOFs after the last token
# keep every read in range without a bounds check.
_EOF_PAD = [_EOF] * 3


class _Parser:
    def __init__(self, toks: list[Token], builder: TreeBuilder):
        self.toks = toks + _EOF_PAD
        self.pos = 0
        self.b = builder
        self.last_line = toks[-1].line_end if toks else 1

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_op(self, *vals: str) -> bool:
        t = self.toks[self.pos]
        return t.type == "op" and t.value in vals

    def at_kw(self, *words: str) -> bool:
        t = self.toks[self.pos]
        return t.type == "ident" and t.value.lower() in words

    def expect_op(self, val: str) -> Token:
        t = self.toks[self.pos]
        if t.type != "op" or t.value != val:
            raise ParseError("expected %r, found %r" % (val, t.value or t.type),
                             t.line or self.last_line)
        self.pos += 1
        return t

    # -- statements --------------------------------------------------------
    def parse_statements_until(self, closers: tuple[str, ...],
                               kw_closers: tuple[str, ...] = ()) -> list[int]:
        out: list[int] = []
        while True:
            t = self.toks[self.pos]
            if t.type == "eof":
                break
            if t.type == "op":
                if t.value in closers:
                    break
                if t.value == "?>" or t.value == ";":
                    self.pos += 1
                    continue
            elif t.type == "html":
                self.pos += 1
                out.append(self.b.add(astree.HTML, line_start=t.line, line_end=t.line_end))
                continue
            elif kw_closers and t.type == "ident" and t.value.lower() in kw_closers:
                break
            start_pos = self.pos
            node_mark = self.b.mark()
            try:
                sid = self.parse_statement()
            except ParseError:
                self.pos = start_pos
                self.b.rollback(node_mark)
                sid = self._recover_statement()
            if sid is not None:
                out.append(sid)
        return out

    def _recover_statement(self) -> int | None:
        """Swallow a malformed statement: skip to ';' at bracket depth 0."""
        t0 = self.peek()
        depth = 0
        last = t0
        progressed = False
        while True:
            t = self.peek()
            if t.type == "eof":
                if depth > 0:
                    raise ParseError("unbalanced delimiters", last.line_end)
                break
            if t.type == "op":
                if t.value in "([{":
                    depth += 1
                elif t.value in ")]}":
                    if depth == 0:
                        if not progressed:
                            raise ParseError("unexpected %r" % t.value, t.line)
                        break
                    depth -= 1
                elif t.value == ";" and depth == 0:
                    last = self.next()
                    progressed = True
                    break
                elif t.value == "?>" and depth == 0:
                    break
            last = self.next()
            progressed = True
        if not progressed:
            return None
        return self.b.add(astree.other("opaque"), line_start=t0.line, line_end=last.line_end)

    def parse_statement(self) -> int | None:
        t = self.peek()
        if t.type == "ident":
            kw = t.value.lower()
            if kw in _KEYWORDS:
                return self._parse_keyword_statement(kw)
        if t.type == "op" and t.value == "{":
            self.next()
            stmts = self.parse_statements_until(("}",))
            close = self.expect_op("}")
            sl = self.b.add(astree.STMT_LIST, stmts, line_start=t.line, line_end=close.line_end)
            self.b.span_from_children(sl)
            return sl
        expr = self.parse_expr()
        self._finish_simple_statement(expr)
        return expr

    def _finish_simple_statement(self, node_id: int) -> None:
        t = self.toks[self.pos]
        if t.type == "op" and t.value == ";":
            self.pos += 1
            n = self.b._nodes[node_id]
            if t.line_end > n.line_end:
                n.line_end = t.line_end
        elif not (t.type == "op" and t.value == "?>" or t.type == "eof"):
            raise ParseError("expected ';' after statement", t.line or self.last_line)

    def _parse_keyword_statement(self, kw: str) -> int | None:
        t = self.next()
        if kw == "echo":
            exprs = [self.parse_expr()]
            while self.at_op(","):
                self.next()
                exprs.append(self.parse_expr())
            node = self.b.add(astree.ECHO, exprs, line_start=t.line, line_end=t.line_end)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw == "print":
            expr = self.parse_expr()
            node = self.b.add(astree.other("print"), [expr], line_start=t.line)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw == "if":
            return self._parse_if(t)
        if kw in ("endif", "endwhile", "endforeach", "endfor", "endswitch"):
            raise ParseError("'%s' without matching block" % kw, t.line)
        if kw == "while":
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            body, end_line = self._parse_block("endwhile")
            node = self.b.add(astree.WHILE, [cond, body], line_start=t.line, line_end=end_line)
            self.b.span_from_children(node)
            return node
        if kw == "foreach":
            return self._parse_foreach(t)
        if kw == "for":
            return self._parse_for(t)
        if kw == "return":
            children = []
            if not (self.at_op(";") or self.at_op("?>") or self.peek().type == "eof"):
                children.append(self.parse_expr())
            node = self.b.add(astree.RETURN, children, line_start=t.line, line_end=t.line_end)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw == "function":
            return self._parse_function(t)
        if kw in ("class", "interface", "trait", "enum", "abstract", "final"):
            return self._parse_classlike(t, kw)
        if kw == "global":
            children = []
            while self.peek().type == "var":
                v = self.next()
                children.append(self.b.add(astree.VAR, symbol=v.value, line_start=v.line))
                if self.at_op(","):
                    self.next()
            node = self.b.add(astree.other("global"), children, line_start=t.line, line_end=t.line_end)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw in ("include", "include_once", "require", "require_once"):
            expr = self.parse_expr()
            node = self.b.add(astree.other(kw), [expr], line_start=t.line)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw == "switch":
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            end_line = self._skip_balanced_braces()
            node = self.b.add(astree.other("switch"), [cond], line_start=t.line, line_end=end_line)
            return node
        if kw == "do":
            body, _ = self._parse_block(None)
            if not self.at_kw("while"):
                raise ParseError("expected 'while' after do block", self.peek().line)
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            close = self.expect_op(")")
            node = self.b.add(astree.other("do"), [body, cond],
                              line_start=t.line, line_end=close.line_end)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw in ("break", "continue"):
            if self.peek().type == "number":
                self.next()
            node = self.b.add(astree.other(kw), line_start=t.line, line_end=t.line_end)
            self._finish_simple_statement(node)
            return node
        if kw == "try":
            end_line = self._skip_balanced_braces()
            while self.at_kw("catch", "finally"):
                self.next()
                if self.at_op("("):
                    self._skip_balanced_parens()
                end_line = self._skip_balanced_braces()
            return self.b.add(astree.other("try"), line_start=t.line, line_end=end_line)
        if kw == "throw":
            expr = self.parse_expr()
            node = self.b.add(astree.other("throw"), [expr], line_start=t.line)
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw in ("namespace", "use"):
            last = t
            while not (self.at_op(";") or self.at_op("?>") or self.peek().type == "eof"):
                if self.at_op("{"):
                    end_line = self._skip_balanced_braces()
                    return self.b.add(astree.other(kw), line_start=t.line, line_end=end_line)
                last = self.next()
            if self.at_op(";"):
                last = self.next()
            return self.b.add(astree.other(kw), line_start=t.line, line_end=last.line_end)
        if kw in ("elseif", "else"):
            raise ParseError("'%s' without matching if" % kw, t.line)
        raise ParseError("unhandled keyword %r" % kw, t.line)

    def _parse_if(self, t: Token) -> int:
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then_sl, end_line = self._parse_block("endif", alt_closers=("elseif", "else"))
        children = [cond, then_sl]
        if self.at_kw("elseif"):
            kw_tok = self.peek()
            self.next()
            nested = self._parse_if(kw_tok)
            else_sl = self.b.add(astree.STMT_LIST, [nested],
                                 line_start=kw_tok.line)
            self.b.span_from_children(else_sl)
            children.append(else_sl)
        elif self.at_kw("else"):
            self.next()
            if self.at_kw("if"):
                kw_tok = self.peek()
                self.next()
                nested = self._parse_if(kw_tok)
                else_sl = self.b.add(astree.STMT_LIST, [nested], line_start=kw_tok.line)
                self.b.span_from_children(else_sl)
            else:
                else_sl, end_line = self._parse_block("endif")
            children.append(else_sl)
        node = self.b.add(astree.IF, children, line_start=t.line, line_end=end_line)
        self.b.span_from_children(node)
        return node

    def _parse_foreach(self, t: Token) -> int:
        self.expect_op("(")
        iterable = self.parse_expr()
        if not self.at_kw("as"):
            raise ParseError("expected 'as' in foreach", self.peek().line)
        self.next()
        if self.at_op("&"):
            self.next()
        first = self.parse_expr()
        key = None
        value = first
        if self.at_op("=>"):
            self.next()
            if self.at_op("&"):
                self.next()
            key = first
            value = self.parse_expr()
        self.expect_op(")")
        body, end_line = self._parse_block("endforeach")
        children = [iterable] + ([key] if key is not None else []) + [value, body]
        node = self.b.add(astree.FOREACH, children, line_start=t.line, line_end=end_line)
        self.b.span_from_children(node)
        return node

    def _parse_for(self, t: Token) -> int:
        self.expect_op("(")
        children = []
        for part in range(3):
            if not self.at_op(";") and not self.at_op(")"):
                children.append(self.parse_expr())
                while self.at_op(","):
                    self.next()
                    children.append(self.parse_expr())
            if part < 2:
                self.expect_op(";")
        self.expect_op(")")
        body, end_line = self._parse_block("endfor")
        children.append(body)
        node = self.b.add(astree.other("for"), children, line_start=t.line, line_end=end_line)
        self.b.span_from_children(node)
        return node

    def _parse_block(self, alt_end: str | None,
                     alt_closers: tuple[str, ...] = ()) -> tuple[int, int]:
        """Parse a {...} block, an alternative ':' block, or a single statement.

        Returns (StmtList id, end line).
        """
        if self.at_op("{"):
            open_tok = self.next()
            stmts = self.parse_statements_until(("}",))
            close = self.expect_op("}")
            sl = self.b.add(astree.STMT_LIST, stmts,
                            line_start=open_tok.line, line_end=close.line_end)
            return sl, close.line_end
        if self.at_op(":") and alt_end is not None:
            open_tok = self.next()
            kw_stops = (alt_end,) + tuple(alt_closers)
            stmts = self.parse_statements_until((), kw_closers=kw_stops)
            t = self.peek()
            if t.type == "eof":
                raise ParseError("unterminated '%s' block" % alt_end, open_tok.line)
            end_line = t.line
            if self.at_kw(alt_end):
                self.next()
                if self.at_op(";"):
                    end_line = self.next().line_end
            sl = self.b.add(astree.STMT_LIST, stmts,
                            line_start=open_tok.line, line_end=end_line)
            self.b.span_from_children(sl)
            return sl, end_line
        if self.at_op(";"):
            semi = self.next()
            sl = self.b.add(astree.STMT_LIST, [],
                            line_start=semi.line, line_end=semi.line_end)
            return sl, semi.line_end
        stmt = self.parse_statement()
        stmts = [stmt] if stmt is not None else []
        start = self.b._nodes[stmt].line_start if stmt is not None else self.last_line
        sl = self.b.add(astree.STMT_LIST, stmts, line_start=start)
        self.b.span_from_children(sl)
        return sl, self.b._nodes[sl].line_end

    def _parse_function(self, t: Token) -> int:
        if self.peek().type == "ident" or self.at_op("&"):
            if self.at_op("&"):
                self.next()
            if self.peek().type == "ident":
                self.next()  # function name, not preserved
        self._skip_balanced_parens()
        while not self.at_op("{") and self.peek().type != "eof":
            if self.at_op(";"):  # abstract/interface signature
                semi = self.next()
                return self.b.add(astree.other("function"),
                                  line_start=t.line, line_end=semi.line_end)
            self.next()
        open_tok = self.expect_op("{")
        stmts = self.parse_statements_until(("}",))
        close = self.expect_op("}")
        body = self.b.add(astree.STMT_LIST, stmts,
                          line_start=open_tok.line, line_end=close.line_end)
        node = self.b.add(astree.other("function"), [body],
                          line_start=t.line, line_end=close.line_end)
        return node

    def _parse_classlike(self, t: Token, kw: str) -> int:
        while self.at_kw("abstract", "final", "readonly"):
            self.next()
        if self.at_kw("class", "interface", "trait", "enum"):
            self.next()
        if self.peek().type == "ident":
            self.next()  # class name
        while not self.at_op("{") and self.peek().type != "eof":
            self.next()  # extends/implements clause
        if self.peek().type == "eof":
            raise ParseError("unterminated class declaration", t.line)
        self.expect_op("{")
        members: list[int] = []
        end_line = t.line
        while True:
            tok = self.peek()
            if tok.type == "eof":
                raise ParseError("unbalanced class body", t.line)
            if tok.type == "op" and tok.value == "}":
                end_line = self.next().line_end
                break
            if tok.type == "ident" and tok.value.lower() in (
                    "public", "private", "protected", "static", "var",
                    "final", "abstract", "readonly"):
                self.next()
                continue
            if tok.type == "ident" and tok.value.lower() == "function":
                self.next()
                members.append(self._parse_function(tok))
                continue
            if tok.type == "ident" and tok.value.lower() in ("const", "use", "case"):
                while not self.at_op(";") and self.peek().type != "eof":
                    if self.at_op("{"):
                        self._skip_balanced_braces()
                        break
                    self.next()
                if self.at_op(";"):
                    self.next()
                continue
            if tok.type == "var":
                while not self.at_op(";") and self.peek().type != "eof":
                    self.next()
                if self.at_op(";"):
                    self.next()
                continue
            self.next()  # unknown member token, skip
        node = self.b.add(astree.other("class"), members, line_start=t.line, line_end=end_line)
        return node

    def _skip_balanced_parens(self) -> int:
        self.expect_op("(")
        depth = 1
        while depth:
            tok = self.next()
            if tok.type == "eof":
                raise ParseError("unbalanced parentheses", self.last_line)
            if tok.type == "op":
                if tok.value == "(":
                    depth += 1
                elif tok.value == ")":
                    depth -= 1
        return tok.line_end

    def _skip_balanced_braces(self) -> int:
        while not self.at_op("{"):
            if self.peek().type == "eof":
                raise ParseError("expected '{'", self.last_line)
            self.next()
        self.next()
        depth = 1
        while depth:
            tok = self.next()
            if tok.type == "eof":
                raise ParseError("unbalanced braces", self.last_line)
            if tok.type == "op":
                if tok.value == "{":
                    depth += 1
                elif tok.value == "}":
                    depth -= 1
        return tok.line_end

    # -- expressions -------------------------------------------------------
    def parse_expr(self) -> int:
        node = self._parse_assign()
        t = self.toks[self.pos]
        while t.type == "ident" and t.value.lower() in _WORD_OPS:
            self.pos += 1
            rhs = self._parse_assign()
            node = self._binnode(t.value.lower(), node, rhs)
            t = self.toks[self.pos]
        return node

    def _parse_assign(self) -> int:
        left = self._parse_ternary()
        t = self.toks[self.pos]
        if t.type != "op":
            return left
        if t.value == "=":
            kind = astree.ASSIGN
        elif t.value in _AUG_ASSIGN:
            kind = "AugAssign:" + t.value
        else:
            return left
        self.pos += 1
        right = self._parse_assign()
        node = self.b.add(kind, (left, right), line_start=self.b._nodes[left].line_start)
        self.b.span_from_children(node)
        return node

    def _parse_ternary(self) -> int:
        cond = self._parse_binary(1)
        t = self.toks[self.pos]
        if t.type != "op" or t.value != "?":
            return cond
        self.pos += 1
        children = [cond]
        if self.at_op(":"):
            self.pos += 1
        else:
            children.append(self._parse_assign())
            self.expect_op(":")
        children.append(self._parse_assign())
        node = self.b.add(astree.other("ternary"), children,
                          line_start=self.b._nodes[cond].line_start)
        self.b.span_from_children(node)
        return node

    def _parse_binary(self, min_prec: int) -> int:
        left = self._parse_unary()
        while True:
            t = self.toks[self.pos]
            if t.type == "op":
                op = t.value
            elif t.type == "ident":
                op = t.value.lower()  # only "instanceof" has a precedence
            else:
                return left
            prec = _BIN_PREC.get(op, 0)
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = self._binnode(op, left, right)

    def _binnode(self, op: str, left: int, right: int) -> int:
        kind = astree.CONCAT if op == "." else astree.binop(op)
        node = self.b.add(kind, (left, right),
                          line_start=self.b._nodes[left].line_start)
        self.b.span_from_children(node)
        return node

    def _parse_unary(self) -> int:
        t = self.toks[self.pos]
        if t.type == "op":
            if t.value in _UNARY:
                self.pos += 1
                operand = self._parse_unary()
                node = self.b.add("UnaryOp:" + t.value, (operand,), line_start=t.line)
                self.b.span_from_children(node)
                return node
            if t.value == "@" or t.value == "&":
                self.pos += 1  # error-suppression and references are transparent
                return self._parse_unary()
            if t.value == "(":
                nxt, after = self.toks[self.pos + 1], self.toks[self.pos + 2]
                if (nxt.type == "ident" and nxt.value.lower() in _CASTS
                        and after.type == "op" and after.value == ")"):
                    self.pos += 3
                    operand = self._parse_unary()
                    node = self.b.add("Cast:" + nxt.value.lower(), (operand,),
                                      line_start=t.line)
                    self.b.span_from_children(node)
                    return node
        elif t.type == "ident":
            word = t.value.lower()
            if word == "new" or word == "clone" or word == "print":
                self.pos += 1
                operand = self.parse_expr() if word == "print" else self._parse_unary()
                node = self.b.add(astree.other(word), (operand,), line_start=t.line)
                self.b.span_from_children(node)
                return node
        return self._parse_postfix()

    def _parse_postfix(self) -> int:
        node = self._parse_primary()
        toks, nodes = self.toks, self.b._nodes
        while True:
            t = toks[self.pos]
            if t.type != "op" or t.value not in _POSTFIX:
                return node
            base = nodes[node]
            if t.value == "(":
                args = self._parse_arglist()
                kind = astree.CALL if base.kind in (astree.NAME, astree.VAR) \
                    else astree.other("call")
                node = self.b.add(kind, (node, args), line_start=base.line_start)
            elif t.value == "[":
                self.pos += 1
                if self.at_op("]"):
                    close = self.next()
                    idx = self.b.add(astree.other("empty_index"),
                                     line_start=t.line, line_end=close.line_end)
                else:
                    idx = self.parse_expr()
                    close = self.expect_op("]")
                node = self.b.add(astree.ARRAY_DIM, (node, idx),
                                  line_start=base.line_start, line_end=close.line_end)
            elif t.value == "->" or t.value == "::":
                self.pos += 1
                member_tok = toks[self.pos]
                if member_tok.type == "ident":
                    self.pos += 1
                    member = self.b.add(astree.NAME, symbol=member_tok.value,
                                        line_start=member_tok.line)
                elif member_tok.type == "var":
                    self.pos += 1
                    member = self.b.add(astree.VAR, symbol=member_tok.value,
                                        line_start=member_tok.line)
                elif member_tok.type == "op" and member_tok.value == "{":
                    self.pos += 1
                    member = self.parse_expr()
                    self.expect_op("}")
                else:
                    raise ParseError("expected member name after %r" % t.value, t.line)
                tag = "prop" if t.value == "->" else "static_prop"
                node = self.b.add(astree.other(tag), (node, member),
                                  line_start=base.line_start)
            else:  # postfix ++ / --
                self.pos += 1
                node = self.b.add("UnaryOp:post" + t.value, (node,),
                                  line_start=base.line_start, line_end=t.line_end)
            self.b.span_from_children(node)

    def _parse_arglist(self) -> int:
        open_tok = self.expect_op("(")
        args: list[int] = []
        if not self.at_op(")"):
            while True:
                if self.at_op("..."):
                    spread_tok = self.next()
                    inner = self.parse_expr()
                    arg = self.b.add(astree.other("spread"), [inner],
                                     line_start=spread_tok.line)
                    self.b.span_from_children(arg)
                else:
                    arg = self.parse_expr()
                    if self.at_op("=>"):  # array(...) literals share this path
                        self.next()
                        val = self.parse_expr()
                        pair = self.b.add(astree.other("kv"), [arg, val],
                                          line_start=self.b._nodes[arg].line_start)
                        self.b.span_from_children(pair)
                        arg = pair
                args.append(arg)
                if self.at_op(","):
                    self.next()
                    if self.at_op(")"):
                        break
                    continue
                break
        close = self.expect_op(")")
        node = self.b.add(astree.ARG_LIST, args,
                          line_start=open_tok.line, line_end=close.line_end)
        return node

    def _parse_primary(self) -> int:
        t = self.toks[self.pos]
        tt = t.type
        if tt == "var":
            self.pos += 1
            return self.b.add(astree.VAR, symbol=t.value, line_start=t.line)
        if tt == "number" or tt == "sq":
            self.pos += 1
            return self.b.add(astree.LITERAL, value=t.value,
                              line_start=t.line, line_end=t.line_end)
        if tt == "dq":
            self.pos += 1
            return _build_interpolated(self.b, t)
        symbol = None
        if tt == "ident":
            word = t.value.lower()
            self.pos += 1
            if word in ("true", "false", "null"):
                return self.b.add(astree.LITERAL, value=word, line_start=t.line)
            if word == "function":
                return self._parse_closure(t)
            if word == "fn":
                self._skip_balanced_parens()
                self.expect_op("=>")
                body = self.parse_expr()
                node = self.b.add(astree.other("closure"), [body], line_start=t.line)
                self.b.span_from_children(node)
                return node
            symbol = t.value
        elif tt == "op":
            if t.value == "(":
                self.pos += 1
                inner = self.parse_expr()
                self.expect_op(")")
                return inner
            if t.value == "[":
                return self._parse_array_literal()
            if t.value == "$":
                self.pos += 1
                if self.at_op("{"):
                    self.pos += 1
                    inner = self.parse_expr()
                    close = self.expect_op("}")
                    return self.b.add(astree.other("varvar"), [inner],
                                      line_start=t.line, line_end=close.line_end)
                inner = self._parse_primary()
                node = self.b.add(astree.other("varvar"), [inner], line_start=t.line)
                self.b.span_from_children(node)
                return node
            if t.value == "\\" and self.toks[self.pos + 1].type == "ident":
                symbol = ""  # a fully qualified name: the loop below takes "\\name"
        if symbol is None:
            raise ParseError("unexpected token %r" % (t.value or t.type),
                             t.line or self.last_line)
        while self.at_op("\\") and self.toks[self.pos + 1].type == "ident":
            symbol += "\\" + self.toks[self.pos + 1].value
            self.pos += 2
        return self.b.add(astree.NAME, symbol=symbol, line_start=t.line)

    def _parse_closure(self, t: Token) -> int:
        self._skip_balanced_parens()
        if self.at_kw("use"):
            self.next()
            self._skip_balanced_parens()
        while not self.at_op("{") and self.peek().type != "eof":
            self.next()
        open_tok = self.expect_op("{")
        stmts = self.parse_statements_until(("}",))
        close = self.expect_op("}")
        body = self.b.add(astree.STMT_LIST, stmts,
                          line_start=open_tok.line, line_end=close.line_end)
        return self.b.add(astree.other("closure"), [body],
                          line_start=t.line, line_end=close.line_end)

    def _parse_array_literal(self) -> int:
        open_tok = self.expect_op("[")
        items: list[int] = []
        while not self.at_op("]"):
            if self.peek().type == "eof":
                raise ParseError("unterminated array literal", open_tok.line)
            item = self.parse_expr()
            if self.at_op("=>"):
                self.next()
                val = self.parse_expr()
                pair = self.b.add(astree.other("kv"), [item, val],
                                  line_start=self.b._nodes[item].line_start)
                self.b.span_from_children(pair)
                item = pair
            items.append(item)
            if self.at_op(","):
                self.next()
        close = self.expect_op("]")
        node = self.b.add(astree.other("array"), items,
                          line_start=open_tok.line, line_end=close.line_end)
        return node


# ---------------------------------------------------------------------------
# Double-quoted string interpolation
# ---------------------------------------------------------------------------

def _build_interpolated(b: TreeBuilder, tok: Token) -> int:
    """Turn a double-quoted token into Encapsed(Literal/Var/... parts) or a plain Literal."""
    raw = tok.value
    parts: list[int] = []
    buf: list[str] = []
    i, n = 0, len(raw)
    line = tok.line + 1 if tok.heredoc else tok.line  # heredoc bodies start on the next line
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
            end = _find_closing_brace(raw, i + 1)
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
            end = _find_closing_brace(raw, i)
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
        return b.add(astree.LITERAL, value=raw, line_start=tok.line, line_end=tok.line_end)
    flush(line)
    node = b.add(astree.ENCAPSED, parts, line_start=tok.line, line_end=tok.line_end)
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
    return j, line


def _find_closing_brace(raw: str, start: int) -> int:
    """Index of the '}' matching raw[start] == '{' (quote-aware), or -1."""
    depth = 0
    i = start
    quote = None
    while i < len(raw):
        ch = raw[i]
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_source(text: str | bytes, path: str = "<memory>") -> SourceUnit:
    """Parse PHP source into a SourceUnit.

    Raises LexError / ParseError (both carry a line number) when the file
    cannot be tokenized or has unbalanced delimiters; callers scanning a
    corpus treat that as a skippable file.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    if text.startswith("\ufeff"):
        text = text[1:]
    toks = tokenize(text)
    b = TreeBuilder()
    p = _Parser(toks, b)
    stmts = p.parse_statements_until(())
    if p.peek().type != "eof":
        raise ParseError("unexpected %r at top level" % p.peek().value, p.peek().line)
    # token lines never decrease, so the last token ends on the last line
    root = b.add(astree.STMT_LIST, stmts, line_start=1, line_end=p.last_line)
    return b.finish(path, root)
