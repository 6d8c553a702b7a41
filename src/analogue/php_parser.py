"""Tokenizer and recursive-descent parser for a pragmatic PHP subset.

Covers the constructs that matter for snippet matching: assignments, calls,
echo, array indexing, superglobals, single/double-quoted strings with
interpolation, concatenation, if/while/foreach, return and inline HTML.
Anything else is represented as a tagged ``Other:*`` node with best-effort
children, so files never need full-language support to be scannable.

A token is a plain tuple ``(type, value, line, line_end, heredoc)``: type is
one of html, var, ident, number, sq, dq, op and eof; line and line_end are
the first and last line of its text; heredoc is True only for the sq/dq
token of a heredoc or nowdoc body, whose text starts on the line after
``line``.

Each statement construct has one rule.  ``parse_statement`` dispatches on
a leading keyword of ``_KEYWORDS`` and reads anything else as an expression
statement.  ``_parse_block`` reads every body: ``{ ... }`` (a ``{`` in
statement position too), an alternative ``: ... endwhile;`` block or a
single statement.  ``_parse_function`` reads functions, methods and
closures.  Every call on these paths costs one stack frame per nesting
level, and the recursion limit turns frames into the deepest nesting a file
may have.  A closure is already five frames below its statement (an
assignment's two ``parse_expr`` calls, unary, postfix, primary), so
``_parse_function`` builds its body inline instead of through
``_parse_block``, which would cost one more frame per nested closure.

``parse_expr`` climbs these precedence levels, loosest first:

- ``or``, ``and``, ``xor``: one level, left-associative;
- ``=`` and the ``op=`` assignments: right-associative;
- the ternary ``? :`` and ``?:``: both branches at assignment level;
- the binary operators of ``_BIN_PREC``, 1 (``??``) to 12 (``**``),
  ``instanceof`` among them: left-associative;
- prefix operators and casts, then postfix operators, then primaries.

The left operand of an assignment is whatever binds tighter, so
``$a + $b = 1`` is ``Assign(BinOp, 1)``, and a ternary's else branch takes a
following assignment, as in ``$a ? $b : ($c = 1)``.
"""
from __future__ import annotations

import re

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


# (type, value, line, line_end, heredoc); see the module docstring.
Token = tuple[str, str, int, int, bool]


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
    r"|(?P<close>\?>(?:\r\n|\n|\r)?)|(?P<heredoc><<<)|(?P<comment>/\*)"
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
            append((kind, text[s:i], line, line, False))
        elif kind == "sq" or kind == "dq":
            value = text[s + 1:i - 1]
            end = line + value.count("\n")
            append((kind, value, line, end, False))
            line = end
        elif kind == "number":
            if text[s] == "." and not text[i].isdigit():
                append(("op", ".", line, line, False))
            else:
                i = _number_end(text, s)
                append(("number", text[s:i], line, line, False))
        elif kind == "close":  # PHP swallows one \r\n, \n or \r after ?>
            append(("op", "?>", line, line, False))
            return i, line + (text[i - 1] == "\n")
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
            toks.append(("sq" if nowdoc else "dq", body, line, max(line, ln - 1), True))
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

_WORD_PREC, _ASSIGN_PREC, _TERNARY_PREC = -2, -1, 0

# operator -> (precedence, precedence of its right operand, node kind).
# Binary operators are left-associative, assignments right-associative, and
# both branches of a ternary are parsed at assignment level.
_OPERATORS = {op: (prec, prec + 1, astree.CONCAT if op == "." else astree.binop(op))
              for op, prec in _BIN_PREC.items()}
_OPERATORS.update({op: (_WORD_PREC, _ASSIGN_PREC, astree.binop(op))
                   for op in ("or", "and", "xor")})
_OPERATORS.update({op: (_ASSIGN_PREC, _ASSIGN_PREC, "AugAssign:" + op)
                   for op in ("+=", "-=", "*=", "/=", ".=", "%=", "**=", "??=", "|=",
                              "&=", "^=", "<<=", ">>=")})
_OPERATORS["="] = (_ASSIGN_PREC, _ASSIGN_PREC, astree.ASSIGN)
_OPERATORS["?"] = (_TERNARY_PREC, _ASSIGN_PREC, astree.other("ternary"))

_UNARY = frozenset({"!", "-", "+", "~", "++", "--"})
_POSTFIX = frozenset({"(", "[", "->", "::", "++", "--"})

_EOF = ("eof", "", 0, 0, False)
# Lookahead reads at most two tokens past pos, and pos passes the first EOF
# (by one) only right before a ParseError, so three EOFs after the last token
# keep every read in range without a bounds check.
_EOF_PAD = [_EOF] * 3


class _Parser:
    def __init__(self, toks: list[Token], builder: TreeBuilder):
        self.toks = toks + _EOF_PAD
        self.pos = 0
        self.b = builder
        self.last_line = toks[-1][3] if toks else 1

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_op(self, *vals: str) -> bool:
        t = self.toks[self.pos]
        return t[0] == "op" and t[1] in vals

    def at_kw(self, *words: str) -> bool:
        t = self.toks[self.pos]
        return t[0] == "ident" and t[1].lower() in words

    def expect_op(self, val: str) -> Token:
        t = self.toks[self.pos]
        if t[0] != "op" or t[1] != val:
            raise ParseError("expected %r, found %r" % (val, t[1] or t[0]),
                             t[2] or self.last_line)
        self.pos += 1
        return t

    # -- statements --------------------------------------------------------
    def parse_statements_until(self, closers: tuple[str, ...],
                               kw_closers: tuple[str, ...] = ()) -> list[int]:
        out: list[int] = []
        while True:
            t = self.toks[self.pos]
            if t[0] == "eof":
                break
            if t[0] == "op":
                if t[1] in closers:
                    break
                if t[1] == "?>" or t[1] == ";":
                    self.pos += 1
                    continue
            elif t[0] == "html":
                self.pos += 1
                out.append(self.b.add(astree.HTML, line_start=t[2], line_end=t[3]))
                continue
            elif kw_closers and t[0] == "ident" and t[1].lower() in kw_closers:
                break
            start_pos = self.pos
            node_mark = self.b.mark()
            try:
                if t[0] == "op" and t[1] == "{":
                    sid = self._parse_block(None)[0]
                else:
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
            if t[0] == "eof":
                if depth > 0:
                    raise ParseError("unbalanced delimiters", last[3])
                break
            if t[0] == "op":
                if t[1] in "([{":
                    depth += 1
                elif t[1] in ")]}":
                    if depth == 0:
                        if not progressed:
                            raise ParseError("unexpected %r" % t[1], t[2])
                        break
                    depth -= 1
                elif t[1] == ";" and depth == 0:
                    last = self.next()
                    progressed = True
                    break
                elif t[1] == "?>" and depth == 0:
                    break
            last = self.next()
            progressed = True
        if not progressed:
            return None
        return self.b.add(astree.other("opaque"), line_start=t0[2], line_end=last[3])

    def parse_statement(self) -> int:
        """One statement that does not start with '{' (see parse_statements_until)."""
        t = self.toks[self.pos]
        kw = t[1].lower() if t[0] == "ident" else ""
        if kw not in _KEYWORDS:
            expr = self.parse_expr()
            self._finish_simple_statement(expr)
            return expr
        self.pos += 1
        if kw == "echo":
            exprs = [self.parse_expr()]
            while self.at_op(","):
                self.next()
                exprs.append(self.parse_expr())
            return self._simple(astree.ECHO, exprs, t)
        if kw == "print":
            return self._simple(astree.other("print"), [self.parse_expr()], t)
        if kw == "if":
            return self._parse_if(t)
        if kw in ("endif", "endwhile", "endforeach", "endfor", "endswitch"):
            raise ParseError("'%s' without matching block" % kw, t[2])
        if kw == "while":
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            body, end_line = self._parse_block("endwhile")
            node = self.b.add(astree.WHILE, [cond, body], line_start=t[2], line_end=end_line)
            self.b.span_from_children(node)
            return node
        if kw == "foreach":
            return self._parse_foreach(t)
        if kw == "for":
            return self._parse_for(t)
        if kw == "return":
            children = []
            if not (self.at_op(";") or self.at_op("?>") or self.peek()[0] == "eof"):
                children.append(self.parse_expr())
            return self._simple(astree.RETURN, children, t)
        if kw == "function":
            return self._parse_function(t, "function")
        if kw in ("class", "interface", "trait", "enum", "abstract", "final"):
            return self._parse_classlike(t)
        if kw == "global":
            children = []
            while self.peek()[0] == "var":
                v = self.next()
                children.append(self.b.add(astree.VAR, symbol=v[1], line_start=v[2]))
                if self.at_op(","):
                    self.next()
            return self._simple(astree.other("global"), children, t)
        if kw in ("include", "include_once", "require", "require_once", "throw"):
            return self._simple(astree.other(kw), [self.parse_expr()], t)
        if kw == "switch":
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            end_line = self._skip_balanced("{")
            return self.b.add(astree.other("switch"), [cond], line_start=t[2], line_end=end_line)
        if kw == "do":
            body, _ = self._parse_block(None)
            if not self.at_kw("while"):
                raise ParseError("expected 'while' after do block", self.peek()[2])
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            close = self.expect_op(")")
            node = self.b.add(astree.other("do"), [body, cond],
                              line_start=t[2], line_end=close[3])
            self.b.span_from_children(node)
            self._finish_simple_statement(node)
            return node
        if kw in ("break", "continue"):
            if self.peek()[0] == "number":
                self.next()
            return self._simple(astree.other(kw), [], t)
        if kw == "try":
            end_line = self._skip_balanced("{")
            while self.at_kw("catch", "finally"):
                self.next()
                if self.at_op("("):
                    self._skip_balanced("(")
                end_line = self._skip_balanced("{")
            return self.b.add(astree.other("try"), line_start=t[2], line_end=end_line)
        if kw in ("namespace", "use"):
            last = t
            while not (self.at_op(";") or self.at_op("?>") or self.peek()[0] == "eof"):
                if self.at_op("{"):
                    end_line = self._skip_balanced("{")
                    return self.b.add(astree.other(kw), line_start=t[2], line_end=end_line)
                last = self.next()
            if self.at_op(";"):
                last = self.next()
            return self.b.add(astree.other(kw), line_start=t[2], line_end=last[3])
        raise ParseError("'%s' without matching if" % kw, t[2])  # elseif, else

    def _simple(self, kind: str, children: list[int], t: Token) -> int:
        """The node of keyword t's statement, spanning t and children; takes its ';'."""
        node = self.b.add(kind, children, line_start=t[2], line_end=t[3])
        self.b.span_from_children(node)
        self._finish_simple_statement(node)
        return node

    def _finish_simple_statement(self, node_id: int) -> None:
        t = self.toks[self.pos]
        if t[0] == "op" and t[1] == ";":
            self.pos += 1
            n = self.b._nodes[node_id]
            if t[3] > n.line_end:
                n.line_end = t[3]
        elif not (t[0] == "op" and t[1] == "?>" or t[0] == "eof"):
            raise ParseError("expected ';' after statement", t[2] or self.last_line)

    def _parse_if(self, t: Token) -> int:
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then_sl, end_line = self._parse_block("endif", alt_closers=("elseif", "else"))
        children = [cond, then_sl]
        elif_tok = None
        if self.at_kw("elseif"):
            elif_tok = self.next()
        elif self.at_kw("else"):
            self.next()
            if self.at_kw("if"):  # "else if" is "elseif"
                elif_tok = self.next()
            else:
                else_sl, end_line = self._parse_block("endif")
                children.append(else_sl)
        if elif_tok is not None:
            # the nested if is the else branch's only statement
            else_sl = self.b.add(astree.STMT_LIST, [self._parse_if(elif_tok)],
                                 line_start=elif_tok[2])
            self.b.span_from_children(else_sl)
            children.append(else_sl)
        node = self.b.add(astree.IF, children, line_start=t[2], line_end=end_line)
        self.b.span_from_children(node)
        return node

    def _parse_foreach(self, t: Token) -> int:
        self.expect_op("(")
        iterable = self.parse_expr()
        if not self.at_kw("as"):
            raise ParseError("expected 'as' in foreach", self.peek()[2])
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
        node = self.b.add(astree.FOREACH, children, line_start=t[2], line_end=end_line)
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
        node = self.b.add(astree.other("for"), children, line_start=t[2], line_end=end_line)
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
                            line_start=open_tok[2], line_end=close[3])
            return sl, close[3]
        if self.at_op(":") and alt_end is not None:
            open_tok = self.next()
            kw_stops = (alt_end,) + tuple(alt_closers)
            stmts = self.parse_statements_until((), kw_closers=kw_stops)
            t = self.peek()
            if t[0] == "eof":
                raise ParseError("unterminated '%s' block" % alt_end, open_tok[2])
            end_line = t[2]
            if self.at_kw(alt_end):
                self.next()
                if self.at_op(";"):
                    end_line = self.next()[3]
            sl = self.b.add(astree.STMT_LIST, stmts,
                            line_start=open_tok[2], line_end=end_line)
            self.b.span_from_children(sl)
            return sl, end_line
        if self.at_op(";"):
            semi = self.next()
            sl = self.b.add(astree.STMT_LIST, [],
                            line_start=semi[2], line_end=semi[3])
            return sl, semi[3]
        stmt = self.parse_statement()
        sl = self.b.add(astree.STMT_LIST, [stmt], line_start=self.b._nodes[stmt].line_start)
        self.b.span_from_children(sl)
        return sl, self.b._nodes[sl].line_end

    def _parse_function(self, t: Token, tag: str) -> int:
        """A function or method (tag "function") or a closure (tag "closure")
        after its keyword t; its name, parameters, use list and return type
        are skipped.  The body is built here, not by _parse_block, to save a
        frame per nested closure (see the module docstring)."""
        if self.at_op("&"):
            self.next()
        if self.peek()[0] == "ident":
            self.next()  # function name, not preserved
        self._skip_balanced("(")
        while not self.at_op("{") and self.peek()[0] != "eof":
            if self.at_op(";"):  # abstract/interface signature
                semi = self.next()
                return self.b.add(astree.other(tag), line_start=t[2], line_end=semi[3])
            self.next()
        open_tok = self.expect_op("{")
        stmts = self.parse_statements_until(("}",))
        close = self.expect_op("}")
        body = self.b.add(astree.STMT_LIST, stmts,
                          line_start=open_tok[2], line_end=close[3])
        return self.b.add(astree.other(tag), [body], line_start=t[2], line_end=close[3])

    def _parse_classlike(self, t: Token) -> int:
        while self.at_kw("abstract", "final", "readonly"):
            self.next()
        if self.at_kw("class", "interface", "trait", "enum"):
            self.next()
        if self.peek()[0] == "ident":
            self.next()  # class name
        while not self.at_op("{") and self.peek()[0] != "eof":
            self.next()  # extends/implements clause
        if self.peek()[0] == "eof":
            raise ParseError("unterminated class declaration", t[2])
        self.expect_op("{")
        members: list[int] = []
        end_line = t[2]
        while True:
            tok = self.peek()
            if tok[0] == "eof":
                raise ParseError("unbalanced class body", t[2])
            if tok[0] == "op" and tok[1] == "}":
                end_line = self.next()[3]
                break
            if tok[0] == "ident" and tok[1].lower() in (
                    "public", "private", "protected", "static", "var",
                    "final", "abstract", "readonly"):
                self.next()
                continue
            if tok[0] == "ident" and tok[1].lower() == "function":
                self.next()
                members.append(self._parse_function(tok, "function"))
                continue
            if tok[0] == "var" or tok[0] == "ident" and tok[1].lower() in (
                    "const", "use", "case"):
                # a property, constant, trait use or enum case ends at ';' or
                # with a {...} block: property hooks or trait adaptations
                while not self.at_op(";") and self.peek()[0] != "eof":
                    if self.at_op("{"):
                        self._skip_balanced("{")
                        break
                    self.next()
                if self.at_op(";"):
                    self.next()
                continue
            self.next()  # unknown member token, skip
        node = self.b.add(astree.other("class"), members, line_start=t[2], line_end=end_line)
        return node

    def _skip_balanced(self, opener: str) -> int:
        """Skip past the next '(' or '{' and its match; return the match's end line.

        '(' must be the next token; tokens before a '{' are skipped too.
        """
        if opener == "(":
            self.expect_op("(")
        else:
            while not self.at_op("{"):
                if self.peek()[0] == "eof":
                    raise ParseError("expected '{'", self.last_line)
                self.next()
            self.next()
        closer = ")" if opener == "(" else "}"
        depth = 1
        while depth:
            tok = self.next()
            if tok[0] == "eof":
                raise ParseError("unbalanced parentheses" if opener == "("
                                 else "unbalanced braces", self.last_line)
            if tok[0] == "op":
                if tok[1] == opener:
                    depth += 1
                elif tok[1] == closer:
                    depth -= 1
        return tok[3]

    # -- expressions -------------------------------------------------------
    def parse_expr(self, min_prec: int = _WORD_PREC) -> int:
        """An expression whose operators all bind at min_prec or tighter,
        by precedence climbing over _OPERATORS."""
        left = self._parse_unary()
        toks, b = self.toks, self.b
        while True:
            t = toks[self.pos]
            if t[0] == "op":
                entry = _OPERATORS.get(t[1])
            elif t[0] == "ident":
                entry = _OPERATORS.get(t[1].lower())
            else:
                return left
            if entry is None or entry[0] < min_prec:
                return left
            self.pos += 1
            prec, rhs_prec, kind = entry
            if prec == _TERNARY_PREC:
                children = [left]
                if self.at_op(":"):
                    self.pos += 1
                else:
                    children.append(self.parse_expr(rhs_prec))
                    self.expect_op(":")
                children.append(self.parse_expr(rhs_prec))
            else:
                children = (left, self.parse_expr(rhs_prec))
            left = b.add(kind, children, line_start=b._nodes[left].line_start)
            b.span_from_children(left)

    def _parse_unary(self) -> int:
        t = self.toks[self.pos]
        if t[0] == "op":
            if t[1] in _UNARY:
                self.pos += 1
                operand = self._parse_unary()
                node = self.b.add("UnaryOp:" + t[1], (operand,), line_start=t[2])
                self.b.span_from_children(node)
                return node
            if t[1] == "@" or t[1] == "&":
                self.pos += 1  # error-suppression and references are transparent
                return self._parse_unary()
            if t[1] == "(":
                nxt, after = self.toks[self.pos + 1], self.toks[self.pos + 2]
                if (nxt[0] == "ident" and nxt[1].lower() in _CASTS
                        and after[0] == "op" and after[1] == ")"):
                    self.pos += 3
                    operand = self._parse_unary()
                    node = self.b.add("Cast:" + nxt[1].lower(), (operand,),
                                      line_start=t[2])
                    self.b.span_from_children(node)
                    return node
        elif t[0] == "ident":
            word = t[1].lower()
            if word == "new" or word == "clone" or word == "print":
                self.pos += 1
                operand = self.parse_expr() if word == "print" else self._parse_unary()
                node = self.b.add(astree.other(word), (operand,), line_start=t[2])
                self.b.span_from_children(node)
                return node
        return self._parse_postfix()

    def _parse_postfix(self) -> int:
        node = self._parse_primary()
        toks, nodes = self.toks, self.b._nodes
        while True:
            t = toks[self.pos]
            if t[0] != "op" or t[1] not in _POSTFIX:
                return node
            base = nodes[node]
            if t[1] == "(":
                args = self._parse_arglist()
                kind = astree.CALL if base.kind in (astree.NAME, astree.VAR) \
                    else astree.other("call")
                node = self.b.add(kind, (node, args), line_start=base.line_start)
            elif t[1] == "[":
                self.pos += 1
                if self.at_op("]"):
                    close = self.next()
                    idx = self.b.add(astree.other("empty_index"),
                                     line_start=t[2], line_end=close[3])
                else:
                    idx = self.parse_expr()
                    close = self.expect_op("]")
                node = self.b.add(astree.ARRAY_DIM, (node, idx),
                                  line_start=base.line_start, line_end=close[3])
            elif t[1] == "->" or t[1] == "::":
                self.pos += 1
                member_tok = toks[self.pos]
                if member_tok[0] == "ident":
                    self.pos += 1
                    member = self.b.add(astree.NAME, symbol=member_tok[1],
                                        line_start=member_tok[2])
                elif member_tok[0] == "var":
                    self.pos += 1
                    member = self.b.add(astree.VAR, symbol=member_tok[1],
                                        line_start=member_tok[2])
                elif member_tok[0] == "op" and member_tok[1] == "{":
                    self.pos += 1
                    member = self.parse_expr()
                    self.expect_op("}")
                else:
                    raise ParseError("expected member name after %r" % t[1], t[2])
                tag = "prop" if t[1] == "->" else "static_prop"
                node = self.b.add(astree.other(tag), (node, member),
                                  line_start=base.line_start)
            else:  # postfix ++ / --
                self.pos += 1
                node = self.b.add("UnaryOp:post" + t[1], (node,),
                                  line_start=base.line_start, line_end=t[3])
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
                                     line_start=spread_tok[2])
                    self.b.span_from_children(arg)
                else:
                    arg = self.parse_expr()
                    if self.at_op("=>"):  # array(...) literals share this path
                        arg = self._kv(arg)
                args.append(arg)
                if self.at_op(","):
                    self.next()
                    if self.at_op(")"):
                        break
                    continue
                break
        close = self.expect_op(")")
        node = self.b.add(astree.ARG_LIST, args,
                          line_start=open_tok[2], line_end=close[3])
        return node

    def _parse_primary(self) -> int:
        t = self.toks[self.pos]
        tt = t[0]
        if tt == "var":
            self.pos += 1
            return self.b.add(astree.VAR, symbol=t[1], line_start=t[2])
        if tt == "number" or tt == "sq":
            self.pos += 1
            return self.b.add(astree.LITERAL, value=t[1],
                              line_start=t[2], line_end=t[3])
        if tt == "dq":
            self.pos += 1
            return _build_interpolated(self.b, t)
        symbol = None
        if tt == "ident":
            word = t[1].lower()
            self.pos += 1
            if word in ("true", "false", "null"):
                return self.b.add(astree.LITERAL, value=word, line_start=t[2])
            if word == "function":
                return self._parse_function(t, "closure")
            if word == "fn":
                self._skip_balanced("(")
                self.expect_op("=>")
                body = self.parse_expr()
                node = self.b.add(astree.other("closure"), [body], line_start=t[2])
                self.b.span_from_children(node)
                return node
            symbol = t[1]
        elif tt == "op":
            if t[1] == "(":
                self.pos += 1
                inner = self.parse_expr()
                self.expect_op(")")
                return inner
            if t[1] == "[":
                return self._parse_array_literal()
            if t[1] == "$":
                self.pos += 1
                if self.at_op("{"):
                    self.pos += 1
                    inner = self.parse_expr()
                    close = self.expect_op("}")
                    return self.b.add(astree.other("varvar"), [inner],
                                      line_start=t[2], line_end=close[3])
                inner = self._parse_primary()
                node = self.b.add(astree.other("varvar"), [inner], line_start=t[2])
                self.b.span_from_children(node)
                return node
            if t[1] == "\\" and self.toks[self.pos + 1][0] == "ident":
                symbol = ""  # a fully qualified name: the loop below takes "\\name"
        if symbol is None:
            raise ParseError("unexpected token %r" % (t[1] or t[0]),
                             t[2] or self.last_line)
        while self.at_op("\\") and self.toks[self.pos + 1][0] == "ident":
            symbol += "\\" + self.toks[self.pos + 1][1]
            self.pos += 2
        return self.b.add(astree.NAME, symbol=symbol, line_start=t[2])

    def _parse_array_literal(self) -> int:
        open_tok = self.expect_op("[")
        items: list[int] = []
        while not self.at_op("]"):
            if self.peek()[0] == "eof":
                raise ParseError("unterminated array literal", open_tok[2])
            item = self.parse_expr()
            if self.at_op("=>"):
                item = self._kv(item)
            items.append(item)
            if self.at_op(","):
                self.next()
        close = self.expect_op("]")
        node = self.b.add(astree.other("array"), items,
                          line_start=open_tok[2], line_end=close[3])
        return node

    def _kv(self, key: int) -> int:
        """The pair key => value, with '=>' the next token.  Callers parse
        the key themselves, so an item without '=>' costs no frame here."""
        self.next()
        pair = self.b.add(astree.other("kv"), [key, self.parse_expr()],
                          line_start=self.b._nodes[key].line_start)
        self.b.span_from_children(pair)
        return pair


# ---------------------------------------------------------------------------
# Double-quoted string interpolation
# ---------------------------------------------------------------------------

def _build_interpolated(b: TreeBuilder, tok: Token) -> int:
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
    if p.peek()[0] != "eof":
        raise ParseError("unexpected %r at top level" % p.peek()[1], p.peek()[2])
    # token lines never decrease, so the last token ends on the last line
    root = b.add(astree.STMT_LIST, stmts, line_start=1, line_end=p.last_line)
    return b.finish(path, root)
