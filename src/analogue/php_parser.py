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

The lexer is one ``findall`` pass of one regex, ``_TOKEN``, over the file.
The regex holds the whole lexical grammar, HTML mode and heredoc bodies
included, and yields each token's text with the whitespace and comments
before it.  A number's digits are those of ``str.isdigit``: ``\\d``
(``str.isdecimal``) and the table ``_NONDECIMAL_DIGITS``.  The loop in
``_lex`` only builds the token tuples: it takes the type from the token's
first character through ``_FIRST``, counts line breaks only where the text
holds any, and raises ``LexError`` where the regex found no token.

A dq token, a double-quoted string or a heredoc body, becomes one
``Literal`` if it has no holes and else an ``Encapsed`` node of its parts.
``_build_interpolated`` finds the holes with one regex, ``_HOLE``, built
from the lexer's own name and digit classes.  These holes become nodes:
``$name``; ``$name[key]``, where the key up to the first ``]`` is ``$...``, a
digit or ``-`` and any text, a name, or a quoted text; ``$name->prop``;
``${text}``, a Var named ``$text``; and ``{$...}``, lexed and parsed as an
expression.  An escape pair, and a ``${`` or ``{$`` without its ``}``, stay
text; the text between holes becomes ``Literal`` parts.  Each part's line is
the token's first line (for a heredoc, the line after its head) plus the
line breaks before the part in the token's text.

Each statement construct has one rule.  ``parse_statement`` dispatches on
a leading keyword of ``_KEYWORDS`` and reads anything else as an expression
statement.  ``_parse_block`` reads every body: ``{ ... }`` (a ``{`` in
statement position too), an alternative ``: ... endwhile;`` block or a
single statement.  ``_parse_function`` reads functions, methods and
closures, ``static`` ones included.  PHP puts the ``{`` of a ``switch``,
``try``, ``catch (...)`` or ``finally`` body right after its head, and a
class header or a function's return type ends at ``{``, ``;`` or ``}``; so no
statement searches past itself for a ``{``, and a malformed one fails where
it stands, which keeps recovery linear in the file.

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

Most operands are leaves: a var, number or sq token.  ``parse_expr`` builds
a leaf itself, where it reads its left operand, and calls ``_parse_unary``
(prefix operators and casts) only for any other token, which falls through
to ``_parse_primary`` (the primaries that are not leaves).  The postfix loop,
``_parse_postfix``, runs only when a postfix operator follows the operand,
and extends the node already built.  A prefix operator reads its operand as
``parse_expr(_PREFIX_PREC)``, a binding power above every binary operator:
one operand and its postfix operators.  ``$`` reads its operand as
``parse_expr(_PRIMARY_PREC)``, a primary without postfix operators, so
``$$a[0]`` is ``ArrayDim(Other:varvar, 0)``.  So each leaf rule is written
once.  The hot loops (argument lists, array literals, statement lists and
an expression statement's ``;``) test token fields in place; the other
paths use the ``at_op``/``expect_op`` helpers.

Every call on these paths costs one stack frame per nesting level, and the
recursion limit (1,000 by default) turns frames into the deepest nesting a
file may have.  A parenthesis costs three frames (``parse_expr``,
``_parse_unary``, ``_parse_primary``), a ``$a . (`` group four (the binary
operator's right operand is one more ``parse_expr``), an array literal four
and a prefix operator two.  Outside pytest that allows 330 parentheses, 247
``$a . (`` groups, 247 nested array literals and 990 prefix operators in a
row.  A closure is four frames below its statement (an assignment's two
``parse_expr`` calls, unary, primary), so ``_parse_function`` builds its
body inline instead of through ``_parse_block``, which would cost one more
frame per nested closure; 141 closures nest.  A nested block costs what its
statement rule costs: 247 ``if`` blocks or 495 bare blocks nest.
"""
from __future__ import annotations

import re
import string

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


def tokenize(text: str) -> list[Token]:
    """Split a whole file into tokens; content outside <?php ... ?> becomes html tokens."""
    toks: list[Token] = []
    end = _OPEN.match(text).end()
    _lex(text, end, _html(text, 0, end, 1, toks), toks, False)
    return toks


def lex_fragment(fragment: str, start_line: int) -> list[Token]:
    """Tokenize an expression fragment (already inside PHP mode) up to a closing tag."""
    toks: list[Token] = []
    _lex(fragment, 0, start_line, toks, True)
    return toks


# The characters other than decimal digits for which str.isdigit is true
# (superscript, subscript, circled and other compatibility digits) in the
# Unicode 14 database of Python 3.11.  re's \d is str.isdecimal, so \d with
# these is str.isdigit; tests/test_lexer_differential.py checks that over
# every code point of the running interpreter.
_NONDECIMAL_DIGITS = (
    r"\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a")
_DIGIT = r"\d" + _NONDECIMAL_DIGITS
# A name's characters: all but the ASCII characters that are not letters,
# digits (to start a name, not digits either) or "_".  Spelled
# as \x80-\U0010ffff instead, each such class took 4 ms to compile.
_IDENT_CHAR = r"[^\x00-/:-@\[-^`{-\x7f]"
_IDENT = r"[^\x00-@\[-^`{-\x7f]%s*+" % _IDENT_CHAR

# HTML up to the next open tag, then the tag: <?php, <?= or <?.  At the end
# of the text there is no tag.
_HTML = r"[^<]*+(?:<(?!\?)[^<]*+)*+(?:<\?(?:php|=)?)?"
# A heredoc's start up to its label, the label being the one group.  A
# quoted label needs its closing quote.
_HEREDOC_HEAD = r"<<<[ \t]*+(?:'(?=%(c)s+')|\"(?=%(c)s+\")|)(%(c)s++)" % {"c": _IDENT_CHAR}

# One match per token: (prefix, token, label, error).  The prefix is the
# whitespace and comments before the token, and the token one of these,
# tried in this order:
# - a single-character operator that starts no longer one;
# - a variable, then a name;
# - a complete '...' or "..." string;
# - a number: 0x and hex digits, or digits and underscores with at most one
#   "." and then at most one exponent ("e" before a digit or a sign, and the
#   sign), where a digit is any character for which str.isdigit is true;
# - ?> with the one \r\n, \n or \r that PHP swallows after it, the HTML
#   after that and the next open tag;
# - a heredoc or nowdoc up to its terminator: a line that starts, after
#   spaces and tabs, with the label and no identifier character after it;
#   the label is the third group;
# - any other operator, longest first.  "/*" is no operator, nor is "<<<".
# Numbers come before ".", ?> before "?" and heredocs before "<<".  Where no
# token fits, or at the end of the text, the token is "" and the error group
# takes the rest of the text: "" at the end, and else the unterminated
# comment, string or heredoc or the unexpected character it starts with.  So
# a match never fails, and no match reads text another one has read.  The
# possessive quantifiers (*+) never give back what they took.
_TOKEN = re.compile(
    r"([ \t\n\r\v\f]*+(?:(?://|\#)[^\n?]*+(?:\?(?!>)[^\n?]*+)*+[ \t\n\r\v\f]*+"
    r"|/\*.*?\*/[ \t\n\r\v\f]*+)*+)"
    r"(?:([()\[\]{};,]|\$%(ident)s|%(ident)s"
    r"|'[^'\\]*+(?:\\.[^'\\]*+)*+'|\"[^\"\\]*+(?:\\.[^\"\\]*+)*+\""
    r"|0[xX][a-fA-F_%(d)s]*+"
    r"|(?:[0-9][_%(d)s]*+(?:\.[_%(d)s]*+)?|\.[%(d)s][_%(d)s]*+)"
    r"(?:[eE](?:[+-]|(?=[%(d)s]))[_%(d)s]*+)?"
    r"|\?>(?:\r\n|\n|\r)?%(html)s"
    r"|%(heredoc)s[^\n]*+\n(?:[^\n]*+\n)*?[ \t]*+\3(?!%(c)s)"
    r"|(?!/\*|<<<)(?:%(ops)s|[%(ops1)s]))|(.*))"
    % {"ident": _IDENT, "c": _IDENT_CHAR, "d": _DIGIT, "html": _HTML,
       "heredoc": _HEREDOC_HEAD, "ops": "|".join(map(re.escape, _OPS3 + _OPS2)),
       "ops1": re.escape(_OPS1)},
    re.DOTALL)
_OPEN = re.compile(_HTML)
_HEREDOC_START = re.compile(_HEREDOC_HEAD)

# Token type by the token's first character; a character missing here
# starts a name.  None marks the characters after which the type depends on
# more of the token.
_FIRST: dict[str, str | None] = dict.fromkeys(_OPS1, "op")
_FIRST.update(dict.fromkeys(string.ascii_letters + "_", "ident"))
_FIRST.update(dict.fromkeys(string.digits, "number"))
_FIRST.update(dict.fromkeys("$.?<'\"", None))
_DOT_OPS = frozenset({".", "...", ".="})

_LEX_ERRORS = {
    "/": "unterminated block comment",
    "'": "unterminated single-quoted string",
    '"': "unterminated double-quoted string",
}


def _lex(text: str, pos: int, line: int, toks: list[Token], fragment: bool) -> None:
    """Append the tokens of the PHP code at text[pos:]; a fragment ends at ?>."""
    append, first = toks.append, _FIRST
    for pre, tok, label, err in _TOKEN.findall(text, pos):
        if "\n" in pre:
            line += pre.count("\n")
        try:
            kind = first[tok[0]]
        except KeyError:
            kind = "ident"
        except IndexError:  # no token: the end of the text, or an error
            if err:
                raise _lex_error(err, line) from None
            return
        if kind:
            append((kind, tok, line, line, False))
            continue
        c = tok[0]
        if c == "$":
            append(("var" if len(tok) > 1 else "op", tok, line, line, False))
        elif c == "'" or c == '"':
            end = line + tok.count("\n")
            append(("sq" if c == "'" else "dq", tok[1:-1], line, end, False))
            line = end
        elif c == ".":
            append(("op" if tok in _DOT_OPS else "number", tok, line, line, False))
        elif label:
            nl, last = tok.find("\n"), tok.rfind("\n")
            nowdoc = tok[3:nl].lstrip(" \t").startswith("'")
            end = line + tok.count("\n")  # the terminator's line
            append(("sq" if nowdoc else "dq", tok[nl + 1:last] if last > nl else "",
                    line, end - 1, True))
            line = end
        elif c == "?" and tok[1:2] == ">":
            append(("op", "?>", line, line, False))
            if fragment:
                return
            i = 3 if tok[2:3] == "\r" else 2
            if tok[i:i + 1] == "\n":
                i += 1
                line += 1
            line = _html(tok, i, len(tok), line, toks)
        else:
            append(("op", tok, line, line, False))


def _html(s: str, i: int, end: int, line: int, toks: list[Token]) -> int:
    """Append the tokens of s[i:end], HTML and then an optional open tag, and
    return the line they end on."""
    tag = s.rfind("<?", i, end)
    if tag == -1:
        tag = end
    if tag > i:
        seg = s[i:tag]
        line_end = line + seg.count("\n")
        toks.append(("html", seg, line, line_end, False))
        line = line_end
    if s.startswith("<?=", tag):
        toks.append(("ident", "echo", line, line, False))
    return line


def _lex_error(err: str, line: int) -> LexError:
    """The error for the rest of the text, err, where no token fits."""
    if err[0] == "<":  # only <<< gets here
        return LexError("unterminated heredoc" if _HEREDOC_START.match(err)
                        else "malformed heredoc start", line)
    return LexError(_LEX_ERRORS.get(err[0]) or "unexpected character %r" % err[0], line)


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
# Above every binary operator: parse_expr at _PREFIX_PREC reads one operand
# with its postfix operators, and at _PRIMARY_PREC one primary alone.
_PREFIX_PREC, _PRIMARY_PREC = 13, 14

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
        self.switch_fails: set[int] = set()   # ':' positions _skip_alt_switch fails from

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
            node_mark = self.b._next
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
        """Swallow a malformed statement: skip to ';' at bracket depth 0.

        A closing bracket at depth 0 ends the statement before it, or, when
        the statement starts with one, is the whole statement."""
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
                            last = self.next()
                            progressed = True
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
            t = self.toks[self.pos]
            if t[0] == "op" and t[1] == ";" and t[3] <= self.b._nodes[expr].line_end:
                self.pos += 1  # a ';' that leaves the statement's span as it is
            else:
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
            end_line = self._skip_alt_switch() if self.at_op(":") else self._skip_balanced("{")
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
        # the use list and return type end at '{'; a '}' there ends the
        # statement as a malformed one
        while not (self.at_op("{") or self.at_op("}")) and self.peek()[0] != "eof":
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
        # the extends/implements clause ends at '{'; a ';' or '}' there, or
        # the end of the file, ends the statement as a malformed one
        while not (self.at_op("{") or self.at_op(";") or self.at_op("}")):
            if self.peek()[0] == "eof":
                raise ParseError("unterminated class declaration", t[2])
            self.next()
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
        """Skip the '(' or '{' that must be the next token, and its match;
        return the match's end line.  PHP puts the '{' of a switch, try,
        catch or finally body right after its head, so no caller searches
        for one."""
        self.expect_op(opener)
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

    def _skip_alt_switch(self) -> int:
        """Skip the ':' that opens an alternative-syntax switch body, the body
        and its matching 'endswitch' with its ';'; return the end line.  A
        nested switch counts only in the ':' form, a ':' after its ')'.

        A scan from a ':' reads the same tokens whatever statement it opens,
        so when a scan fails, the scan from each nested ':' still open fails
        too.  Those positions are kept, and a scan from one of them fails at
        once (packrat parsing memoises failures the same way); otherwise each
        unterminated switch would rescan the rest of the file."""
        opens = [self.pos]      # the ':' of each switch not yet ended
        open_tok = self.next()
        if opens[0] in self.switch_fails:
            raise ParseError("unterminated 'endswitch' block", open_tok[2])
        try:
            while True:
                prev, tok = self.toks[self.pos - 1], self.next()
                if tok[0] == "eof":
                    raise ParseError("unterminated 'endswitch' block", open_tok[2])
                if tok[0] != "ident" or prev[0] == "op" and prev[1] in ("->", "::"):
                    continue
                word = tok[1].lower()
                if word == "switch" and self.at_op("("):
                    self._skip_balanced("(")
                    if self.at_op(":"):
                        opens.append(self.pos)
                        self.next()
                elif word == "endswitch":
                    opens.pop()
                    if not opens:
                        return self.next()[3] if self.at_op(";") else tok[3]
        except ParseError:
            self.switch_fails.update(opens)
            raise

    # -- expressions -------------------------------------------------------
    def parse_expr(self, min_prec: int = _WORD_PREC) -> int:
        """An expression whose operators all bind at min_prec or tighter,
        by precedence climbing over _OPERATORS.

        The left operand is read here when it is a leaf (a var, number or sq
        token), and by _parse_unary otherwise; the postfix loop runs only
        when a postfix operator follows it.  At _PREFIX_PREC this reads one
        operand with its postfix operators, and at _PRIMARY_PREC one primary
        alone (see the module docstring)."""
        toks, b = self.toks, self.b
        t = toks[self.pos]
        tt = t[0]
        if tt == "var":
            self.pos += 1
            left = b.add(astree.VAR, symbol=t[1], line_start=t[2])
        elif tt == "number" or tt == "sq":
            self.pos += 1
            left = b.add(astree.LITERAL, value=t[1], line_start=t[2], line_end=t[3])
        elif min_prec < _PRIMARY_PREC:
            left = self._parse_unary(t)
        else:
            return self._parse_primary(t)
        t = toks[self.pos]
        if t[0] == "op" and t[1] in _POSTFIX and min_prec < _PRIMARY_PREC:
            left = self._parse_postfix(left)
            t = toks[self.pos]
        while True:
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
            t = toks[self.pos]

    def _parse_unary(self, t: Token) -> int:
        """The operand that starts at token t, not a leaf: a prefix operator
        or cast with its operand, or else a primary."""
        if t[0] == "op":
            if t[1] in _UNARY:
                self.pos += 1
                operand = self.parse_expr(_PREFIX_PREC)
                node = self.b.add("UnaryOp:" + t[1], (operand,), line_start=t[2])
                self.b.span_from_children(node)
                return node
            if t[1] == "@" or t[1] == "&":
                self.pos += 1  # error-suppression and references are transparent
                return self.parse_expr(_PREFIX_PREC)
            if t[1] == "(":
                nxt, after = self.toks[self.pos + 1], self.toks[self.pos + 2]
                if (nxt[0] == "ident" and nxt[1].lower() in _CASTS
                        and after[0] == "op" and after[1] == ")"):
                    self.pos += 3
                    operand = self.parse_expr(_PREFIX_PREC)
                    node = self.b.add("Cast:" + nxt[1].lower(), (operand,),
                                      line_start=t[2])
                    self.b.span_from_children(node)
                    return node
        elif t[0] == "ident":
            word = t[1].lower()
            if word == "new" or word == "clone" or word == "print":
                self.pos += 1
                operand = self.parse_expr(_WORD_PREC if word == "print" else _PREFIX_PREC)
                node = self.b.add(astree.other(word), (operand,), line_start=t[2])
                self.b.span_from_children(node)
                return node
        return self._parse_primary(t)

    def _parse_postfix(self, node: int) -> int:
        """node with the postfix operators that follow it: calls, indexes,
        member accesses and postfix ++ and --."""
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
        """The argument list whose '(' is the next token."""
        toks = self.toks
        open_tok = toks[self.pos]
        self.pos += 1
        args: list[int] = []
        t = toks[self.pos]
        if not (t[0] == "op" and t[1] == ")"):
            while True:
                if t[0] == "op" and t[1] == "...":
                    self.pos += 1
                    inner = self.parse_expr()
                    arg = self.b.add(astree.other("spread"), [inner], line_start=t[2])
                    self.b.span_from_children(arg)
                else:
                    arg = self.parse_expr()
                    t = toks[self.pos]
                    if t[0] == "op" and t[1] == "=>":  # array(...) literals share this path
                        arg = self._kv(arg)
                args.append(arg)
                t = toks[self.pos]
                if t[0] == "op" and t[1] == ",":
                    self.pos += 1
                    t = toks[self.pos]
                    if t[0] == "op" and t[1] == ")":
                        break
                    continue
                break
        close = self.expect_op(")")
        node = self.b.add(astree.ARG_LIST, args,
                          line_start=open_tok[2], line_end=close[3])
        return node

    def _parse_primary(self, t: Token) -> int:
        """The primary that starts at token t, not a leaf: a string with
        holes, a name, constant or closure, a parenthesized expression, an
        array literal or a variable variable."""
        tt = t[0]
        if tt == "dq":
            self.pos += 1
            return _build_interpolated(self.b, t)
        symbol = None
        if tt == "ident":
            word = t[1].lower()
            self.pos += 1
            if word in ("true", "false", "null"):
                return self.b.add(astree.LITERAL, value=word, line_start=t[2])
            if word == "static":  # a static closure is a closure
                nxt = self.toks[self.pos]
                if nxt[0] == "ident" and nxt[1].lower() in ("function", "fn"):
                    word = nxt[1].lower()
                    self.pos += 1
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
                inner = self.parse_expr(_PRIMARY_PREC)
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
        """The array literal whose '[' is the next token."""
        toks = self.toks
        open_tok = toks[self.pos]
        self.pos += 1
        items: list[int] = []
        while True:
            t = toks[self.pos]
            if t[0] == "op" and t[1] == "]":
                break
            if t[0] == "eof":
                raise ParseError("unterminated array literal", open_tok[2])
            item = self.parse_expr()
            t = toks[self.pos]
            if t[0] == "op" and t[1] == "=>":
                item = self._kv(item)
                t = toks[self.pos]
            items.append(item)
            if t[0] == "op" and t[1] == ",":
                self.pos += 1
        self.pos += 1
        node = self.b.add(astree.other("array"), items,
                          line_start=open_tok[2], line_end=t[3])
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

# One match per escape pair or hole start in a double-quoted string, tried
# in this order:
# - an escape pair, which stays in the literal text;
# - "{$", the start of an expression hole up to its matching "}";
# - "${", the start of a ${name} hole up to its matching "}";
# - a simple hole: $name, the name the first group, then either a [key] or
#   ->prop, the prop the fourth group.  A key is $... (second group), or a
#   digit or "-" and any text, identifier characters, or a quoted text (third
#   group); a key ends at the first "]".
# The names are _IDENT, so the possessive quantifiers keep a name whole when
# no [key] or ->prop follows it.
_HOLE = re.compile(
    r"\\.|\{\$|\$(?:\{|(%(ident)s)(?:\[(?:(\$[^\]]*+)"
    r"|([-%(d)s][^\]]*+|%(c)s++|'[^\]]*'|\"[^\]]*\"))\]|->(%(ident)s))?)"
    % {"ident": _IDENT, "c": _IDENT_CHAR, "d": _DIGIT},
    re.DOTALL)


def _build_interpolated(b: TreeBuilder, tok: Token) -> int:
    """Turn a double-quoted token into Encapsed(Literal/Var/... parts) or a
    plain Literal (see the module docstring).  Each Literal part is added
    before the hole that ends it, so node ids follow the text."""
    raw = tok[1]
    parts: list[int] = []
    lit = pos = 0  # the pending literal text starts at lit
    lit_line = tok[2] + 1 if tok[4] else tok[2]
    add = b.add
    while m := _HOLE.search(raw, pos):
        start, pos = m.span()
        c = raw[start]
        if c == "\\":
            continue
        if m.lastindex is None:  # "{$" or "${": the hole ends at the matching "}"
            end = _find_closing_brace(raw, start if c == "{" else start + 1)
            if end == -1:  # an unclosed brace is text
                pos = start + 1
                continue
            pos = end + 1
        line = lit_line + raw.count("\n", lit, start)
        if lit < start:
            parts.append(add(astree.LITERAL, value=raw[lit:start],
                             line_start=lit_line, line_end=line))
        if c == "{":
            parts.append(_Parser(lex_fragment(raw[start + 1:end], line), b).parse_expr())
        elif m.lastindex is None:
            inner = raw[start + 2:end]
            parts.append(add(astree.VAR, symbol="$" + inner, line_start=line,
                             line_end=line + inner.count("\n")))
        else:
            name, var_key, key, prop = m.groups()
            node = add(astree.VAR, symbol="$" + name, line_start=line)
            if prop is not None:
                node = add(astree.other("prop"), [node, add(astree.NAME, symbol=prop,
                                                            line_start=line)], line_start=line)
            elif var_key is not None or key is not None:
                idx = (add(astree.VAR, symbol=var_key, line_start=line) if key is None else
                       add(astree.LITERAL, value=key[1:-1] if key[0] in "'\"" else key,
                           line_start=line))
                node = add(astree.ARRAY_DIM, [node, idx], line_start=line)
            parts.append(node)
        lit, lit_line = pos, line + raw.count("\n", start, pos)
    if not parts:
        return add(astree.LITERAL, value=raw, line_start=tok[2], line_end=tok[3])
    if lit < len(raw):
        parts.append(add(astree.LITERAL, value=raw[lit:], line_start=lit_line,
                         line_end=lit_line + raw.count("\n", lit)))
    return add(astree.ENCAPSED, parts, line_start=tok[2], line_end=tok[3])


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
