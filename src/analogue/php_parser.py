"""Tokenizer and recursive-descent parser for a pragmatic PHP subset.

Covers the constructs that matter for snippet matching: assignments, calls,
echo, array indexing, superglobals, single/double-quoted strings with
interpolation, concatenation, if/while/foreach, return and inline HTML.
Anything else is represented as a tagged ``Other:*`` node with best-effort
children, so files never need full-language support to be scannable.
``parse_source`` takes text only: a file's bytes become text in one place,
``miner.parse_file``.

A token is a plain tuple ``(type, value, line, line_end)``: type is one of
html, var, ident, number, sq, dq, op and eof; line is the line the token
starts on and line_end the line its value ends on.  So a value's first line
is line_end less the line breaks in the value: ``line`` for a string, and
the line after the head for the body of a heredoc or nowdoc.

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
``_build_interpolated`` finds the holes with one regex, ``_HOLE``, and
reads a ``[key]`` with ``_KEY``, both built from the lexer's own name and
digit classes.  These holes become nodes: ``$name``; ``$name[key]``, where
the key up to the first ``]`` is ``$...``, a digit or ``-`` and any text, a
name, or a quoted text; ``$name->prop``; ``${text}``, a Var named
``$text``; and ``{$...}``, lexed and parsed as an expression.  The first
``]`` is searched for once per string, not once per key, so a string of
keys that no ``]`` closes reads in linear time.  A ``{$`` or ``${`` hole
ends at the ``}`` that closes its ``_GROUP``, the one pattern that also
keeps the lexer from ending a string at a quote inside a ``{$`` hole.  An
escape pair, and a ``${`` or ``{$`` that no group closes, stay text; the
text between holes becomes ``Literal`` parts.  Each part's line is the
value's first line plus the line breaks before the part in the value.
Backtick strings are not read: a backtick is a ``LexError``.

Each statement construct has one rule.  ``parse_statement`` dispatches on
a leading keyword of ``_KEYWORDS`` and reads anything else as an expression
statement; ``namespace\\foo`` is a name, so it starts an expression
statement too.  An identifier, not a keyword, followed by ``:`` is a goto
label: an ``Other:label`` leaf of its own, so the statement after it is
read; ``case`` and ``default`` stay the switch's.  ``_parse_block`` reads
every body: ``{ ... }`` (a ``{`` in statement position too), an alternative
``: ... endwhile;`` block or a single statement; a try, catch, finally or
namespace body must be ``{ ... }``.  ``Other:switch`` holds the subject,
then an ``Other:case`` per case: its label (none for ``default``) and body.
``Other:declare`` holds its body, ``{ ... }`` or ``: ... enddeclare;``, and
nothing after ``declare(...);``.  ``_parse_function`` reads functions,
methods and closures, ``static`` ones included.

Two rules skip tokens unread.  ``_skip_to(*stops)`` runs up to the next of
its stop operators or the end of the file: past a namespace or use name, a
function's use list and return type, an arrow function's return type, a
class header and a class member that ends at ``;`` or at its ``{``.
``_skip_balanced(opener)`` skips a bracketed group, counting brackets of
every kind: a parameter list, a catch head, declare directives, a group
use, a class member's block, and each group of a malformed statement.
``_skip_head`` skips a function's head by the two: a ``&``, the name, the
parameter list, then ``_skip_to`` its stops; so ``function &f()`` and
``fn&($x) =>`` lose their ``&`` in one place.  PHP puts a body's ``{``
right after its head, and a class header or a function's return type ends
at ``{``, ``;`` or ``}``, an arrow function's at ``=>``; so no statement
searches past itself for its body, and a malformed one fails where it
stands.

``_parse_list(closer, kind, callee)`` reads every comma list: an argument
list, so also the items of ``array(...)`` and ``list(...)``, as an
``ArgList``, and the items of ``[...]`` as an ``Other:array``.  An item is
an expression, an ``Other:spread`` (``...`` and an expression) or an
``Other:kv`` pair (``key => value``).  A comma separates the items and may
follow the last one, so ``[1 2]`` is malformed, as ``f(1 2)`` is.  The
three lists of PHP's ``array_pair_list``, ``[...]``, ``array(...)`` and
``list(...)``, also take an empty item, as a destructuring that skips one
writes it: a comma with no item before it is an ``Other:skip`` leaf, so
``[, $b] = $arr;`` reads.  Any other argument list refuses one, so
``f(, $b);`` is malformed, as PHP has it.

A statement that raises ``ParseError`` is recovered as an opaque node
(``_recover_statement``), and its start is kept in ``failed_starts``: a
statement's parse depends only on where it starts, so one that starts there
again is recovered at once, with the tree a re-parse would give (the failure
memo of packrat parsing, Ford, ICFP 2002).  Without it each unclosed
``if ($a):`` re-parsed the ones after it, in time exponential in their
number; now k unclosed heads re-read what follows them k times.

The parser passes each node the lines of the tokens it owns, and
``TreeBuilder.add`` widens that span to the node's children; only
``_finish_simple_statement`` widens a span later, to the statement's ``;``.

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
once.  The hot loops (comma lists, statement lists, ``_skip_to`` and an
expression statement's ``;``) test token fields in place; the other paths
use the ``at_op``/``expect_op`` helpers.

Every call on these paths costs one stack frame per nesting level, and the
recursion limit (1,000 by default) turns frames into the deepest nesting a
file may have.  A parenthesis costs three frames (``parse_expr``,
``_parse_unary``, ``_parse_primary``), a ``$a . (`` group four (the binary
operator's right operand is one more ``parse_expr``), an argument list three
(``parse_expr``, ``_parse_postfix``, ``_parse_list``), a ``[...]`` literal
four (``parse_expr``, ``_parse_unary``, ``_parse_primary``, ``_parse_list``)
and a prefix operator two (``parse_expr``, ``_parse_unary``).  A pair's
value costs what an item costs: ``_parse_list`` reads it in place.  From a
script that calls ``parse_source``, that allows 330 parentheses, 247
``$a . (`` groups, 330 nested argument lists or ``array(...)`` literals,
247 nested ``[...]`` literals, with or without keys, and about 495 prefix
operators in a row.  A closure is four frames below its statement (an
assignment's two ``parse_expr`` calls, unary, primary), so
``_parse_function`` builds its body inline instead of through
``_parse_block``, which would cost one more frame per nested closure; 141
closures nest.  A nested block costs what its statement rule costs: 247
``if``, ``try``, ``catch`` or ``finally`` blocks, 330 ``switch`` blocks or
495 bare blocks nest.
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


# (type, value, line, line_end); see the module docstring.
Token = tuple[str, str, int, int]


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

# A {...} group of PHP code, the code of a string hole: PHP's scanner reads
# code from "{$" or "${" up to the "}" that closes it.  The group holds
# other text, '...' and "..." strings that end on their own line, and groups
# nested two deep; a "..." string in it holds the {$ holes of a group one
# level less deep, and any other "{" there is text.  A "{" the group cannot
# close is no group: the possessive quantifiers give nothing back, and the
# depth and the line bound what a failed try reads, so a string of unclosed
# holes is read in time linear in its length.
_GROUP = "(?!)"  # matches nothing: the innermost group holds no group
for _ in range(3):
    _GROUP = (r"\{(?:[^{}'\"]++|'[^'\\\n]*+(?:\\[^\n][^'\\\n]*+)*+'"
              r"|\"(?:[^\"\\\n{]++|\\[^\n]|(?=\{\$)%(g)s|\{)*+\"|%(g)s)*+\}" % {"g": _GROUP})

# One match per token: (prefix, token, label, error).  The prefix is the
# whitespace and comments before the token, and the token one of these,
# tried in this order:
# - a single-character operator that starts no longer one;
# - a variable, then a name;
# - a complete '...' or "..." string, where a "{$" that starts a _GROUP
#   reads to the group's end;
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
    r"|'[^'\\]*+(?:\\.[^'\\]*+)*+'|\"(?:[^\"\\{]++|\\.|(?=\{\$)%(group)s|\{)*+\""
    r"|0[xX][a-fA-F_%(d)s]*+"
    r"|(?:[0-9][_%(d)s]*+(?:\.[_%(d)s]*+)?|\.[%(d)s][_%(d)s]*+)"
    r"(?:[eE](?:[+-]|(?=[%(d)s]))[_%(d)s]*+)?"
    r"|\?>(?:\r\n|\n|\r)?%(html)s"
    r"|%(heredoc)s[^\n]*+\n(?:[^\n]*+\n)*?[ \t]*+\3(?!%(c)s)"
    r"|(?!/\*|<<<)(?:%(ops)s|[%(ops1)s]))|(.*))"
    % {"ident": _IDENT, "c": _IDENT_CHAR, "d": _DIGIT, "group": _GROUP, "html": _HTML,
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
            append((kind, tok, line, line))
            continue
        c = tok[0]
        if c == "$":
            append(("var" if len(tok) > 1 else "op", tok, line, line))
        elif c == "'" or c == '"':
            end = line + tok.count("\n")
            append(("sq" if c == "'" else "dq", tok[1:-1], line, end))
            line = end
        elif c == ".":
            append(("op" if tok in _DOT_OPS else "number", tok, line, line))
        elif label:
            nl, last = tok.find("\n"), tok.rfind("\n")
            nowdoc = tok[3:nl].lstrip(" \t").startswith("'")
            end = line + tok.count("\n")  # the terminator's line
            append(("sq" if nowdoc else "dq", tok[nl + 1:last] if last > nl else "",
                    line, end - 1))
            line = end
        elif c == "?" and tok[1:2] == ">":
            append(("op", "?>", line, line))
            if fragment:
                return
            i = 3 if tok[2:3] == "\r" else 2
            if tok[i:i + 1] == "\n":
                i += 1
                line += 1
            line = _html(tok, i, len(tok), line, toks)
        else:
            append(("op", tok, line, line))


def _html(s: str, i: int, end: int, line: int, toks: list[Token]) -> int:
    """Append the tokens of s[i:end], HTML and then an optional open tag, and
    return the line they end on."""
    tag = s.rfind("<?", i, end)
    if tag == -1:
        tag = end
    if tag > i:
        seg = s[i:tag]
        line_end = line + seg.count("\n")
        toks.append(("html", seg, line, line_end))
        line = line_end
    if s.startswith("<?=", tag):
        toks.append(("ident", "echo", line, line))
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
    "echo", "if", "elseif", "else", "while", "foreach", "for",
    "return", "function", "class", "interface", "trait", "abstract", "final",
    "global", "include", "include_once", "require", "require_once", "switch",
    "do", "break", "continue", "try", "throw", "namespace", "use", "enum",
    "declare", "endif", "endwhile", "endforeach", "endfor", "endswitch", "enddeclare",
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
_OPENERS, _CLOSERS = ("(", "[", "{"), (")", "]", "}")

_EOF = ("eof", "", 0, 0)
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
        self.failed_starts: set[int] = set()  # see parse_statements_until

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
        """The statements up to a closer op, a kw_closers word or the end; a
        statement that fails is recovered (see the module docstring)."""
        out: list[int] = []
        failed_starts = self.failed_starts
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
            if self.pos in failed_starts:
                sid = self._recover_statement()
            else:
                start_pos, node_mark = self.pos, self.b._next
                try:
                    if t[0] == "op" and t[1] == "{":
                        sid = self._parse_block(None)[0]
                    else:
                        sid = self.parse_statement()
                except ParseError:
                    failed_starts.add(start_pos)
                    self.pos = start_pos
                    self.b.rollback(node_mark)
                    sid = self._recover_statement()
            out.append(sid)
        return out

    def _recover_statement(self) -> int:
        """Swallow a malformed statement: skip to ';', skipping bracketed
        groups whole.  A closing bracket or '?>' outside them ends the
        statement before it, or, when the statement starts with a closing
        bracket, is the whole statement."""
        start = self.pos
        while (t := self._skip_to(*_OPENERS, *_CLOSERS, ";", "?>"))[1] in _OPENERS:
            self._skip_balanced(t[1])
        if t[1] == ";" or t[1] in _CLOSERS and self.pos == start:
            self.pos += 1
        return self.b.add(astree.other("opaque"), line_start=self.toks[start][2],
                          line_end=self.toks[self.pos - 1][3])

    def parse_statement(self) -> int:
        """One statement that does not start with '{' (see parse_statements_until)."""
        t = self.toks[self.pos]
        kw = t[1].lower() if t[0] == "ident" else ""
        if kw == "namespace" and self.toks[self.pos + 1][:2] == ("op", "\\"):
            kw = ""  # namespace\foo is a name: an expression statement
        if kw and kw not in _KEYWORDS and self.toks[self.pos + 1][:2] == ("op", ":"):
            self.pos += 2  # a goto label: the statement after it is read on its own
            return self.b.add(astree.other("label"), line_start=t[2],
                              line_end=self.toks[self.pos - 1][3])
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
        if kw == "if":
            return self._parse_if(t)
        if kw in ("endif", "endwhile", "endforeach", "endfor", "endswitch", "enddeclare"):
            raise ParseError("'%s' without matching block" % kw, t[2])
        if kw == "while":
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            body, end_line = self._parse_block("endwhile")
            return self.b.add(astree.WHILE, [cond, body], line_start=t[2], line_end=end_line)
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
            return self._parse_switch(t)
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
            self._finish_simple_statement(node)
            return node
        if kw in ("break", "continue"):
            if self.peek()[0] == "number":
                self.next()
            return self._simple(astree.other(kw), [], t)
        if kw == "try":
            bodies = [self._parse_braced()]
            while self.at_kw("catch", "finally"):
                self.next()
                if self.at_op("("):
                    self._skip_balanced("(")
                bodies.append(self._parse_braced())
            return self.b.add(astree.other("try"), bodies, line_start=t[2])
        if kw == "declare":
            self._skip_balanced("(")  # the directives
            if self.at_op(";") or self.at_op("?>") or self.peek()[0] == "eof":
                return self._simple(astree.other(kw), [], t)
            body, end_line = self._parse_block("enddeclare")
            return self.b.add(astree.other(kw), [body], line_start=t[2], line_end=end_line)
        if kw in ("namespace", "use"):
            stop = self._skip_to("{", ";", "?>")[1]
            if stop == "{" and kw == "namespace":
                return self.b.add(astree.other(kw), [self._parse_braced()], line_start=t[2])
            if stop == "{":  # a group use
                end_line = self._skip_balanced("{")
                return self.b.add(astree.other(kw), line_start=t[2], line_end=end_line)
            if stop == ";":
                self.pos += 1
            return self.b.add(astree.other(kw), line_start=t[2],
                              line_end=self.toks[self.pos - 1][3])
        raise ParseError("'%s' without matching if" % kw, t[2])  # elseif, else

    def _simple(self, kind: str, children: list[int], t: Token) -> int:
        """The node of keyword t's statement, spanning t and children; takes its ';'."""
        node = self.b.add(kind, children, line_start=t[2], line_end=t[3])
        self._finish_simple_statement(node)
        return node

    def _finish_simple_statement(self, node_id: int) -> None:
        """Take the ';' that ends statement node_id and widen its span to it.
        This is the one span set outside TreeBuilder.add: an expression
        statement is built before its ';' is read."""
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
            else_sl = self.b.add(astree.STMT_LIST, [self._parse_if(elif_tok)])
            children.append(else_sl)
        return self.b.add(astree.IF, children, line_start=t[2], line_end=end_line)

    def _parse_foreach(self, t: Token) -> int:
        self.expect_op("(")
        iterable = self.parse_expr()
        if not self.at_kw("as"):
            raise ParseError("expected 'as' in foreach", self.peek()[2])
        self.next()
        children = [iterable, self.parse_expr()]  # a prefix '&' is transparent there
        if self.at_op("=>"):
            self.next()
            children.append(self.parse_expr())
        self.expect_op(")")
        body, end_line = self._parse_block("endforeach")
        children.append(body)
        return self.b.add(astree.FOREACH, children, line_start=t[2], line_end=end_line)

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
        return self.b.add(astree.other("for"), children, line_start=t[2], line_end=end_line)

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
            return sl, end_line
        if self.at_op(";"):
            semi = self.next()
            sl = self.b.add(astree.STMT_LIST, [],
                            line_start=semi[2], line_end=semi[3])
            return sl, semi[3]
        stmt = self.parse_statement()
        sl = self.b.add(astree.STMT_LIST, [stmt])
        return sl, self.b._nodes[sl].line_end

    def _parse_braced(self) -> int:
        """The StmtList of the {...} block that must come next."""
        if not self.at_op("{"):
            self.expect_op("{")  # raises
        return self._parse_block(None)[0]

    def _parse_switch(self, t: Token) -> int:
        """A switch after its keyword t; a '?>' or blank HTML before the
        first case, as PHP templates write it, is skipped."""
        self.expect_op("(")
        children = [self.parse_expr()]
        self.expect_op(")")
        alt = self.expect_op(":" if self.at_op(":") else "{")[1] == ":"
        while True:
            tok = self.next()
            word = tok[1].lower() if tok[0] == "ident" else ""
            if word == "case" or word == "default":
                label = [self.parse_expr()] if word == "case" else []
                colon = self.expect_op(";" if self.at_op(";") else ":")
                stmts = self.parse_statements_until(() if alt else ("}",),
                                                    ("case", "default", "endswitch"))
                body = self.b.add(astree.STMT_LIST, stmts, line_start=colon[2])
                children.append(self.b.add(astree.other("case"), label + [body],
                                           line_start=tok[2]))
            elif (word == "endswitch") if alt else (tok[0] == "op" and tok[1] == "}"):
                if alt and self.at_op(";"):
                    tok = self.next()
                return self.b.add(astree.other("switch"), children, line_start=t[2],
                                  line_end=tok[3])
            elif not (tok[0] == "op" and tok[1] in ("?>", ";")
                      or tok[0] == "html" and tok[1].isspace()):
                raise ParseError("expected 'case', found %r" % (tok[1] or tok[0]),
                                 tok[2] or self.last_line)

    def _parse_function(self, t: Token, tag: str) -> int:
        """A function or method (tag "function") or a closure (tag "closure")
        after its keyword t; its head is skipped.  The body is built here,
        not by _parse_block, to save a frame per nested closure (see the
        module docstring)."""
        # the use list and return type end at '{'; a '}' there ends the
        # statement as a malformed one
        if self._skip_head("{", ";", "}")[1] == ";":  # abstract/interface signature
            semi = self.next()
            return self.b.add(astree.other(tag), line_start=t[2], line_end=semi[3])
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
        self._skip_to("{", ";", "}")
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
                # with a {...} block: property hooks or trait adaptations; its
                # ';' is then skipped as an unknown member token
                if self._skip_to(";", "{")[1] == "{":
                    self._skip_balanced("{")
                continue
            self.next()  # unknown member token, skip
        return self.b.add(astree.other("class"), members, line_start=t[2], line_end=end_line)

    def _skip_head(self, *stops: str) -> Token:
        """Skip a function's head after its keyword: a '&', the name, the
        parameter list and up to the next of stops; return that stop."""
        if self.at_op("&"):
            self.pos += 1
        if self.peek()[0] == "ident":
            self.pos += 1  # function name, not preserved
        self._skip_balanced("(")
        return self._skip_to(*stops)

    def _skip_to(self, *stops: str) -> Token:
        """Skip up to the next op token in stops, or the end; return that token."""
        toks = self.toks
        while True:
            t = toks[self.pos]
            if t[0] == "op" and t[1] in stops or t[0] == "eof":
                return t
            self.pos += 1

    def _skip_balanced(self, opener: str) -> int:
        """Skip the bracket opener, which must come next, and the brackets of
        any kind up to the one that closes it; return that one's end line."""
        self.expect_op(opener)
        depth = 1
        while depth:
            t = self.next()
            if t[0] == "op":
                if t[1] in _OPENERS:
                    depth += 1
                elif t[1] in _CLOSERS:
                    depth -= 1
            elif t[0] == "eof":
                raise ParseError("unbalanced delimiters", self.last_line)
        return t[3]

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
            left = b.add(kind, children)
            t = toks[self.pos]

    def _parse_unary(self, t: Token) -> int:
        """The operand that starts at token t, not a leaf: a prefix operator
        or cast with its operand, or else a primary."""
        if t[0] == "op":
            if t[1] in _UNARY:
                self.pos += 1
                operand = self.parse_expr(_PREFIX_PREC)
                return self.b.add("UnaryOp:" + t[1], (operand,), line_start=t[2])
            if t[1] == "@" or t[1] == "&":
                self.pos += 1  # error-suppression and references are transparent
                return self.parse_expr(_PREFIX_PREC)
            if t[1] == "(":
                nxt, after = self.toks[self.pos + 1], self.toks[self.pos + 2]
                if (nxt[0] == "ident" and nxt[1].lower() in _CASTS
                        and after[0] == "op" and after[1] == ")"):
                    self.pos += 3
                    operand = self.parse_expr(_PREFIX_PREC)
                    return self.b.add("Cast:" + nxt[1].lower(), (operand,), line_start=t[2])
        elif t[0] == "ident":
            word = t[1].lower()
            if word == "new" or word == "clone" or word == "print":
                self.pos += 1
                operand = self.parse_expr(_WORD_PREC if word == "print" else _PREFIX_PREC)
                return self.b.add(astree.other(word), (operand,), line_start=t[2])
        return self._parse_primary(t)

    def _parse_postfix(self, node: int) -> int:
        """node with the postfix operators that follow it: calls, indexes,
        member accesses and postfix ++ and --."""
        toks, nodes = self.toks, self.b._nodes
        while True:
            t = toks[self.pos]
            if t[0] != "op" or t[1] not in _POSTFIX:
                return node
            if t[1] == "(":
                args = self._parse_list(")", astree.ARG_LIST, node)
                kind = astree.CALL if nodes[node].kind in (astree.NAME, astree.VAR) \
                    else astree.other("call")
                node = self.b.add(kind, (node, args))
            elif t[1] == "[":
                self.pos += 1
                if self.at_op("]"):
                    close = self.next()
                    idx = self.b.add(astree.other("empty_index"),
                                     line_start=t[2], line_end=close[3])
                else:
                    idx = self.parse_expr()
                    close = self.expect_op("]")
                node = self.b.add(astree.ARRAY_DIM, (node, idx), line_end=close[3])
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
                node = self.b.add(astree.other(tag), (node, member))
            else:  # postfix ++ / --
                self.pos += 1
                node = self.b.add("UnaryOp:post" + t[1], (node,), line_end=t[3])

    def _parse_list(self, closer: str, kind: str, callee: int | None = None) -> int:
        """The comma list whose opening bracket is the next token: the
        argument list of the node callee, so also the items of array(...)
        and list(...), or else the items of [...].  An item is an
        expression, a '...' spread or a 'key => value' pair, and a comma may
        follow the last one.  In [...], array(...) and list(...) an item may
        be empty: a comma with no item before it is an Other:skip leaf."""
        toks = self.toks
        open_tok = toks[self.pos]
        self.pos += 1
        items: list[int] = []
        t = toks[self.pos]
        while not (t[0] == "op" and t[1] == closer):
            if t[0] == "op" and t[1] == "...":
                self.pos += 1
                item = self.b.add(astree.other("spread"), [self.parse_expr()],
                                  line_start=t[2])
            elif t[0] == "op" and t[1] == "," and (
                    callee is None
                    or (self.b._nodes[callee].symbol or "").lower() in ("array", "list")):
                item = self.b.add(astree.other("skip"), line_start=t[2])
            else:
                item = self.parse_expr()
                t = toks[self.pos]
                if t[0] == "op" and t[1] == "=>":  # the item read is a pair's key
                    self.pos += 1
                    item = self.b.add(astree.other("kv"), [item, self.parse_expr()])
            items.append(item)
            t = toks[self.pos]
            if not (t[0] == "op" and t[1] == ","):
                break
            self.pos += 1
            t = toks[self.pos]
        close = self.expect_op(closer)
        return self.b.add(kind, items, line_start=open_tok[2], line_end=close[3])

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
                self._skip_head("=>", ";", "{", "}")  # the return type ends at '=>'
                self.expect_op("=>")
                body = self.parse_expr()
                return self.b.add(astree.other("closure"), [body], line_start=t[2])
            symbol = t[1]
        elif tt == "op":
            if t[1] == "(":
                self.pos += 1
                inner = self.parse_expr()
                self.expect_op(")")
                return inner
            if t[1] == "[":
                return self._parse_list("]", astree.other("array"))
            if t[1] == "$":
                self.pos += 1
                if self.at_op("{"):
                    self.pos += 1
                    inner = self.parse_expr()
                    close = self.expect_op("}")
                    return self.b.add(astree.other("varvar"), [inner],
                                      line_start=t[2], line_end=close[3])
                inner = self.parse_expr(_PRIMARY_PREC)
                return self.b.add(astree.other("varvar"), [inner], line_start=t[2])
            if t[1] == "\\" and self.toks[self.pos + 1][0] == "ident":
                symbol = ""  # a fully qualified name: the loop below takes "\\name"
        if symbol is None:
            raise ParseError("unexpected token %r" % (t[1] or t[0]),
                             t[2] or self.last_line)
        while self.at_op("\\") and self.toks[self.pos + 1][0] == "ident":
            symbol += "\\" + self.toks[self.pos + 1][1]
            self.pos += 2
        return self.b.add(astree.NAME, symbol=symbol, line_start=t[2])


# ---------------------------------------------------------------------------
# Double-quoted string interpolation
# ---------------------------------------------------------------------------

# One match per escape pair or hole start in a double-quoted string, tried
# in this order:
# - an escape pair, which stays in the literal text;
# - "{" and a _GROUP that starts with "$", an expression hole;
# - "$" and a _GROUP, a ${name} hole;
# - a simple hole: $name, the name the first group, then maybe ->prop, the
#   prop the second group.  _build_interpolated reads a [key] after it.
# The names are _IDENT, so the possessive quantifiers keep a name whole when
# no ->prop follows it.
_HOLE = re.compile(
    r"\\.|(?=\{\$)%(group)s|\$(?:%(group)s|(%(ident)s)(?:->(%(ident)s))?)"
    % {"ident": _IDENT, "group": _GROUP}, re.DOTALL)
# A [key] matched with its "]" as endpos: "$" (the first group) or a digit or
# "-", then any text; identifier characters up to the "]"; or a quote (the
# second group), which the caller checks also ends the key.
_KEY = re.compile(r"(\$)|[-%s]|%s++\Z|(['\"])" % (_DIGIT, _IDENT_CHAR))


def _build_interpolated(b: TreeBuilder, tok: Token) -> int:
    """Turn a double-quoted token into Encapsed(Literal/Var/... parts) or a
    plain Literal (see the module docstring).  Each Literal part is added
    before the hole that ends it, so node ids follow the text."""
    raw = tok[1]
    parts: list[int] = []
    lit = pos = 0  # the pending literal text starts at lit
    close = -1  # the first "]" at or after pos, or len(raw) if there is none
    lit_line = tok[3] - raw.count("\n")  # a heredoc body starts below its head
    add = b.add
    while m := _HOLE.search(raw, pos):
        start, pos = m.span()
        c = raw[start]
        if c == "\\":
            continue
        line = lit_line + raw.count("\n", lit, start)
        if lit < start:
            parts.append(add(astree.LITERAL, value=raw[lit:start],
                             line_start=lit_line, line_end=line))
        if c == "{":
            parts.append(_Parser(lex_fragment(raw[start + 1:pos - 1], line), b).parse_expr())
        elif m.lastindex is None:  # ${name}
            inner = raw[start + 2:pos - 1]
            parts.append(add(astree.VAR, symbol="$" + inner, line_start=line,
                             line_end=line + inner.count("\n")))
        else:
            name, prop = m.groups()
            node = add(astree.VAR, symbol="$" + name, line_start=line)
            if prop is not None:
                node = add(astree.other("prop"), [node, add(astree.NAME, symbol=prop,
                                                            line_start=line)])
            elif raw.startswith("[", pos):
                if close < pos:  # so each "]" is searched for once per string
                    close = raw.find("]", pos) % (len(raw) + 1)  # -1 becomes len(raw)
                if close < len(raw) and (k := _KEY.match(raw, pos + 1, close)) and (
                        k.lastindex != 2 or close > pos + 2 and raw[close - 1] == k[2]):
                    key = raw[pos + 1:close]
                    idx = (add(astree.VAR, symbol=key, line_start=line) if k.lastindex == 1
                           else add(astree.LITERAL, value=key[1:-1] if k.lastindex else key,
                                    line_start=line))
                    node = add(astree.ARRAY_DIM, [node, idx])
                    pos = close + 1
            parts.append(node)
        lit, lit_line = pos, line + raw.count("\n", start, pos)
    if not parts:
        return add(astree.LITERAL, value=raw, line_start=tok[2], line_end=tok[3])
    if lit < len(raw):
        parts.append(add(astree.LITERAL, value=raw[lit:], line_start=lit_line,
                         line_end=lit_line + raw.count("\n", lit)))
    return add(astree.ENCAPSED, parts, line_start=tok[2], line_end=tok[3])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_source(text: str, path: str = "<memory>") -> SourceUnit:
    """Parse PHP source text into a SourceUnit; a leading BOM is dropped.

    Raises LexError / ParseError (both carry a line number) when the file
    cannot be tokenized or has unbalanced delimiters; callers scanning a
    corpus treat that as a skippable file.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    toks = tokenize(text)
    b = TreeBuilder()
    p = _Parser(toks, b)
    stmts = p.parse_statements_until(())  # reads to the end: it has no closers
    # token lines never decrease, so the last token ends on the last line
    root = b.add(astree.STMT_LIST, stmts, line_start=1, line_end=p.last_line)
    return b.finish(path, root)
