"""Compile templates into linear matcher programs, and programs into Python.

A program is a flat sequence of filter/bind/check steps plus explicit tree
navigation, emitted in pre-order per statement: the in-process equivalent of
a generated graph traversal.  Programs are immutable and safe to share across
scan workers.  Each is checked once, when it is made, by one walk of its
steps that also yields the counts the engine and the prog-v1 writer read
(validate_program).  Each process turns a program into a straight-line
Python function on first use (MatcherProgram.compiled), the only code that
runs a program, and from the same walk of the steps come the program's
shape tests (ShapeTest), which the engine decides once per statement shape.  The function, the shape tests and the header values the
engine reads on every scan make up the program's scan plan (Compiled), one
tuple per exact_arity value.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import jsonl
from .template import (SYMBOL_POLICIES, ApiSymbol, SeedOrigin, Template,
                       VarWildcard, origin_from_json, query_id_of)

FORMAT = "prog-v1"

# step ops
KIND = "kind"          # node kind must equal `kind`
SYMBOL = "symbol"      # node symbol must equal `name`
BIND = "bind"          # remember node symbol for var class `class_id`
CHECK = "check"        # node symbol must equal the remembered name
DESCEND = "descend"    # move to child `child_index`
ASCEND = "ascend"      # move back to the parent
NEXT = "next"          # advance to the next consecutive statement

NAVIGATION = (DESCEND, ASCEND, NEXT)


class MatcherStep(NamedTuple):
    op: str
    node_id: int                    # template node this step came from
    kind: str | None = None
    arity: int | None = None        # template child count (exact-arity scans)
    name: str | None = None
    class_id: int | None = None
    child_index: int | None = None


class ShapeTest(NamedTuple):
    """One test of a statement's shape: its kind and its children's kinds.

    child -1 tests the statement itself: its kind must be `kind` and, when
    arity is not None, it must have that many children.  child i >= 0 needs
    a child i and, when kind is not None, that child's kind must be `kind`.
    An attempt that fails the test has run `fails_at` comparisons.
    """
    child: int
    kind: str | None
    arity: int | None
    fails_at: int


# A shape verdict that no shape test decides: the generated matcher must run.
UNDECIDED = -1


class Compiled(NamedTuple):
    """A program's scan plan for one exact_arity value: what engine.scan_unit
    reads of the program on every call, in one tuple.

    first is the kind of the program's opening KIND step; template_depth,
    statement_count and comparison_steps are the program's.  match is the
    generated matcher, shape_tests come from the same step walk, and
    verdicts holds the verdicts worked out so far (shape id -> shape_verdict)."""
    first: str
    template_depth: int
    statement_count: int
    match: Callable
    shape_tests: tuple[ShapeTest, ...]
    verdicts: dict[int, int]
    comparison_steps: int


@dataclass(frozen=True)
class MatcherProgram:
    """A program, checked however it is made (compile_template, deserialize_program,
    dataclasses.replace): __post_init__ runs validate_program, keeps its facts."""
    steps: tuple[MatcherStep, ...]
    query_id: str
    symbol_policy: str = "preserve"
    origin: SeedOrigin | None = None
    # The facts, not compared: statements a match spans, classes bound, the
    # deepest DESCEND (roots at 0), SYMBOL names, steps but navigation.
    statement_count: int = field(init=False, repr=False, compare=False)
    var_class_count: int = field(init=False, repr=False, compare=False)
    template_depth: int = field(init=False, repr=False, compare=False)
    preserved_symbols: frozenset = field(init=False, repr=False, compare=False)
    comparison_steps: int = field(init=False, repr=False, compare=False)
    # The scan plan (Compiled) per exact_arity, built on first use and never
    # pickled: the verdicts are keyed by shape ids, which are per process.  A
    # worker started by fork inherits the plans of its parent, and the shape
    # ids with them.
    _matchers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self) -> None:
        self.__dict__.update(validate_program(self))  # frozen: past __setattr__

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_matchers": {}}

    def compiled(self, exact_arity: bool = False) -> Compiled:
        """The scan plan for this option, built on first use and cached in
        _matchers under bool(exact_arity)."""
        key = bool(exact_arity)
        c = self._matchers.get(key)
        if c is None:
            source, consts, tests = matcher_source(self, key)
            c = self._matchers[key] = Compiled(
                self.steps[0].kind, self.template_depth, self.statement_count,
                _build(source, consts), tests, {}, self.comparison_steps)
        return c


class ProgramFormatError(Exception):
    pass


class NotAProgram(ProgramFormatError):
    """Text that is no prog-v1 document at all: not JSON, or no such header."""


def compile_template(t: Template) -> MatcherProgram:
    """Linearize a template: one kind filter per node in pre-order, a symbol
    filter for preserved callee names, and bind/check steps so that the first
    occurrence of each variable class binds and later ones compare."""
    steps: list[MatcherStep] = []
    bound: set[int] = set()
    nodes = t.nodes
    for i, root in enumerate(t.statements):
        if i:
            steps.append(MatcherStep(NEXT, root))
        # node ids still to emit, between the DESCEND and ASCEND steps
        # that lead into and out of them
        stack: list = [root]
        while stack:
            item = stack.pop()
            if type(item) is MatcherStep:
                steps.append(item)
                continue
            n = nodes[item]
            children = n.children
            steps.append(MatcherStep(KIND, item, n.kind, len(children)))
            role = n.leaf_role
            if type(role) is ApiSymbol:
                steps.append(MatcherStep(SYMBOL, item, None, None, role.name))
            elif type(role) is VarWildcard:
                cls = role.class_id
                if cls in bound:
                    steps.append(MatcherStep(CHECK, item, None, None, None, cls))
                else:
                    bound.add(cls)
                    steps.append(MatcherStep(BIND, item, None, None, None, cls))
            if children:
                ascend = MatcherStep(ASCEND, item)
                for k in range(len(children) - 1, -1, -1):
                    c = children[k]
                    stack += (ascend, c,
                              MatcherStep(DESCEND, c, None, None, None, None, k))

    return MatcherProgram(steps=tuple(steps), query_id=query_id_of(t),
                          symbol_policy=t.symbol_policy, origin=t.seed_origin)


def validate_program(p: MatcherProgram) -> dict:
    """Check every field of the program, as the generated matcher and the
    prog-v1 writer rely on them, and return its facts, by MatcherProgram
    field name, from the same walk.  MatcherProgram.__post_init__ calls it.

    Every op is known, its node id is an int, and it holds a value of its
    type in each field it reads and None in every other: a KIND step reads
    a str kind and an int arity >= 0 or none, a SYMBOL step a str name, a
    BIND or CHECK step an int class id, a DESCEND step an int child index
    >= 0, and ASCEND and NEXT steps nothing.  Each statement opens with a
    KIND step: the first step and each one after a NEXT.  Navigation is
    balanced per statement, and a class binds before it is checked.  The
    query id is a str, the symbol policy one of SYMBOL_POLICIES, and the
    origin None or a SeedOrigin.  Raises ProgramFormatError naming the first
    offending step or field; a step's own checks come before the opening
    rule.
    """
    depth = deepest = comparisons = 0
    statements, opening = 1, 0      # opening: the index of a statement's first step
    bound: set[int] = set()
    symbols: set[str] = set()
    for i, (op, node_id, kind, arity, name, class_id, child) in enumerate(p.steps):
        if op == KIND:
            if type(kind) is not str:
                raise ProgramFormatError("step %d: kind must be a string" % i)
            if arity is not None and not _is_index(arity):
                raise ProgramFormatError("step %d: arity must be an int >= 0" % i)
            unused = name, class_id, child
        elif op == SYMBOL:
            if type(name) is not str:
                raise ProgramFormatError("step %d: name must be a string" % i)
            symbols.add(name)
            unused = kind, arity, class_id, child
        elif op in (BIND, CHECK):
            if type(class_id) is not int:
                raise ProgramFormatError("step %d: class must be an int" % i)
            if op == BIND:
                bound.add(class_id)
            elif class_id not in bound:
                raise ProgramFormatError("step %d: check before bind for class %d"
                                         % (i, class_id))
            unused = kind, arity, name, child
        elif op == DESCEND:
            if not _is_index(child):
                raise ProgramFormatError("step %d: child must be an int >= 0" % i)
            depth += 1
            deepest = max(deepest, depth)
            unused = kind, arity, name, class_id
        elif op == ASCEND:
            depth -= 1
            if depth < 0:
                raise ProgramFormatError("step %d: ascend below statement root" % i)
            unused = kind, arity, name, class_id, child
        elif op == NEXT:
            if depth != 0:
                raise ProgramFormatError("step %d: statement boundary inside a subtree"
                                         % i)
            statements, opening = statements + 1, i + 1
            unused = kind, arity, name, class_id, child
        else:
            raise ProgramFormatError("step %d: unknown op %r" % (i, op))
        if type(node_id) is not int:
            raise ProgramFormatError("step %d: node must be an int" % i)
        if unused.count(None) != len(unused):
            raise ProgramFormatError("step %d: a %s step carries a field it does not read"
                                     % (i, op))
        if i == opening and op != KIND:
            raise ProgramFormatError("step %d: a statement opens with a kind step, "
                                     "not a %s step" % (i, op))
        comparisons += op not in NAVIGATION
    if opening == len(p.steps):
        raise ProgramFormatError("step %d: a statement opens with a kind step, "
                                 "not the end of the program" % opening)
    if depth != 0:
        raise ProgramFormatError("unbalanced navigation at end of program")
    if type(p.query_id) is not str:
        raise ProgramFormatError("query_id must be a string")
    if p.symbol_policy not in SYMBOL_POLICIES:
        raise ProgramFormatError("symbol_policy must be one of %s" % (SYMBOL_POLICIES,))
    if p.origin is not None and type(p.origin) is not SeedOrigin:
        raise ProgramFormatError("origin must be a SeedOrigin")
    return {"statement_count": statements, "var_class_count": len(bound),
            "template_depth": deepest, "preserved_symbols": frozenset(symbols),
            "comparison_steps": comparisons}


def _is_index(value) -> bool:
    return type(value) is int and value >= 0


def export_traversal_script(p: MatcherProgram) -> str:
    """Render the program as a Gremlin-style traversal script, one line per step.

    Documentation/export only; the script is never re-imported.
    """
    lines = []
    for s in p.steps:
        if s.op == KIND:
            lines.append(".filter{ it.type == '%s' }" % s.kind)
        elif s.op == SYMBOL:
            lines.append(".filter{ it.code == '%s' }" % s.name)
        elif s.op == BIND:
            lines.append(".sideEffect{ var_%d = it.code }" % s.class_id)
        elif s.op == CHECK:
            lines.append(".filter{ it.code == var_%d }" % s.class_id)
        elif s.op == DESCEND:
            lines.append(".ithChildOf(%d)" % s.child_index)
        elif s.op == ASCEND:
            lines.append(".parent()")
        elif s.op == NEXT:
            lines.append(".nextStatement()")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Generated matchers
# ---------------------------------------------------------------------------

def matcher_source(p: MatcherProgram, exact_arity: bool = False) -> tuple[str, tuple, tuple]:
    """The Python source of the program's matcher, the constants it takes,
    and the program's shape tests, from one walk of the steps.

    The source defines make(c0, c1, ...), which returns
    match(nodes, stmts, start): the program tried on the statements from
    stmts[start] on, nodes being the unit's node table.  match returns the
    bindings (class id -> name) when they match.  Otherwise it returns the
    number of KIND, SYMBOL, BIND and CHECK steps run up to the failing test;
    a match runs all p.comparison_steps of them.

    The code is straight-line: one local n<i> per tree position (h<i> for
    its children), one v<j> per variable class, one early return per test.
    No value read from the program is written into the text.  Kinds, names,
    arities, class ids and child indices are passed in as the constants c<i>,
    each distinct value once; the text holds only fixed fragments, numbered
    locals and comparison counts.

    The shape tests are the leading tests of the first statement that read
    only its shape, each with the count the matcher returns when it fails.
    The run takes KIND steps on the statement, DESCEND steps to its children
    and, without exact_arity, KIND steps on those children; a BIND step
    counts one comparison and never fails.  It ends at the first CHECK,
    SYMBOL or NEXT step, DESCEND below a child or exact-arity KIND on a
    child.  The opening KIND step is always a shape test.
    """
    consts: list = []
    const_names: dict = {}

    def const(value) -> str:
        key = (type(value), value)
        if key not in const_names:
            const_names[key] = "c%d" % len(consts)
            consts.append(value)
        return const_names[key]

    code = ["n0 = nodes[stmts[start]]"]
    cur, positions, statement = 0, 1, 0
    stack: list[int] = []           # the positions above cur
    with_children: set[int] = set()  # positions whose h<i> is assigned
    var_of: dict = {}               # class id -> j of its v<j>
    var_keys: list[str] = []        # the constant naming each v<j>'s class
    done = 0                        # comparisons run by the steps so far
    tests: list[ShapeTest] = []     # the shape tests found so far
    shaping = True                  # whether the run of shape tests goes on
    child = -1                      # cur's child index under n0, -1 at n0

    def children(i: int) -> str:
        if i not in with_children:
            with_children.add(i)
            code.append("h%d = n%d.children" % (i, i))
        return "h%d" % i

    def fail_if(test: str) -> None:
        code.append("if %s:" % test)
        code.append("    return %d" % done)

    for s in p.steps:
        op = s.op
        if op == DESCEND:
            if shaping:
                shaping = not stack
                if shaping:
                    child = s.child_index
                    tests.append(ShapeTest(child, None, None, done))
            h, c = children(cur), const(s.child_index)
            fail_if("len(%s) <= %s" % (h, c))
            code.append("n%d = nodes[%s[%s]]" % (positions, h, c))
            stack.append(cur)
            cur, positions = positions, positions + 1
        elif op == ASCEND:
            cur = stack.pop()
            child = -1
        elif op == NEXT:
            shaping = False
            statement += 1
            code.append("n%d = nodes[stmts[start + %d]]" % (positions, statement))
            stack.clear()
            cur, positions = positions, positions + 1
        else:
            done += 1
            node = "n%d" % cur
            if op == KIND:
                test = "%s.kind != %s" % (node, const(s.kind))
                if exact_arity:
                    test += " or len(%s.children) != %s" % (node, const(s.arity))
                fail_if(test)
                if shaping:
                    shaping = child < 0 or not exact_arity
                    if shaping:
                        tests.append(ShapeTest(child, s.kind,
                                               s.arity if exact_arity else None, done))
            elif op == SYMBOL:
                fail_if("%s.symbol != %s" % (node, const(s.name)))
            elif op == BIND:
                if s.class_id not in var_of:
                    var_of[s.class_id] = len(var_keys)
                    var_keys.append(const(s.class_id))
                code.append("v%d = %s.symbol or ''" % (var_of[s.class_id], node))
            else:  # CHECK, of a class bound before it
                fail_if("v%d != (%s.symbol or '')" % (var_of[s.class_id], node))
            shaping = shaping and op in (KIND, BIND)
    code.append("return {%s}" % ", ".join("%s: v%d" % (k, j)
                                           for j, k in enumerate(var_keys)))
    source = ("def make(%s):\n    def match(nodes, stmts, start):\n%s\n"
              "    return match\n" % (", ".join("c%d" % k for k in range(len(consts))),
                                       "\n".join("        " + ln for ln in code)))
    return source, tuple(consts), tuple(tests)


def shape_verdict(tests: tuple[ShapeTest, ...], kind: str,
                  child_kinds: tuple[str, ...]) -> int:
    """What the shape tests decide about any statement of this shape: the
    matcher's return value when one of them fails, else UNDECIDED."""
    for child, want, arity, fails_at in tests:
        if child < 0:
            if kind != want or (arity is not None and len(child_kinds) != arity):
                return fails_at
        elif child >= len(child_kinds) or (want is not None
                                           and child_kinds[child] != want):
            return fails_at
    return UNDECIDED


def _build(source: str, consts: tuple):
    """The matcher that matcher_source's source and constants define, as a
    Python function whose code sees no builtins but len."""
    namespace: dict = {"__builtins__": {}, "len": len}
    exec(compile(source, "<prog-v1 matcher>", "exec"), namespace)
    return namespace["make"](*consts)


# ---------------------------------------------------------------------------
# Program files ("prog-v1")
# ---------------------------------------------------------------------------

def serialize_program(p: MatcherProgram) -> str:
    """The program, checked when it was made, as prog-v1 text:
    json.dumps(doc, sort_keys=True, indent=1) plus a line break, doc holding
    the header fields (the counts derived from the steps), the origin and
    one record per step with op, node and each of the step's other fields
    that is not None.  Given an indent, json encodes in pure Python, so the
    fixed layout is written here, around values that _json encodes."""
    steps = []
    for op, node_id, kind, arity, name, class_id, child_index in p.steps:
        rec = "  {\n"
        if arity is not None:
            rec += '   "arity": %s,\n' % _json(arity)
        if child_index is not None:
            rec += '   "child": %s,\n' % _json(child_index)
        if class_id is not None:
            rec += '   "class": %s,\n' % _json(class_id)
        if kind is not None:
            rec += '   "kind": %s,\n' % _json(kind)
        if name is not None:
            rec += '   "name": %s,\n' % _json(name)
        steps.append(rec + '   "node": %s,\n   "op": %s\n  }'
                     % (_json(node_id), _json(op)))
    o = p.origin
    origin = "null" if o is None else (
        '{\n  "lines": [\n   %s,\n   %s\n  ],\n  "path": %s\n }'
        % (_json(o.line_start), _json(o.line_end), _json(o.path)))
    return ('{\n "format": %s,\n "origin": %s,\n "query_id": %s,\n'
            ' "statement_count": %s,\n "steps": %s,\n "symbol_policy": %s,\n'
            ' "template_depth": %s,\n "var_class_count": %s\n}\n'
            % (_json(FORMAT), origin, _json(p.query_id),
               _json(p.statement_count),
               "[\n%s\n ]" % ",\n".join(steps),
               _json(p.symbol_policy), _json(p.template_depth),
               _json(p.var_class_count)))


def _json(value: str | int) -> str:
    """value as json encodes it."""
    return encode_basestring_ascii(value) if type(value) is str else int.__repr__(value)


def deserialize_program(text: str) -> MatcherProgram:
    """Read a prog-v1 document; any defect raises ProgramFormatError.

    The program is checked as it is made (validate_program), and each
    header count the document holds must equal the one its steps imply.
    Text that is no prog-v1 document at all raises NotAProgram."""
    try:
        doc = jsonl.decode(text)
    except ValueError as e:
        raise NotAProgram(str(e)) from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise NotAProgram("missing %r header" % FORMAT)
    raw_steps = doc.get("steps")
    if not isinstance(raw_steps, list):
        raise ProgramFormatError("missing steps")
    steps = []
    for i, rec in enumerate(raw_steps):
        if not isinstance(rec, dict) or "op" not in rec or "node" not in rec:
            raise ProgramFormatError("malformed step %d" % i)
        steps.append(MatcherStep(rec["op"], rec["node"], rec.get("kind"),
                                 rec.get("arity"), rec.get("name"), rec.get("class"),
                                 rec.get("child")))
    try:
        origin = origin_from_json(doc.get("origin"))
    except ValueError as e:
        raise ProgramFormatError(str(e)) from None
    p = MatcherProgram(tuple(steps), doc.get("query_id", ""),
                       doc.get("symbol_policy", "preserve"), origin)
    for key in ("statement_count", "var_class_count", "template_depth"):
        if key in doc and (type(doc[key]) is not int or doc[key] != getattr(p, key)):
            raise ProgramFormatError("%s is %s, but the steps imply %d"
                                     % (key, json.dumps(doc[key]), getattr(p, key)))
    return p
