"""Compile templates into linear matcher programs, and programs into Python.

A program is a flat sequence of filter/bind/check steps plus explicit tree
navigation, emitted in pre-order per statement: the in-process equivalent of
a generated graph traversal.  Programs are immutable and safe to share across
scan workers.  Each process turns a program into a straight-line Python
function on first use (build_matcher); that function is the only code that
runs a program.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .template import (ApiSymbol, SeedOrigin, Template, VarWildcard,
                       query_id_of)

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


@dataclass(frozen=True)
class MatcherStep:
    op: str
    node_id: int                    # template node this step came from
    kind: str | None = None
    arity: int | None = None        # template child count (exact-arity scans)
    name: str | None = None
    class_id: int | None = None
    child_index: int | None = None


@dataclass(frozen=True)
class MatcherProgram:
    steps: tuple[MatcherStep, ...]
    statement_count: int
    var_class_count: int
    template_depth: int
    query_id: str
    symbol_policy: str = "preserve"
    origin: SeedOrigin | None = None
    # Generated matchers by (exact_arity, injective_bindings), built on first
    # use in each process and never pickled.
    _matchers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_matchers": {}}

    def step_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.steps:
            out[s.op] = out.get(s.op, 0) + 1
        return out

    @cached_property
    def preserved_symbols(self) -> frozenset:
        """The SYMBOL names: a unit lacking one of them cannot match."""
        return frozenset(s.name for s in self.steps if s.op == SYMBOL)

    @cached_property
    def comparison_steps(self) -> int:
        """Node comparisons of an attempt that matches: every step but navigation."""
        return sum(1 for s in self.steps if s.op not in NAVIGATION)

    def matcher(self, exact_arity: bool = False, injective_bindings: bool = False):
        """The generated matcher for these options (see build_matcher), cached."""
        key = (bool(exact_arity), bool(injective_bindings))
        fn = self._matchers.get(key)
        if fn is None:
            fn = self._matchers[key] = build_matcher(self, *key)
        return fn


class ProgramFormatError(Exception):
    pass


def compile_template(t: Template) -> MatcherProgram:
    """Linearize a template: one kind filter per node in pre-order, a symbol
    filter for preserved callee names, and bind/check steps so that the first
    occurrence of each variable class binds and later ones compare."""
    steps: list[MatcherStep] = []
    bound: set[int] = set()

    def emit(node_id: int) -> None:
        n = t.nodes[node_id]
        steps.append(MatcherStep(KIND, node_id, kind=n.kind, arity=len(n.children)))
        role = n.leaf_role
        if isinstance(role, ApiSymbol):
            steps.append(MatcherStep(SYMBOL, node_id, name=role.name))
        elif isinstance(role, VarWildcard):
            if role.class_id in bound:
                steps.append(MatcherStep(CHECK, node_id, class_id=role.class_id))
            else:
                bound.add(role.class_id)
                steps.append(MatcherStep(BIND, node_id, class_id=role.class_id))
        for i, c in enumerate(n.children):
            steps.append(MatcherStep(DESCEND, c, child_index=i))
            emit(c)
            steps.append(MatcherStep(ASCEND, node_id))

    for i, root in enumerate(t.statements):
        if i:
            steps.append(MatcherStep(NEXT, root))
        emit(root)

    return MatcherProgram(steps=tuple(steps),
                          statement_count=len(t.statements),
                          var_class_count=t.var_class_count,
                          template_depth=t.template_depth,
                          query_id=query_id_of(t),
                          symbol_policy=t.symbol_policy,
                          origin=t.seed_origin)


def validate_program(p: MatcherProgram) -> None:
    """Check the invariants the generated matcher relies on.

    Every op is known and carries a value of its type: a str kind, an int
    arity >= 0 or none, a str name, an int class id and an int child index
    >= 0.  Navigation is balanced per statement, a class binds before it is
    checked, and statement_count matches the statement boundaries.  Raises
    ProgramFormatError naming the first offending step.
    """
    depth = 0
    bound: set[int] = set()
    for i, s in enumerate(p.steps):
        op = s.op
        if op == KIND:
            if type(s.kind) is not str:
                raise ProgramFormatError("step %d: kind must be a string" % i)
            if s.arity is not None and not _is_index(s.arity):
                raise ProgramFormatError("step %d: arity must be an int >= 0" % i)
        elif op == SYMBOL:
            if type(s.name) is not str:
                raise ProgramFormatError("step %d: name must be a string" % i)
        elif op in (BIND, CHECK):
            if type(s.class_id) is not int:
                raise ProgramFormatError("step %d: class must be an int" % i)
            if op == BIND:
                bound.add(s.class_id)
            elif s.class_id not in bound:
                raise ProgramFormatError("step %d: check before bind for class %d"
                                         % (i, s.class_id))
        elif op == DESCEND:
            if not _is_index(s.child_index):
                raise ProgramFormatError("step %d: child must be an int >= 0" % i)
            depth += 1
        elif op == ASCEND:
            depth -= 1
            if depth < 0:
                raise ProgramFormatError("step %d: ascend below statement root" % i)
        elif op == NEXT:
            if depth != 0:
                raise ProgramFormatError("step %d: statement boundary inside a subtree"
                                         % i)
        else:
            raise ProgramFormatError("step %d: unknown op %r" % (i, op))
    if depth != 0:
        raise ProgramFormatError("unbalanced navigation at end of program")
    next_count = sum(1 for s in p.steps if s.op == NEXT)
    if next_count + 1 != p.statement_count:
        raise ProgramFormatError("statement_count does not match boundaries")


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
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Generated matchers
# ---------------------------------------------------------------------------

def matcher_source(p: MatcherProgram, exact_arity: bool = False,
                   injective_bindings: bool = False) -> tuple[str, tuple]:
    """The Python source of the program's matcher, and the constants it takes.

    The source defines make(c0, c1, ...), which returns
    match(nodes, stmts, start): the program tried on the statements from
    stmts[start] on, nodes being the unit's node table.  match returns the
    bindings (class id -> name) when they match.  Otherwise it returns the
    number of KIND, SYMBOL, BIND and CHECK steps run up to the failing test;
    a match runs all p.comparison_steps of them.  A step with an unknown op
    counts as a comparison and does nothing else.

    The code is straight-line: one local n<i> per tree position (h<i> for
    its children), one v<j> per variable class, one early return per test.
    No value read from the program is written into the text.  Kinds, names,
    arities, class ids and child indices are passed in as the constants c<i>,
    each distinct value once; the text holds only fixed fragments, numbered
    locals and comparison counts.
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
            h, c = children(cur), const(s.child_index)
            fail_if("len(%s) <= %s" % (h, c))
            code.append("n%d = nodes[%s[%s]]" % (positions, h, c))
            stack.append(cur)
            cur, positions = positions, positions + 1
        elif op == ASCEND:
            cur = stack.pop()
        elif op == NEXT:
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
            elif op == SYMBOL:
                fail_if("%s.symbol != %s" % (node, const(s.name)))
            elif op == BIND:
                value = "%s.symbol or ''" % node
                if injective_bindings and var_of:
                    code.append("s = " + value)
                    fail_if(" or ".join("s == v%d" % j for j in var_of.values()))
                    value = "s"
                if s.class_id not in var_of:
                    var_of[s.class_id] = len(var_keys)
                    var_keys.append(const(s.class_id))
                code.append("v%d = %s" % (var_of[s.class_id], value))
            elif op == CHECK:
                if s.class_id in var_of:
                    fail_if("v%d != (%s.symbol or '')" % (var_of[s.class_id], node))
                else:
                    code.append("return %d" % done)
    code.append("return {%s}" % ", ".join("%s: v%d" % (k, j)
                                           for j, k in enumerate(var_keys)))
    source = ("def make(%s):\n    def match(nodes, stmts, start):\n%s\n"
              "    return match\n" % (", ".join("c%d" % k for k in range(len(consts))),
                                       "\n".join("        " + ln for ln in code)))
    return source, tuple(consts)


def build_matcher(p: MatcherProgram, exact_arity: bool = False,
                  injective_bindings: bool = False):
    """The program's matcher (see matcher_source) as a Python function.

    Its code sees no builtins but len.  MatcherProgram.matcher builds each
    variant once per process and caches it.
    """
    source, consts = matcher_source(p, exact_arity, injective_bindings)
    namespace: dict = {"__builtins__": {}, "len": len}
    exec(compile(source, "<prog-v1 matcher>", "exec"), namespace)
    return namespace["make"](*consts)


# ---------------------------------------------------------------------------
# Program files ("prog-v1")
# ---------------------------------------------------------------------------

def serialize_program(p: MatcherProgram) -> str:
    steps = []
    for s in p.steps:
        rec: dict = {"op": s.op, "node": s.node_id}
        for key, val in (("kind", s.kind), ("arity", s.arity), ("name", s.name),
                         ("class", s.class_id), ("child", s.child_index)):
            if val is not None:
                rec[key] = val
        steps.append(rec)
    doc = {
        "format": FORMAT,
        "query_id": p.query_id,
        "statement_count": p.statement_count,
        "var_class_count": p.var_class_count,
        "template_depth": p.template_depth,
        "symbol_policy": p.symbol_policy,
        "origin": None if p.origin is None else {
            "path": p.origin.path,
            "lines": [p.origin.line_start, p.origin.line_end]},
        "steps": steps,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def deserialize_program(text: str) -> MatcherProgram:
    """Read a prog-v1 document; any defect raises ProgramFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProgramFormatError("not valid JSON: %s" % e) from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ProgramFormatError("missing %r header" % FORMAT)
    raw_steps = doc.get("steps")
    if not isinstance(raw_steps, list):
        raise ProgramFormatError("missing steps")
    steps = []
    for i, rec in enumerate(raw_steps):
        if not isinstance(rec, dict) or "op" not in rec or "node" not in rec:
            raise ProgramFormatError("malformed step %d" % i)
        steps.append(MatcherStep(op=rec["op"], node_id=rec["node"],
                                 kind=rec.get("kind"), arity=rec.get("arity"),
                                 name=rec.get("name"), class_id=rec.get("class"),
                                 child_index=rec.get("child")))
    header = {"statement_count": 1, "var_class_count": 0, "template_depth": 0}
    for key in header:
        header[key] = doc.get(key, header[key])
        if not _is_index(header[key]):
            raise ProgramFormatError("%s must be an int >= 0" % key)
    query_id = doc.get("query_id", "")
    symbol_policy = doc.get("symbol_policy", "preserve")
    if type(query_id) is not str or type(symbol_policy) is not str:
        raise ProgramFormatError("query_id and symbol_policy must be strings")
    origin = None
    o = doc.get("origin")
    if o is not None:
        if not isinstance(o, dict) or not isinstance(o.get("lines"), list) \
                or len(o["lines"]) != 2:
            raise ProgramFormatError("malformed origin")
        origin = SeedOrigin(o.get("path", "?"), o["lines"][0], o["lines"][1])
    p = MatcherProgram(steps=tuple(steps), query_id=query_id,
                       symbol_policy=symbol_policy, origin=origin, **header)
    validate_program(p)
    return p
