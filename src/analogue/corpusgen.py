"""Deterministic generation of PHP snippets, mutants and plantable corpora.

Snippets are built from structured statement specs so mutations are exact:
renaming is a bijection on variable names, literal changes never touch
variables, and insertions either go between seed statements (destroying the
consecutive run) or around them (leaving it intact).  A generated corpus
ships with a plant ledger stating, per planted file, whether the seed's query
must still match.

This is test and benchmark input, not pipeline: ``import analogue`` does not
load it.  It stays in the package only because perfbench imports it
(ROADMAP item 3b).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from . import jsonl

_WORDS = ("alpha", "bravo", "cargo", "delta", "entry", "flags", "gamma",
          "hotel", "index", "juror", "kiosk", "lemma", "motif", "north",
          "oasis", "panel", "query", "radar", "sigma", "token", "umbra",
          "vivid", "wharf", "xenon", "yield2", "zonal")

_SUPERGLOBALS = ("$_POST", "$_GET", "$_REQUEST", "$_COOKIE")

# Mutation names accepted by mutate() / generate_test_corpus().
MUTATIONS = ("verbatim", "rename", "literal", "insert_around",
             "insert_between", "break_flow")
# Which mutations leave the seed's query matching the planted code.
MUTATION_PRESERVES = {
    "verbatim": True,
    "rename": True,
    "literal": True,
    "insert_around": True,
    "insert_between": False,
    "break_flow": False,
}


@dataclass(frozen=True)
class Stmt:
    shape: str
    fields: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        return dict(self.fields)[key]

    def with_fields(self, **kw: str) -> "Stmt":
        d = dict(self.fields)
        d.update(kw)
        return Stmt(self.shape, tuple(sorted(d.items())))


def _stmt(shape: str, **kw: str) -> Stmt:
    return Stmt(shape, tuple(sorted(kw.items())))


@dataclass
class Snippet:
    name: str
    stmts: list[Stmt]

    def var_names(self) -> list[str]:
        seen: list[str] = []
        for s in self.stmts:
            for key, val in s.fields:
                if key.startswith("v_") and val not in seen:
                    seen.append(val)
        return seen


# Fields prefixed v_ hold variable names (without '$'); everything else is
# literal material or a callee name.

def render_stmt(s: Stmt) -> str:
    f = dict(s.fields)
    if s.shape == "assign_index":
        return "$%s = %s['%s'];" % (f["v_var"], f["base"], f["key"])
    if s.shape == "assign_index_var":
        return "$%s = $%s['%s'];" % (f["v_var"], f["v_base"], f["key"])
    if s.shape == "assign_call_str":
        # {$name} interpolation keeps the hole intact whatever pre/post hold
        return '$%s = %s("%s{$%s}%s");' % (f["v_var"], f["fn"], f["pre"],
                                           f["v_hole"], f["post"])
    if s.shape == "call_str":
        return '%s("%s{$%s}%s");' % (f["fn"], f["pre"], f["v_hole"], f["post"])
    if s.shape == "assign_concat":
        return "$%s = $%s . '%s';" % (f["v_var"], f["v_src"], f["lit"])
    if s.shape == "echo_concat":
        return "echo '%s' . $%s . '%s';" % (f["pre"], f["v_src"], f["post"])
    if s.shape == "echo_index":
        return "echo '%s' . $%s['%s'] . '%s';" % (f["pre"], f["v_src"],
                                                  f["key"], f["post"])
    if s.shape == "call_var":
        return "%s($%s, '%s');" % (f["fn"], f["v_src"], f["lit"])
    # filler shapes
    if s.shape == "echo_lit":
        return "echo '%s';" % f["lit"]
    if s.shape == "assign_num":
        return "$%s = %s;" % (f["v_var"], f["num"])
    if s.shape == "assign_lit":
        return "$%s = '%s';" % (f["v_var"], f["lit"])
    if s.shape == "call_lits":
        return "%s('%s', %s);" % (f["fn"], f["lit"], f["num"])
    raise ValueError("unknown statement shape %r" % s.shape)


def render_snippet(s: Snippet) -> list[str]:
    return [render_stmt(st) for st in s.stmts]


def render_file(body_lines: list[str]) -> str:
    return "<?php\n" + "\n".join(body_lines) + "\n"


# ---------------------------------------------------------------------------
# Random snippets
# ---------------------------------------------------------------------------

def _name(rng: random.Random, prefix: str = "") -> str:
    return prefix + rng.choice(_WORDS) + str(rng.randrange(10, 100))


def random_snippet(rng: random.Random, name: str | None = None,
                   n_statements: int | None = None) -> Snippet:
    """A seed snippet with at least one cross-statement variable reuse."""
    n = n_statements or rng.randint(2, 4)
    fn = _name(rng, "proc_")
    first_var = _name(rng, "in_")
    stmts = [_stmt("assign_index", v_var=first_var,
                   base=rng.choice(_SUPERGLOBALS), key=_name(rng))]
    defined = [first_var]
    for i in range(1, n):
        # every later statement reuses an already-defined variable, so the
        # snippet always carries at least one cross-statement data-flow edge
        src = rng.choice(defined)
        shape = rng.choice(("assign_call_str", "call_str", "assign_concat",
                            "echo_concat", "echo_index", "call_var"))
        if shape == "assign_call_str":
            new = _name(rng, "out_")
            stmts.append(_stmt("assign_call_str", v_var=new, fn=fn,
                               pre=_name(rng) + " '", v_hole=src, post="'"))
            defined.append(new)
        elif shape == "call_str":
            stmts.append(_stmt("call_str", fn=fn, pre=_name(rng) + "=",
                               v_hole=src, post=""))
        elif shape == "assign_concat":
            new = _name(rng, "mid_")
            stmts.append(_stmt("assign_concat", v_var=new, v_src=src,
                               lit=_name(rng)))
            defined.append(new)
        elif shape == "echo_concat":
            stmts.append(_stmt("echo_concat", pre=_name(rng), v_src=src,
                               post=_name(rng)))
        elif shape == "echo_index":
            stmts.append(_stmt("echo_index", pre=_name(rng), v_src=src,
                               key=_name(rng), post=_name(rng)))
        else:
            stmts.append(_stmt("call_var", fn=fn, v_src=src, lit=_name(rng)))
    return Snippet(name=name or fn, stmts=stmts)


def distinct_snippets(rng: random.Random, count: int,
                      n_statements: int | None = None,
                      symbol_policy: str = "preserve",
                      max_tries: int = 500) -> list[Snippet]:
    """Random seeds whose queries do not match each other's renderings.

    Two independently drawn snippets can be structure-identical (shapes line
    up and wildcarding erases the rest), which would make one seed's query
    legitimately hit another seed's plants.  Corpus ledgers assume that never
    happens, so reject candidates until the set is pairwise non-matching.
    """
    from .compiler import compile_template
    from .engine import scan_unit
    from .php_parser import parse_source
    from .template import derive_template

    def query_for(snippet: Snippet):
        unit = parse_source(render_file(render_snippet(snippet)), path=snippet.name)
        stmts = unit.children_of(unit.nodes[unit.root])
        return compile_template(derive_template(unit, stmts,
                                                symbol_policy=symbol_policy)), unit

    out: list[Snippet] = []
    kept: list[tuple] = []  # (program, rendered unit)
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not draw %d pairwise-distinct snippets" % count)
        cand = random_snippet(rng, name="seed%d" % len(out),
                              n_statements=n_statements)
        prog_c, unit_c = query_for(cand)
        clash = False
        for prog_s, unit_s in kept:
            if scan_unit(prog_c, unit_s)[0] or scan_unit(prog_s, unit_c)[0]:
                clash = True
                break
        if clash:
            continue
        out.append(cand)
        kept.append((prog_c, unit_c))
    return out


def random_filler(rng: random.Random) -> Stmt:
    shape = rng.choice(("echo_lit", "assign_num", "assign_lit", "call_lits"))
    if shape == "echo_lit":
        return _stmt("echo_lit", lit=_name(rng))
    if shape == "assign_num":
        return _stmt("assign_num", v_var=_name(rng, "f_"), num=str(rng.randrange(1000)))
    if shape == "assign_lit":
        return _stmt("assign_lit", v_var=_name(rng, "f_"), lit=_name(rng))
    return _stmt("call_lits", fn=_name(rng, "log_"), lit=_name(rng),
                 num=str(rng.randrange(1000)))


# ---------------------------------------------------------------------------
# Mutations
# ---------------------------------------------------------------------------

def _rename(s: Snippet, rng: random.Random) -> Snippet:
    mapping = {}
    for v in s.var_names():
        mapping[v] = _name(rng, "r_")
    out = []
    for st in s.stmts:
        kw = {k: mapping[v] for k, v in st.fields if k.startswith("v_")}
        out.append(st.with_fields(**kw) if kw else st)
    return Snippet(s.name, out)


def _change_literals(s: Snippet, rng: random.Random) -> Snippet:
    out = []
    for st in s.stmts:
        kw = {}
        for k, v in st.fields:
            if k in ("key", "lit", "pre", "post"):
                kw[k] = _name(rng, "L")
            elif k == "num":
                kw[k] = str(rng.randrange(1000, 9999))
        out.append(st.with_fields(**kw) if kw else st)
    return Snippet(s.name, out)


def _break_flow(s: Snippet, rng: random.Random) -> Snippet:
    """Rename one reuse occurrence of a shared variable, severing its edge."""
    counts: dict[str, int] = {}
    for st in s.stmts:
        for k, v in st.fields:
            if k.startswith("v_"):
                counts[v] = counts.get(v, 0) + 1
    shared = [v for v, c in counts.items() if c >= 2]
    if not shared:
        raise ValueError("snippet has no shared variable to break")
    victim = rng.choice(shared)
    fresh = _name(rng, "b_")
    out = []
    broken = False
    seen_first = False
    for st in s.stmts:
        kw = {}
        for k, v in st.fields:
            if k.startswith("v_") and v == victim:
                if not seen_first:
                    seen_first = True          # keep the first occurrence
                elif not broken:
                    kw[k] = fresh              # rename exactly one later use
                    broken = True
        out.append(st.with_fields(**kw) if kw else st)
    return Snippet(s.name, out)


def mutate(s: Snippet, mutation: str, rng: random.Random) -> tuple[list[str], int]:
    """Render a mutated snippet; returns (lines, index of first seed line).

    Insertions add filler lines; for insert_between the filler lands between
    the first two seed statements.
    """
    if mutation == "verbatim":
        return render_snippet(s), 0
    if mutation == "rename":
        return render_snippet(_rename(s, rng)), 0
    if mutation == "literal":
        return render_snippet(_change_literals(s, rng)), 0
    if mutation == "insert_around":
        lines = render_snippet(s)
        before = [render_stmt(random_filler(rng))
                  for _ in range(rng.randint(1, 2))]
        after = [render_stmt(random_filler(rng))]
        return before + lines + after, len(before)
    if mutation == "insert_between":
        if len(s.stmts) < 2:
            raise ValueError("insert_between needs at least two statements")
        lines = render_snippet(s)
        filler = render_stmt(random_filler(rng))
        return [lines[0], filler] + lines[1:], 0
    if mutation == "break_flow":
        return render_snippet(_break_flow(s, rng)), 0
    raise ValueError("unknown mutation %r" % mutation)


# ---------------------------------------------------------------------------
# Corpus generation with a plant ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantRecord:
    repo: str
    file: str               # path relative to the corpus root
    seed: str
    mutation: str
    expect_match: bool
    line_start: int         # first seed line in the file (1-based)


@dataclass
class CorpusLedger:
    root: str
    plants: list[PlantRecord] = field(default_factory=list)

    def expected(self) -> set[tuple[str, str]]:
        """(seed, file) pairs that must be found."""
        return {(p.seed, p.file) for p in self.plants if p.expect_match}

    def to_jsonl(self) -> str:
        return "".join(jsonl.line({
            "repo": p.repo, "file": p.file, "seed": p.seed,
            "mutation": p.mutation, "expect_match": p.expect_match,
            "line_start": p.line_start,
        }) for p in self.plants)


def plant_file(seed: Snippet, mutation: str, rng: random.Random,
               filler_before: int = 2, filler_after: int = 2) -> tuple[str, int]:
    """One PHP file with the (mutated) seed planted among filler statements.

    Returns (file text, 1-based line of the first seed statement).
    """
    lines, seed_offset = mutate(seed, mutation, rng)
    before = [render_stmt(random_filler(rng)) for _ in range(filler_before)]
    after = [render_stmt(random_filler(rng)) for _ in range(filler_after)]
    body = before + lines + after
    # "<?php" is line 1, body starts on line 2
    plant_line = 2 + len(before) + seed_offset
    return render_file(body), plant_line


def filler_file(rng: random.Random, n_statements: int = 6) -> str:
    return render_file([render_stmt(random_filler(rng))
                        for _ in range(n_statements)])


def generate_test_corpus(seeds: list[Snippet], out_dir: str | Path,
                         repo_count: int,
                         mutations: tuple[str, ...] = MUTATIONS,
                         rng_seed: int = 0,
                         files_per_repo: int = 3) -> CorpusLedger:
    """Write repo_count repositories under out_dir and return the plant ledger.

    Each planted file holds exactly one (seed, mutation) instance; remaining
    files are pure filler.
    """
    if repo_count < 1:
        raise ValueError("repo_count must be >= 1")
    for m in mutations:
        if m not in MUTATIONS:
            raise ValueError("unknown mutation %r" % m)
    rng = random.Random(rng_seed)
    out = Path(out_dir)
    ledger = CorpusLedger(root=str(out))
    for r in range(repo_count):
        repo_name = "repo%03d" % r
        repo_dir = out / repo_name / "src"
        repo_dir.mkdir(parents=True, exist_ok=True)
        for f in range(files_per_repo):
            rel = "%s/src/file%d.php" % (repo_name, f)
            path = out / rel
            if f == files_per_repo - 1:
                path.write_text(filler_file(rng), encoding="utf-8")
                continue
            seed = seeds[(r * files_per_repo + f) % len(seeds)]
            mutation = mutations[(r + f) % len(mutations)]
            if mutation in ("insert_between", "break_flow") and len(seed.stmts) < 2:
                mutation = "rename"
            text, plant_line = plant_file(seed, mutation, rng)
            path.write_text(text, encoding="utf-8")
            ledger.plants.append(PlantRecord(
                repo=repo_name, file=rel, seed=seed.name, mutation=mutation,
                expect_match=MUTATION_PRESERVES[mutation],
                line_start=plant_line))
    (out / "ledger.jsonl").write_text(ledger.to_jsonl(), encoding="utf-8")
    return ledger


def scaled_file(rng: random.Random, n_statements: int,
                nest_every: int = 12) -> str:
    """A filler file with n_statements statements, some inside if/while blocks.

    Statement shapes are drawn uniformly, so files generated with 10x the
    statements have close to 10x the AST nodes.
    """
    lines: list[str] = []
    emitted = 0
    while emitted < n_statements:
        if nest_every and emitted and emitted % nest_every == 0:
            header = rng.choice(("if", "while"))
            lines.append("%s ($%s) {" % (header, _name(rng, "c_")))
            for _ in range(min(3, n_statements - emitted)):
                lines.append("    " + render_stmt(random_filler(rng)))
                emitted += 1
            lines.append("}")
        else:
            lines.append(render_stmt(random_filler(rng)))
            emitted += 1
    return render_file(lines)
