"""The indexed scan against an exhaustive anchor loop, and the symbol prefilter.

scan_unit tries only the anchors listed under the kind of the program's first
KIND step; the miner skips units that lack one of a program's preserved
symbols.  Both must leave the matches, and their order, unchanged.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import random

from analogue.compiler import (KIND, compile_template, deserialize_program,
                               serialize_program)
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                plant_file, random_filler, random_snippet,
                                render_file, render_snippet, render_stmt)
from analogue.engine import (ScanOptions, attach_excerpt, match_at,
                             match_to_record, scan_unit)
from analogue.miner import (MinerOptions, discover_files, scan_repository,
                            write_mining_outputs)
from analogue.php_parser import parse_source
from analogue.template import derive_template


def program_for(seed, symbol_policy):
    unit = parse_source(render_file(render_snippet(seed)))
    t = derive_template(unit, unit.children_of(unit.nodes[unit.root]),
                        symbol_policy=symbol_policy)
    return compile_template(t)


def exhaustive_scan(p, unit, opts):
    """Every StmtList x every start, in document order, through match_at."""
    matches = []
    for sl in unit.stmt_lists():
        for start in range(len(sl.children)):
            m = match_at(p, unit, sl.id, start, opts)
            if m is not None:
                matches.append(m)
    return matches


def planted_unit(seed, rng):
    """Filler around several plants of the seed, some nested one or two deep."""
    body = [render_stmt(random_filler(rng)) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, 4)):
        text, _ = plant_file(seed, rng.choice(("verbatim", "rename", "literal")),
                             rng, filler_before=rng.randint(0, 2),
                             filler_after=rng.randint(0, 2))
        lines = text.split("\n", 1)[1].splitlines()
        for _ in range(rng.choice((0, 0, 1, 2))):
            lines = (["%s ($g%d) {" % (rng.choice(("if", "while")), rng.randrange(99))]
                     + lines + ["}"])
        body.extend(lines)
    return parse_source(render_file(body))


OPTION_GRID = [ScanOptions(depth_pruning=d, exact_arity=e, injective_bindings=i)
               for d, e, i in itertools.product((True, False), repeat=3)]


def test_indexed_scan_equals_exhaustive_loop():
    rng = random.Random(41)
    seen_matches = 0
    for _ in range(12):
        seed = random_snippet(rng)
        unit = planted_unit(seed, rng)
        target_seed = random_snippet(rng)
        other = planted_unit(target_seed, rng)
        for policy in ("preserve", "wildcard"):
            p = program_for(seed, policy)
            for u in (unit, other):
                for opts in OPTION_GRID:
                    got, _ = scan_unit(p, u, opts)
                    want = exhaustive_scan(p, u, opts)
                    assert [m.key() for m in got] == [m.key() for m in want]
                    seen_matches += len(got)
    assert seen_matches


def test_program_not_opening_with_kind_falls_back_to_every_anchor():
    seed = parse_source("<?php echo $a;")
    echo = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root])))
    assert echo.steps[0].op == KIND
    # Without its statement-root KIND step the program is still valid prog-v1
    # and matches any statement whose first child is a variable.
    loose = deserialize_program(serialize_program(
        dataclasses.replace(echo, steps=echo.steps[1:])))
    assert loose.steps[0].op != KIND
    unit = parse_source("<?php\necho $x;\nif ($c) {\n  return $y;\n}\nprint_it($z);\n")
    for opts in OPTION_GRID:
        got, _ = scan_unit(loose, unit, opts)
        assert [m.key() for m in got] == [m.key() for m in exhaustive_scan(loose, unit, opts)]
    got, _ = scan_unit(loose, unit)
    assert [unit.nodes[unit.nodes[m.stmt_list_id].children[m.start_index]].kind
            for m in got] == ["Echo", "If", "Return"]
    assert len(scan_unit(echo, unit)[0]) == 1


def test_mining_with_prefilter_equals_scanning_every_unit(tmp_path):
    rng = random.Random(43)
    seeds = distinct_snippets(rng, 4)
    generate_test_corpus(seeds, tmp_path, repo_count=4, rng_seed=5)
    programs = [program_for(s, policy) for s in seeds
                for policy in ("preserve", "wildcard")]
    opts = MinerOptions()
    skipped = 0
    for repo in sorted(d for d in tmp_path.iterdir() if d.is_dir()):
        result = scan_repository(repo, programs, opts)
        skipped += sum(s.units_skipped for s in result.stats)
        units = []
        for rel in discover_files(repo, opts):
            text = (repo / rel).read_text(encoding="utf-8")
            units.append((parse_source(text, path="%s/%s" % (repo.name, rel)), text))
        want = []
        for p in programs:
            for unit, text in units:
                want.extend(attach_excerpt(m, text) for m in scan_unit(p, unit)[0])
        assert ([match_to_record(m) for m in result.matches]
                == [match_to_record(m) for m in want])
    assert skipped > 0


def test_absent_callee_skips_every_unit(tmp_path):
    rng = random.Random(47)
    generate_test_corpus(distinct_snippets(rng, 3), tmp_path, repo_count=2,
                         rng_seed=7)
    seed = parse_source("<?php\n$a = $_POST['x'];\nnever_called_here(\"SELECT '$a'\");\n")
    p = compile_template(derive_template(seed, seed.children_of(seed.nodes[seed.root]),
                                         symbol_policy="preserve"))
    results = [scan_repository(tmp_path / ("repo%03d" % r), [p]) for r in range(2)]
    for r in results:
        assert r.files_scanned == 3
        [s] = r.stats
        assert (s.units_skipped, s.candidates_tried, s.node_comparisons,
                s.match_count) == (3, 0, 0, 0)
    paths = write_mining_outputs(results, tmp_path / "out")
    records = [json.loads(line) for line in paths["stats"].read_text().splitlines()]
    assert [(rec["units_skipped"], rec["candidates_tried"]) for rec in records] \
        == [(3, 0), (3, 0)]
