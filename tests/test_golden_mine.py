"""Mining outputs are pinned to recorded digests.

A seeded generate_test_corpus is mined with 12 queries, and the sha256 of
matches.jsonl and of stats.jsonl (each record less its wall_time_s) is
compared with recorded digests.  A change in any match, binding, line span,
comparison count or tried anchor shows up here.

The digests were first recorded with the step interpreter that the
generated matchers replaced, and recorded again when query ids stopped
hashing a template's mode and its list of same-class position pairs.  The
outputs then equalled the earlier ones with each old id replaced by its new
one.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from analogue.compiler import compile_template
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                render_file, render_snippet)
from analogue.engine import ScanOptions
from analogue.miner import MinerOptions, mine_repositories, write_mining_outputs
from analogue.php_parser import parse_source
from analogue.template import derive_template

GOLDEN = {
    # exact_arity: (matches.jsonl, stats.jsonl less wall_time_s)
    False: ("a93029c5997e683e2864e3617f3485fe8e5b4d024ca0dd8474710676e496f67f",
            "4ea146a4f5f04446620ce6cb0f83f653bf039a6e6bcb066a626fbc50daaf18ef"),
    True: ("ea77f128b0df9db1f0b727f6316da651a0db55f940035827d8dab9478af93e41",
           "a480b58e7d3122981b8b55b494bba7ab8f33a6ccc5cfb64116cf5c68cd1aa77a"),
}


def stats_digest(text: str) -> str:
    records = [json.loads(line) for line in text.splitlines()]
    for rec in records:
        rec.pop("wall_time_s", None)
    return hashlib.sha256("".join(json.dumps(rec, sort_keys=True) + "\n"
                                  for rec in records).encode()).hexdigest()


@pytest.mark.parametrize("exact_arity", sorted(GOLDEN))
def test_mined_outputs_match_recorded_digests(tmp_path, exact_arity):
    rng = random.Random(1709)
    seeds = distinct_snippets(rng, 6)
    generate_test_corpus(seeds, tmp_path / "corpus", repo_count=12, rng_seed=23)
    programs = []
    for seed in seeds:
        unit = parse_source(render_file(render_snippet(seed)))
        for policy in ("preserve", "wildcard"):
            programs.append(compile_template(derive_template(
                unit, unit.children_of(unit.nodes[unit.root]), symbol_policy=policy)))
    opts = MinerOptions(scan=ScanOptions(exact_arity=exact_arity))
    repos = sorted(d for d in (tmp_path / "corpus").iterdir() if d.is_dir())
    paths = write_mining_outputs(mine_repositories(repos, programs, opts=opts),
                                 tmp_path / "out")
    matches = paths["matches"].read_bytes()
    assert matches.count(b"\n") > 12
    assert (hashlib.sha256(matches).hexdigest(),
            stats_digest(paths["stats"].read_text())) == GOLDEN[exact_arity]
