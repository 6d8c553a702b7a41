"""Mining outputs are pinned to recorded digests.

A seeded generate_test_corpus is mined with 12 queries, and the sha256 of
matches.jsonl and of stats.jsonl (each record less its wall_time_s) is
compared with the digests recorded with the step interpreter that the
generated matchers replaced.  A change in any match, binding, line span,
comparison count or tried anchor shows up here.
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
    False: ("dced33af1a70332771c8f07a1222b7c8bf69e91067e8c3d570a5d5ae202c850f",
            "44c502813da4a1645562dd85197f5ddcf97f7fc676e528f71c65cbf1619f8d6b"),
    True: ("31410f709cd7d0fbb052a7ba2b92c073b4db3ef39eb43220fef38a5ea10214eb",
           "c8eefca33b2fc6b731cc7d496ecbba54f989940717005e93276cb1276f319443"),
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
