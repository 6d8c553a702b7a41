#!/usr/bin/env python3
# Generate a corpus of small repositories with planted (and mutated) copies
# of seed snippets, mine it in parallel, and reconcile against the ledger.

import random
import tempfile
from pathlib import Path

from analogue import (compile_template, derive_template, mine_repositories,
                      parse_source, write_mining_outputs)
from analogue.corpusgen import (distinct_snippets, generate_test_corpus,
                                render_file, render_snippet)
from analogue.report import load_match_records, render_summary, rows_from_records

workdir = Path(tempfile.mkdtemp(prefix="analogue-demo-"))
rng = random.Random(2024)

# pairwise-distinct seeds: no seed's query can hit another seed's plants
seeds = distinct_snippets(rng, 3, n_statements=3)
for s in seeds:
    print("--- %s ---" % s.name)
    print("\n".join(render_snippet(s)))

ledger = generate_test_corpus(seeds, workdir / "corpus", repo_count=10,
                              rng_seed=7)
print("\nplanted %d snippets across 10 repositories" % len(ledger.plants))
print("expected to survive mutation: %d"
      % sum(p.expect_match for p in ledger.plants))

programs = []
seed_of = {}
for s in seeds:
    unit = parse_source(render_file(render_snippet(s)), path=s.name)
    p = compile_template(derive_template(unit, unit.children_of(unit.nodes[unit.root])))
    programs.append(p)
    seed_of[p.query_id] = s.name

repos = sorted(p for p in (workdir / "corpus").iterdir() if p.is_dir())
results = mine_repositories(repos, programs, jobs=4)

found = {(seed_of[m.query_id], m.unit_path) for r in results for m in r.matches}
print("\nfound %d matches; ledger agreement: %s"
      % (sum(len(r.matches) for r in results), found == ledger.expected()))

paths = write_mining_outputs(results, workdir / "out")
records, _ = load_match_records(paths["matches"].read_text())
print("\n" + render_summary(rows_from_records(records)))
print("outputs under", workdir / "out")
