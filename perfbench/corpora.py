"""Seeded inputs for the benchmark workloads.

Every workload plants mutated copies of seed snippets and keeps a ledger of
which plants the seed's queries must find, so a run can check its own
output.  Seeds are drawn pairwise distinct under the wildcard policy, the
looser of the two, so neither a wildcard nor a preserve query of one seed can
legitimately match another seed's plant.  Each seed gets one query per symbol
policy, which makes the query set half preserve and half wildcard.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from analogue.corpusgen import (MUTATION_PRESERVES, MUTATIONS, Snippet,
                                distinct_snippets, generate_test_corpus, mutate,
                                scaled_file)
from analogue.miner import (SKIP_BINARY, SKIP_PARSE_ERROR, SKIP_TOO_LARGE,
                            MinerOptions)

SYMBOL_POLICIES = ("preserve", "wildcard")
WORKLOADS = ("queries-heavy", "parse-heavy", "many-repos")


@dataclass(frozen=True)
class Plant:
    seed: str
    file: str           # "<repo>/<path in repo>", as match records name it
    line: int           # first seed line of the plant
    expect_match: bool


@dataclass
class Corpus:
    repos: list[Path]
    seeds: list[Snippet]
    plants: list[Plant]
    skips: dict[str, str]   # file -> skip reason the miner must record
    lines: int              # lines in the files the miner parses
    files: int              # files the miner parses

    def expected(self, queries_of: dict[str, list[str]]) -> set[tuple[str, str, int]]:
        """(query id, file, first line) of every match the queries must produce."""
        return {(q, p.file, p.line) for p in self.plants if p.expect_match
                for q in queries_of[p.seed]}


def _n(base: int, scale: float, least: int = 1) -> int:
    return max(least, round(base * scale))


def _planted_repos(root: Path, rng: random.Random, seeds: list[Snippet],
                   repo_count: int, files_per_repo: int, statements: int,
                   nest_every: int) -> Corpus:
    """Repositories of scaled_file files, each with one plant at top level.

    Plants cycle through the seeds and through every mutation, so the ledger
    holds both plants that must match and plants that must not.
    """
    corpus = Corpus(repos=[], seeds=seeds, plants=[], skips={}, lines=0, files=0)
    for r in range(repo_count):
        repo = root / ("repo%03d" % r)
        (repo / "src").mkdir(parents=True)
        corpus.repos.append(repo)
        for f in range(files_per_repo):
            i = r * files_per_repo + f
            seed = seeds[i % len(seeds)]
            mutation = MUTATIONS[i % len(MUTATIONS)]
            before = rng.randint(1, statements - 1)
            head = scaled_file(rng, before, nest_every).splitlines()
            tail = scaled_file(rng, statements - before, nest_every).splitlines()[1:]
            body, offset = mutate(seed, mutation, rng)
            text = "\n".join(head + body + tail) + "\n"
            rel = "src/file%d.php" % f
            (repo / rel).write_text(text, encoding="utf-8")
            corpus.plants.append(Plant(seed.name, "%s/%s" % (repo.name, rel),
                                       len(head) + 1 + offset,
                                       MUTATION_PRESERVES[mutation]))
            corpus.lines += text.count("\n")
            corpus.files += 1
    return corpus


def _add_skip_files(corpus: Corpus, count: int) -> None:
    """Put binary, unparsable and oversized files on the miner's skip path."""
    oversized = MinerOptions().max_file_bytes + 1
    for i in range(count):
        for kind, reason, data in (
                ("blob", SKIP_BINARY, b"<?php\n\x00\x01\x02\n"),
                ("broken", SKIP_PARSE_ERROR, b"<?php\nif ($x) {\n  echo 'open';\n"),
                ("huge", SKIP_TOO_LARGE, b"<?php\n" + b"// pad\n" * (oversized // 7))):
            repo = corpus.repos[len(corpus.skips) % len(corpus.repos)]
            rel = "src/%s%d.php" % (kind, i)
            (repo / rel).write_bytes(data)
            corpus.skips["%s/%s" % (repo.name, rel)] = reason


def build(workload: str, seed: int, root: Path, scale: float = 1.0) -> Corpus:
    """Write the workload's corpus under root; same seed, same bytes."""
    rng = random.Random(seed)
    corpus_root = root / "corpus"
    if workload == "queries-heavy":
        # Three statements each: with 2 to 4, the short seeds' wildcard
        # queries match so many candidates that 20 distinct seeds cannot
        # always be drawn.
        seeds = distinct_snippets(rng, 20, n_statements=3, symbol_policy="wildcard")
        return _planted_repos(corpus_root, rng, seeds, repo_count=4,
                              files_per_repo=_n(6, scale), statements=100,
                              nest_every=12)
    if workload == "parse-heavy":
        seeds = distinct_snippets(rng, 2, n_statements=3, symbol_policy="wildcard")
        return _planted_repos(corpus_root, rng, seeds, repo_count=4,
                              files_per_repo=_n(2, scale),
                              statements=_n(1250, scale, least=20), nest_every=4)
    if workload == "many-repos":
        seeds = distinct_snippets(rng, 8, n_statements=3, symbol_policy="wildcard")
        ledger = generate_test_corpus(seeds, corpus_root,
                                      repo_count=_n(300, scale, least=4),
                                      rng_seed=seed)
        repos = sorted(p for p in corpus_root.iterdir() if p.is_dir())
        corpus = Corpus(repos=repos, seeds=seeds, skips={}, lines=0, files=0,
                        plants=[Plant(p.seed, p.file, p.line_start, p.expect_match)
                                for p in ledger.plants])
        for path in sorted(corpus_root.glob("*/src/*.php")):
            corpus.lines += path.read_bytes().count(b"\n")
            corpus.files += 1
        _add_skip_files(corpus, 2)
        return corpus
    raise ValueError("unknown workload %r" % workload)
