"""The mining benchmark: set up queries, mine a seeded corpus, check, report.

One run measures one workload the way `analogue mine` works: the seed
queries are derived, compiled and serialized into a query directory, which is
loaded with `load_query_dir`; then `mine_repositories` and
`write_mining_outputs` run over the corpus, alternately at jobs 1 and jobs 2,
until the time budget is spent.  End-to-end figures are means over those
passes with tracing off.  With --trace 1 the run then repeats the set-up and
mining at jobs 1 under the tracer and reports per-layer figures instead.

The speed of a shared host drifts by tens of percent over minutes, and that
drift dominates the run-to-run spread of raw timings.  So a fixed loop that
uses no analogue code is timed before every untraced mining pass, always
right after the previous pass, and so is one query set-up.  The end-to-end
times are scaled by the run's slowdown (mean loop time / reference loop
time), so they read as if measured on the reference machine.  Raw figures
are printed and recorded next to them.

The host switches between a fast and a slow state every few seconds, so pass
times and loop times are bimodal.  The median of such samples jumps between
the two modes as the share of slow samples crosses one half; the mean follows
that share smoothly, in the passes and in the loop alike, and the scaling
cancels it.  Hence means, not medians.

Every pass is checked: matches.jsonl must equal the plant ledger (recall
and precision 1.0), be byte-identical across passes and jobs values, and the
skip-path files must be recorded with their reasons.  A failed check makes
the run exit 1.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import analogue
from analogue import cli, compiler, engine, miner, php_parser, report, template
from analogue.astree import STMT_LIST, SourceUnit
from analogue.corpusgen import render_file, render_snippet

import corpora
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 31
# single calibration samples spread by 20 to 60% (interquartile range over
# median), so several are taken before every pass
CALIBRATIONS_PER_PASS = 4
MIN_ROUNDS = 3
# calibrate()'s mean time between mining passes on the reference machine
# (2 cores, Python 3.11)
REFERENCE_CALIBRATION_S = 0.033


def calibrate() -> float:
    """Time a fixed, allocation-light pure-Python loop that uses no analogue
    code: the current speed of the machine, not of the program."""
    gc.collect()
    t0 = perf_counter()
    counts: dict[str, int] = {}
    pairs = []
    for i in range(60_000):
        k = "k%d" % (i % 500)
        counts[k] = counts.get(k, 0) + i
        pairs.append((k, i))
        if len(pairs) == 1000:    # bounded, so peak_rss_mb stays the program's
            pairs.clear()
    return perf_counter() - t0


def set_up(seeds, qdir: Path) -> tuple[list, dict[str, str]]:
    """Derive, compile and serialize one query per seed and symbol policy into
    qdir, then load qdir as `analogue mine` does.  Returns the programs and
    the seed name of each query id."""
    qdir.mkdir(parents=True)
    seed_of = {}
    for s in seeds:
        unit = php_parser.parse_source(render_file(render_snippet(s)), path=s.name)
        stmts = unit.children_of(unit.nodes[unit.root])
        for policy in corpora.SYMBOL_POLICIES:
            p = compiler.compile_template(
                template.derive_template(unit, stmts, symbol_policy=policy))
            (qdir / ("%s.prog.json" % p.query_id)).write_text(
                compiler.serialize_program(p), encoding="utf-8")
            seed_of[p.query_id] = s.name
    return cli.load_query_dir(qdir), seed_of


class Gate:
    """Correctness checks on the outputs of every mining pass."""

    def __init__(self, expected: set, skips: dict[str, str]) -> None:
        self.expected = expected
        self.skips = skips
        self.digest: str | None = None
        self.recall = self.precision = 0.0
        self.errors: list[str] = []

    def check(self, out_dir: Path, label: str) -> None:
        data = (out_dir / "matches.jsonl").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
            self._check_ledger(data, label)
            self._check_skips(out_dir / "skipped.jsonl", label)
        elif digest != self.digest:
            self.errors.append("%s: matches.jsonl differs from the first pass" % label)

    def _check_ledger(self, data: bytes, label: str) -> None:
        found = [(r["query"], r["file"], r["lines"][0])
                 for r in map(json.loads, data.decode("utf-8").splitlines())]
        hits = len(set(found) & self.expected)
        self.recall = hits / len(self.expected) if self.expected else 1.0
        self.precision = hits / len(found) if found else 1.0
        if self.recall != 1.0 or self.precision != 1.0:
            self.errors.append("%s: ledger recall %.4f, precision %.4f (want 1.0)"
                               % (label, self.recall, self.precision))

    def _check_skips(self, path: Path, label: str) -> None:
        got = {r["file"]: r["reason"] for r in
               map(json.loads, path.read_text(encoding="utf-8").splitlines())}
        if got != self.skips:
            self.errors.append("%s: skipped.jsonl %s, want %s" % (label, got, self.skips))


class Miner:
    """Mining passes over one corpus, with their failures and checks."""

    def __init__(self, repos: list[Path], programs: list, gate: Gate, out: Path):
        self.repos = [str(r) for r in repos]
        self.programs = programs
        self.gate = gate
        self.out = out
        self.attempted = self.failed = 0

    def run(self, jobs: int, label: str) -> float | None:
        """One timed pass from repo list to written outputs; None if mining raised."""
        out_dir = self.out / ("j%d" % jobs)
        gc.collect()
        t0 = perf_counter()
        try:
            results = miner.mine_repositories(self.repos, self.programs, jobs=jobs)
        except Exception as e:  # a raising run counts every repository as failed
            self.attempted += len(self.repos)
            self.failed += len(self.repos)
            self.gate.errors.append("%s: mine_repositories raised %r" % (label, e))
            return None
        miner.write_mining_outputs(results, out_dir)
        wall = perf_counter() - t0
        self.attempted += len(results)
        self.failed += sum(1 for r in results if r.error)
        self.gate.check(out_dir, label)
        return wall

    def rounds(self, seconds: float, walls: dict[int, list[float]],
               before_pass) -> None:
        """Alternate jobs 1 and jobs 2 passes, swapping which goes first,
        until `seconds` have passed and at least MIN_ROUNDS rounds ran.
        before_pass() runs before each pass."""
        deadline = perf_counter() + seconds
        r = 0
        while r < MIN_ROUNDS or perf_counter() < deadline:
            for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
                before_pass()
                wall = self.run(jobs, "round %d jobs %d" % (r, jobs))
                if wall is not None:
                    walls[jobs].append(wall)
            r += 1


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def _per_pass_median(passes: list[dict]) -> dict:
    return {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}


class LayerProbe:
    """Spans and counts for the per-layer metrics of traced mining passes."""

    def __init__(self, tracer: Tracer, policy_of: dict[str, str]) -> None:
        self.tr = tracer
        self.policy_of = policy_of
        self.c: dict[str, int] = {}
        self.anchors_of: dict[int, list[int]] = {}

        def count(key, n=1):
            self.c[key] = self.c.get(key, 0) + n

        def parsed(args, unit):
            count("nodes", unit.node_count)
            count("lines", args[0].count("\n"))
            self.anchors_of[id(unit)] = [len(n.children) for n in unit.nodes.values()
                                         if n.kind == STMT_LIST]

        def scanned(args, result):
            matches, counter = result
            k = args[0].statement_count
            count("anchors", counter.candidates_tried)
            count("comparisons", counter.node_comparisons)
            count("matches", len(matches))
            count("possible", sum(n - k + 1 for n in self.anchors_of[id(args[1])] if n >= k))

        def first_step(orig):
            def match_at(p, unit, stmt_list_id, start_index, opts=None, counter=None):
                before = counter.node_comparisons if counter else 0
                m = orig(p, unit, stmt_list_id, start_index, opts, counter)
                if m is None and counter and counter.node_comparisons - before == 1:
                    count("first_reject")
                return m
            return match_at

        tr = tracer
        tr.wrap(php_parser, "tokenize", "php_parser.tokenize",
                on_result=lambda a, toks: count("tokens", len(toks)))
        tr.wrap(miner, "parse_source", "php_parser.parse_source", on_result=parsed,
                on_error=lambda a, e: count("files_failed"))
        tr.wrap(SourceUnit, "stmt_lists", "astree.stmt_lists")
        tr.wrap(miner, "scan_unit", "engine.scan_unit",
                tag=lambda a: a[0].query_id, on_result=scanned)
        tr.hook(engine, "match_at", first_step)
        tr.wrap(miner, "attach_excerpt", "engine.attach_excerpt")
        tr.wrap(miner, "discover_files", "miner.discover_files")
        tr.wrap(miner, "scan_repository", "miner.scan_repository")
        tr.wrap(miner, "write_mining_outputs", "miner.write_mining_outputs")
        tr.wrap(template, "derive_template", "template.derive_template")
        tr.wrap(compiler, "compile_template", "compiler.compile_template")
        tr.wrap(cli, "deserialize_program", "compiler.deserialize_program")

    def setup_metrics(self, seeds, qdir: Path) -> dict:
        m = self.tr.mark()
        programs, _ = set_up(seeds, qdir)
        return {
            "template.derive_s": self.tr.total("template.derive_template", m),
            "compiler.compile_s": self.tr.total("compiler.compile_template", m),
            "compiler.load_s": self.tr.total("compiler.deserialize_program", m),
            "compiler.steps": sum(len(p.steps) for p in programs),
        }

    def mining_metrics(self, mine: Miner) -> tuple[float, dict]:
        self.c.clear()
        self.anchors_of.clear()
        m = self.tr.mark()
        wall = mine.run(1, "traced jobs 1")
        if wall is None:
            raise RuntimeError("traced mining pass raised")
        tr, c = self.tr, self.c
        tokenize_s = tr.total("php_parser.tokenize", m)
        parse_total = tr.total("php_parser.parse_source", m)
        scan_s = tr.total("engine.scan_unit", m)
        per_query = tr.by_tag("engine.scan_unit", m)
        by_policy = {p: 0.0 for p in corpora.SYMBOL_POLICIES}
        for q, t in per_query.items():
            by_policy[self.policy_of[q]] += t
        repo_s = tr.durations("miner.scan_repository", m)
        anchors = c.get("anchors", 0)
        out_dir = mine.out / "j1"
        out = {
            "php_parser.tokenize_s": tokenize_s,
            "php_parser.tokens_per_s": c.get("tokens", 0) / tokenize_s,
            "php_parser.parse_s": tr.self_time("php_parser.parse_source", m),
            "php_parser.nodes_per_s": c.get("nodes", 0) / parse_total,
            "php_parser.lines_per_s": c.get("lines", 0) / parse_total,
            "php_parser.files_failed": c.get("files_failed", 0),
            "astree.stmt_lists_s": tr.total("astree.stmt_lists", m),
            "astree.stmt_lists_calls": len(tr.durations("astree.stmt_lists", m)),
            "engine.scan_s": scan_s,
            "engine.scan_s.preserve": by_policy["preserve"],
            "engine.scan_s.wildcard": by_policy["wildcard"],
            "engine.query_scan_s.p50": statistics.median(per_query.values()),
            "engine.query_scan_s.max": max(per_query.values()),
            "engine.anchors_tried": anchors,
            "engine.anchors_pruned": c.get("possible", 0) - anchors,
            "engine.node_comparisons": c.get("comparisons", 0),
            "engine.anchors_per_s": anchors / scan_s,
            "engine.match_ratio": c.get("matches", 0) / anchors,
            "engine.first_step_reject_ratio": c.get("first_reject", 0) / anchors,
            "engine.excerpt_s": tr.total("engine.attach_excerpt", m),
            "miner.discover_s": tr.total("miner.discover_files", m),
            "miner.self_s": tr.self_time("miner.scan_repository", m),
            "miner.write_s": tr.total("miner.write_mining_outputs", m),
            "miner.bytes_written": sum(p.stat().st_size for p in out_dir.glob("*.jsonl")),
            "miner.repo_s.p50": statistics.median(repo_s),
            "miner.repo_s.p99": _quantile(repo_s, 0.99),
        }
        t0 = perf_counter()
        records, _ = report.load_match_records(
            (out_dir / "matches.jsonl").read_text(encoding="utf-8"))
        report.render_summary(report.rows_from_records(records))
        out["report.render_s"] = perf_counter() - t0
        return wall, out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _record_digest(out: Path, key: str, digest: str, errors: list[str]) -> None:
    """Keep one matches.jsonl digest per workload and seed; a later run of the
    same seed in this checkout must reproduce it."""
    path = out / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != digest:
        errors.append("matches.jsonl digest %s differs from %s recorded in %s "
                      "for %s" % (digest, known[key], path, key))
    known.setdefault(key, digest)
    # replace, not rewrite, so that a concurrent run never reads half a file
    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> tuple[dict, dict]:
    """Run one workload in the checkout at root; returns the result line and
    the record written to root/.bench_out."""
    spec = load_spec(root)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed),
                                 dir=root / ".bench_work"))
    try:
        corpus = corpora.build(workload, seed, work, scale)

        t0 = perf_counter()
        programs, seed_of = set_up(corpus.seeds, work / "queries")
        setup_walls, calibration = [perf_counter() - t0], []

        def before_pass():
            # set-up samples are spread over the run, like the calibration
            # samples, so that the slowdown applies to them too
            calibration.extend(calibrate() for _ in range(CALIBRATIONS_PER_PASS))
            t0 = perf_counter()
            set_up(corpus.seeds, work / ("queries%d" % len(setup_walls)))
            setup_walls.append(perf_counter() - t0)

        queries_of: dict[str, list[str]] = {}
        for q, s in seed_of.items():
            queries_of.setdefault(s, []).append(q)
        gate = Gate(corpus.expected(queries_of), corpus.skips)
        if len(programs) != 2 * len(corpus.seeds):
            gate.errors.append("loaded %d programs for %d seeds"
                               % (len(programs), len(corpus.seeds)))
        mine = Miner(corpus.repos, programs, gate, work / "out")
        for jobs in (1, 2):
            mine.run(jobs, "warm-up jobs %d" % jobs)

        walls: dict[int, list[float]] = {1: [], 2: []}
        metrics: dict = {}
        traced_walls: list[float] = []
        if trace:
            mine.rounds(seconds / 2, walls, before_pass)
            tracer = Tracer()
            policy_of = {p.query_id: p.symbol_policy for p in programs}
            probe = LayerProbe(tracer, policy_of)
            try:
                setups = [probe.setup_metrics(corpus.seeds, work / ("traced%d" % i))
                          for i in range(SETUP_REPEATS)]
                passes = []
                deadline = perf_counter() + seconds / 2
                while not passes or perf_counter() < deadline:
                    gc.collect()
                    wall, layer = probe.mining_metrics(mine)
                    traced_walls.append(wall)
                    passes.append(layer)
            finally:
                tracer.close()
            tracer.write(out / ("%s-seed%d.spans.jsonl.gz" % (workload, seed)))
            metrics.update(_per_pass_median(setups))
            metrics.update(_per_pass_median(passes))
            if walls[1]:
                metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                               - statistics.median(walls[1]))
        else:
            mine.rounds(seconds, walls, before_pass)
        # > 1 when this machine runs slower than the reference machine
        slowdown = statistics.fmean(calibration) / REFERENCE_CALIBRATION_S
        raw = {"setup_s": statistics.fmean(setup_walls)}
        if walls[1] and walls[2]:
            j1, j2 = statistics.fmean(walls[1]), statistics.fmean(walls[2])
            raw["mine_lines_per_s"] = corpus.lines / j1
            raw["mine_j2_lines_per_s"] = corpus.lines / j2
            metrics["mine_lines_per_s"] = raw["mine_lines_per_s"] * slowdown
            metrics["mine_j2_lines_per_s"] = raw["mine_j2_lines_per_s"] * slowdown
            metrics["miner.parallel_efficiency"] = j1 / (2 * j2)
        else:
            gate.errors.append("no mining pass completed at jobs 1 and jobs 2")
        metrics["setup_s"] = raw["setup_s"] / slowdown
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = peak_kb / 1024

        if gate.digest is not None:
            _record_digest(out, "%s/seed%d/scale%g" % (workload, seed, scale),
                           gate.digest, gate.errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not gate.errors
    selected = {}
    for m in wanted:
        if correct and m["name"] not in metrics:
            raise RuntimeError("metric %s was not measured" % m["name"])
        if m["name"] in metrics:
            selected[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    result = {"correct": correct, "attempted": mine.attempted,
              "failed": mine.failed, "metrics": selected}
    cpus = os.cpu_count()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale,
        "environment": {
            "nproc": cpus,
            "note": "measured on a machine with %s cores; no run uses more "
                    "than 2 workers" % cpus,
            "python": platform.python_version(),
            "analogue_version": analogue.__version__,
            "git_commit": git_commit(root),
        },
        "sizes": {"lines": corpus.lines, "files": corpus.files,
                  "skip_files": len(corpus.skips), "repos": len(corpus.repos),
                  "queries": len(programs),
                  "expected_matches": len(gate.expected)},
        "checks": {"recall": gate.recall, "precision": gate.precision,
                   "matches_sha256": gate.digest, "errors": gate.errors},
        "failed_repos_ratio": mine.failed / max(mine.attempted, 1),
        "calibration": {"mean_s": statistics.fmean(calibration),
                        "reference_s": REFERENCE_CALIBRATION_S,
                        "slowdown": slowdown},
        "raw": raw,
        "samples": {"jobs1_wall_s": walls[1], "jobs2_wall_s": walls[2],
                    "traced_jobs1_wall_s": traced_walls,
                    "setup_s": setup_walls, "calibration_s": calibration},
        "metrics": metrics,
        "result": result,
    }
    (out / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, record


def _print_report(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    targets = json.loads((Path(__file__).parent / "targets.json").read_text())["per_layer"]
    env, sizes, checks = record["environment"], record["sizes"], record["checks"]
    print("workload %s  seed %d  trace %d" % (record["workload"], record["seed"],
                                               record["trace"]))
    print("environment: nproc %s (%s), python %s, analogue %s, commit %s"
          % (env["nproc"], env["note"], env["python"], env["analogue_version"],
             env["git_commit"]))
    print("sizes: %(lines)d lines, %(files)d files (+%(skip_files)d on the skip "
          "path), %(repos)d repos, %(queries)d queries, %(expected_matches)d "
          "expected matches" % sizes)
    for jobs in (1, 2):
        w = record["samples"]["jobs%d_wall_s" % jobs]
        if w:
            print("jobs %d wall: mean %.4f s, q1 %.4f s, q3 %.4f s, n=%d"
                  % (jobs, statistics.fmean(w), _quantile(w, 0.25),
                     _quantile(w, 0.75), len(w)))
    cal = record["calibration"]
    print("machine: calibration loop mean %.4f s, reference %.4f s, slowdown %.3f"
          % (cal["mean_s"], cal["reference_s"], cal["slowdown"]))
    for name, value in record["raw"].items():
        print("%-34s %.6g %s before scaling by the slowdown" % (name, value, units[name]))
    for name in record["result"]["metrics"]:
        target = "  (moves %s)" % targets[name] if name in targets else ""
        print("%-34s %.6g %s%s" % (name, record["metrics"][name], units[name], target))
    print("%-34s %.6g ratio (%d of %d repository scans)"
          % ("failed_repos_ratio", record["failed_repos_ratio"],
             record["result"]["failed"], record["result"]["attempted"]))
    print("ledger recall %.4f, precision %.4f; matches.jsonl sha256 %s"
          % (checks["recall"], checks["precision"], checks["matches_sha256"]))
    for e in checks["errors"]:
        print("CHECK FAILED: %s" % e)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpora.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor; below 1 only for testing the harness")
    args = ap.parse_args(argv)
    result, record = run(ROOT, args.workload, args.seed, args.seconds,
                         bool(args.trace), args.scale)
    _print_report(record, load_spec(ROOT))
    print(json.dumps(result))
    sys.stdout.flush()
    for e in record["checks"]["errors"]:
        print("CHECK FAILED: %s" % e, file=sys.stderr)
    return 0 if result["correct"] else 1
