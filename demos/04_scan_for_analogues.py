#!/usr/bin/env python3
# Scan lookalike files with one query and watch what survives: renames and
# changed literals do, broken data flow and inserted statements do not.

from analogue import (ScanOptions, compile_template, derive_template,
                      parse_source, scan_unit, slice_statements)
from analogue.oracle import brute_force_scan

SEED = """<?php
$term = $_POST['q'];
$res = mysql_query("SELECT * FROM t WHERE c = '$term'");
?>
"""

TARGETS = {
    "renamed variables": """<?php
$needle = $_GET['search'];
$hits = mysql_query("SELECT * FROM posts WHERE body LIKE '$needle'");
""",
    "changed literals": """<?php
$term = $_COOKIE['zzz'];
$r = mysql_query("UPDATE accounts SET note = '$term' WHERE 1");
""",
    "no data flow": """<?php
$term = $_POST['q'];
$res = mysql_query("SELECT * FROM t WHERE c = '$other'");
""",
    "statement inserted in between": """<?php
$term = $_POST['q'];
error_log('lookup');
$res = mysql_query("SELECT * FROM t WHERE c = '$term'");
""",
    "different callee (fopen)": """<?php
$name = $flight['file'];
$fh = fopen("data/$name", "r");
""",
}

seed_unit = parse_source(SEED, path="seed.php")
stmts = slice_statements(seed_unit, 2, 3)

for policy in ("preserve", "wildcard"):
    program = compile_template(derive_template(seed_unit, stmts, mode="strict",
                                               symbol_policy=policy))
    print("symbol policy = %s" % policy)
    for label, text in TARGETS.items():
        unit = parse_source(text, path=label)
        matches, counter = scan_unit(program, unit, ScanOptions())
        verdict = "MATCH at %d-%d" % (matches[0].line_start, matches[0].line_end) \
            if matches else "no match"
        print("  %-32s %-16s (%d comparisons)"
              % (label, verdict, counter.node_comparisons))
        # the independent brute-force matcher must agree
        t = derive_template(seed_unit, stmts, mode="strict", symbol_policy=policy)
        assert [m.key() for m in brute_force_scan(t, unit)] == \
            [m.key() for m in matches]
    print()
