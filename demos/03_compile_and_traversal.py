#!/usr/bin/env python3
# Compile a template into the flat matcher program the scan engine executes,
# and export the equivalent graph-traversal script for inspection.

from analogue import (compile_template, derive_template, export_traversal_script,
                      parse_source, slice_statements)

SEED = """<?php
$a = $_POST['x'];
mysql_query("DELETE FROM t WHERE id = '$a'");
?>
"""

unit = parse_source(SEED, path="seed.php")
t = derive_template(unit, slice_statements(unit, 2, 3))
p = compile_template(t)

print("query id:", p.query_id)
print("statements: %d, var classes: %d, template depth: %d"
      % (p.statement_count, p.var_class_count, p.template_depth))

print("\nstep program (%d steps):" % len(p.steps))
for s in p.steps:
    detail = s.kind or s.name or s.class_id if s.op != "descend" else s.child_index
    print("  %-8s %s" % (s.op, "" if detail is None else detail))

# One line per step: kind filters chain down each subtree, a sideEffect
# remembers the first occurrence of each variable, and later occurrences
# filter on the remembered name.
print("\ntraversal script:")
print(export_traversal_script(p))
