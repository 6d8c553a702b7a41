#!/usr/bin/env python3
# Parse a PHP snippet into a normalized AST, walk it, and round-trip it
# through the newline-delimited interchange format.

from analogue import export_ast, import_ast, parse_source
from analogue.engine import anchor_index

SOURCE = """<?php
$title = $_POST['title'];
$result = mysql_query("SELECT * FROM books WHERE title LIKE '%$title%'");
echo "<p>" . $row['title'] . "</p>";
?>
"""

unit = parse_source(SOURCE, path="snippet.php")
print("parsed %d nodes, max depth %d\n" % (unit.node_count,
                                            anchor_index(unit).max_depth))

# The tree keeps identifiers on Var/Name nodes and raw content on Literals.
# Note how the interpolated query string becomes an Encapsed node whose
# children include the $title variable: that is what later carries data flow.


def show(node_id, indent=0):
    n = unit.nodes[node_id]
    label = n.kind
    if n.symbol:
        label += " %s" % n.symbol
    if n.value is not None:
        label += " %r" % (n.value[:30] + ("..." if len(n.value) > 30 else ""))
    print("  " * indent + "%-40s lines %d-%d" % (label, n.line_start, n.line_end))
    for c in n.children:
        show(c, indent + 1)


show(unit.root)

# Any full-language frontend can feed the same pipeline through the
# interchange format: one JSON record per node, header first.
stream = export_ast(unit)
print("\nfirst interchange records:")
for line in stream.splitlines()[:4]:
    print(" ", line)

# Units are dataclasses, and the round trip keeps node ids, so == compares
# every node: kind, symbol, value, children and line span.
again = import_ast(stream)
print("\nround-trip identical:", unit == again)
