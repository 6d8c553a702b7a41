#!/usr/bin/env python3
# Turn a vulnerable slice into a wildcard template: variables become numbered
# classes, literal values disappear, and every position of one class must bind
# the same concrete name in a match. The classes are the template's data flow.

from analogue import (derive_template, parse_source, serialize_template,
                      slice_statements)
from analogue.template import ApiSymbol, CallWildcard, LiteralWildcard, VarWildcard
from analogue.testing import template_stats

TUTORIAL = """<?php
$con = mysql_connect("localhost", "peter", "abc123");
mysql_select_db("webapp", $con);
$searchterm = $_POST['searchterm'];
$result = mysql_query("SELECT * FROM persons WHERE name LIKE '%$searchterm%'");
echo $result;
?>
"""

unit = parse_source(TUTORIAL, path="tutorial.php")

# A query from a slice abstracts only the vulnerable lines (here: the two
# where POST data reaches the query); `analogue derive --full` would abstract
# the whole snippet.
stmts = slice_statements(unit, 4, 5)
template = derive_template(unit, stmts, symbol_policy="preserve")

print("statements:", len(template.statements))
print("stats:", template_stats(template))


def role_name(n):
    r = n.leaf_role
    if isinstance(r, VarWildcard):
        return "var class %d" % r.class_id
    if isinstance(r, LiteralWildcard):
        return "any literal"
    if isinstance(r, ApiSymbol):
        return "api %r" % r.name
    if isinstance(r, CallWildcard):
        return "any callee"
    return ""


print("\nwildcard leaves:")
for n in template.iter_preorder():
    if n.leaf_role is not None:
        print("  node %-3d %-10s %s" % (n.id, n.kind, role_name(n)))

positions = {}
for n in template.iter_preorder():
    if isinstance(n.leaf_role, VarWildcard):
        positions.setdefault(n.leaf_role.class_id, []).append(n.id)
print("\ndata flow: each class's positions bind one concrete name")
for class_id, ids in sorted(positions.items()):
    print("  var class %d at nodes %s" % (class_id, ids))

# The "wildcard" symbol policy also erases the callee name. That widens the
# search: the same shape around fopen() instead of mysql_query() is how a
# SQL-injection query can surface a path-traversal analogue.
wild = derive_template(unit, stmts, symbol_policy="wildcard")
print("\npreserve policy keeps %d api name(s); wildcard keeps %d"
      % (template_stats(template).api_symbols, template_stats(wild).api_symbols))

print("\nserialized header:", serialize_template(template).splitlines()[0])
