"""The one writer and reader of the JSON-lines formats: ast-v1 and tmpl-v2
files, and the match, stats, skipped and repos records.  line writes a
record as json.dumps(value, sort_keys=True) does; read reads it back.

Field checks are strict, as compiler.validate_program's are: a field takes
a value of exactly its type, so an int field never takes a bool.  An error
names its record by the index of its line, from 0, blank lines included.
"""
from __future__ import annotations

import json
from typing import Any, Callable, Iterator


class RecordError(Exception):
    """A record that cannot be read; `record` is the index of its line, or
    None when no one record is to blame."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record

    def __str__(self) -> str:
        if self.record is None:
            return self.args[0]
        return "record %d: %s" % (self.record, self.args[0])


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps makes one per call


def line(value) -> str:
    """json.dumps(value, sort_keys=True) plus a line break."""
    return _encode(value) + "\n"


def _no_constant(name: str):
    raise ValueError("%s is not a JSON number" % name)


# Python's json module takes NaN, Infinity and -Infinity, which JSON does
# not have; this decoder refuses them like any other text that is not JSON.
_decode = json.JSONDecoder(parse_constant=_no_constant).decode


def read(text: str, error: type[RecordError] = RecordError,
         skip: Callable[[RecordError], Any] | None = None) -> Iterator[tuple[int, Any]]:
    """Yield (index, value) for each non-blank line of text.  A line that is
    not JSON (NaN, Infinity and -Infinity included) raises `error` naming it,
    or, with `skip` given, is passed to skip as that error and left out.
    A line ends at "\n" only: a JSON string may hold U+2028, U+2029 and U+0085
    unescaped, where str.splitlines would break it, and a "\r" before the
    "\n" is JSON whitespace."""
    for i, line in enumerate(text.split("\n")):
        if line.strip():
            try:
                yield i, _decode(line)
            except ValueError as e:
                bad = error("not valid JSON: %s" % e, i)
                if skip is None:
                    raise bad from None
                skip(bad)


def fields(rec, types: dict[str, type | tuple[type, ...]], index: int,
           error: type[RecordError] = RecordError) -> dict:
    """rec, if it is a JSON object whose value under each key of `types` it
    holds has exactly one of that key's types; otherwise `error`."""
    if type(rec) is not dict:
        raise error("not a JSON object", index)
    for key, typ in types.items():
        if key in rec and type(rec[key]) not in (typ if type(typ) is tuple else (typ,)):
            raise error("%r has the wrong type" % key, index)
    return rec


def ints(value, n: int | None = None) -> bool:
    """Whether value is a list of ints (of n of them, if n is given)."""
    return (type(value) is list and all(type(x) is int for x in value)
            and (n is None or len(value) == n))


def node(rec, index: int, seen: dict[int, int],
         error: type[RecordError] = RecordError) -> tuple[int, str, tuple[int, ...]]:
    """The id, kind and children of a node record, the core that ast-v1 and
    tmpl-v2 share: a JSON object with an int id that `seen` does not hold, a
    str kind and a list of int children (none when the key is absent).
    `seen` maps the id of each node read so far to its record index; this
    one is added."""
    fields(rec, {}, index, error)
    node_id, kind, children = rec.get("id"), rec.get("kind"), rec.get("children", [])
    if type(node_id) is not int or type(kind) is not str:
        raise error("a node record needs an int 'id' and a str 'kind'", index)
    if not ints(children):
        raise error("'children' must be a list of ints", index)
    if node_id in seen:
        raise error("duplicate id %d" % node_id, index)
    seen[node_id] = index
    return node_id, kind, tuple(children)
