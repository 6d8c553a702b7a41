"""jsonl.line writes each record as json.dumps does, and jsonl.read reads it back."""
from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from analogue import jsonl

# Characters that a line writer or reader could get wrong: line breaks that
# str.splitlines honours (U+2028, U+2029, U+0085, \r), quotes and escapes,
# controls, a lone surrogate and characters outside the BMP.
ODD = '"\\/\r\n\t\x00\x1f\x7f\x85\u2028\u2029\udc80é€😀\U0010ffff'
TEXT = st.text(st.one_of(st.sampled_from(ODD), st.characters()), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(TEXT, inner, max_size=4), max_leaves=20)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({"a b": ["\r", "\x85", '"', "😀"], "": [None, True, 0, -0.0, 1e300]})
def test_line_is_json_dumps_and_read_returns_the_value(value):
    line = jsonl.line(value)
    assert line == json.dumps(value, sort_keys=True) + "\n"
    [(index, back)] = list(jsonl.read(line))
    assert index == 0
    assert back == value
    assert jsonl.line(back) == line    # a bool is not read back as an int
