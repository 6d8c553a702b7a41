"""jsonl.line writes each record as json.dumps does, and jsonl.read reads it
back; jsonl.decode refuses what is not JSON."""
from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from analogue import jsonl

# Characters that a line writer or reader could get wrong: line breaks that
# str.splitlines honours (U+2028, U+2029, U+0085, \r), quotes and escapes,
# controls, lone surrogates of both halves and characters outside the BMP.
ODD = '"\\/\r\n\t\x00\x1f\x7f\x85\u2028\u2029\udbff\udc80é€😀\U0010ffff'
# JSON reads the escapes of a high surrogate followed by a low one, such as
# "\ud800\udc80", as the one character they encode (U+10080), so no drawn
# string holds that pair.  No string the program handles can: undecodable
# path bytes become lone low surrogates, PHP text is decoded with
# replacement, and decoded JSON never yields the pair.
SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
TEXT = st.text(st.one_of(st.sampled_from(ODD), st.characters()),
               max_size=8).filter(lambda s: not SURROGATE_PAIR.search(s))
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


def test_an_escaped_surrogate_pair_reads_as_json_loads_reads_it():
    line = jsonl.line({"\ud800\udc80": None})
    assert line == '{"\\ud800\\udc80": null}\n'
    [(index, back)] = list(jsonl.read(line))
    assert index == 0
    assert back == json.loads(line) == {"\U00010080": None}


NOT_JSON = {
    "nan": '{"note": NaN}',
    "infinity": "[Infinity]",
    "minus-infinity": '{"a": [-Infinity]}',
    "overflow": '{"size": 1e400}',
    "minus-overflow": "-1e400",
    "too-deep": "[" * 100_000 + "]" * 100_000,
    "truncated": '{"a": ',
    "empty": "",
}


@pytest.mark.parametrize("text", NOT_JSON.values(), ids=NOT_JSON)
def test_decode_refuses_what_is_not_json_and_read_names_its_line(text):
    with pytest.raises(ValueError, match="^not valid JSON: "):
        jsonl.decode(text)
    if text:
        with pytest.raises(jsonl.RecordError, match="^record 1: not valid JSON: "):
            list(jsonl.read("{}\n" + text))


def test_decode_takes_every_finite_number():
    assert jsonl.decode("[1e308, -1e308, 5e-324, -0.0, 0.5, 12]") == \
        [1e308, -1e308, 5e-324, -0.0, 0.5, 12]
