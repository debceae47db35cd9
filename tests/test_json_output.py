"""`cli.format_json` writes the bytes of `json.dumps(indent=2, sort_keys=True)`."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witness_lab import cli
from witness_lab.cli import format_json

# Arbitrary code points, surrogates included, plus the awkward ones drawn
# often: lone surrogates, control characters, a line separator, non-ASCII.
text = st.text(st.characters(exclude_categories=())
               | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", '"', "\\",
                                  " ", "é", "\U0001f600"]))
numbers = (st.integers()
           | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
           | st.floats()
           | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1e300, 5e-324, 0.1, float("nan"),
                              float("inf"), float("-inf")]))
scalars = st.none() | st.booleans() | numbers | text
documents = st.recursive(
    scalars | st.lists(text, max_size=4),  # lists of strings take the one-join path
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(text, children, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_matches_json_dumps(document):
    assert format_json(document) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("document", [
    {}, [], (), "", 0, -0.0, True, None, {"a": {}, "b": [], "c": [[]]},
    {"rows": [["x", "y"], ["z", "é"]], "n": [1, "a", None]},
    {"b": 1, "a": [{"y": 2.5, "x": False}]},
], ids=repr)
def test_matches_json_dumps_on_edge_cases(document):
    assert format_json(document) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize("document", [
    {1, 2},
    Fraction(1, 3),
    {1: "int key"},
    {("a", "b"): "tuple key"},
    {"nested": ["a", {"deeper": [{"x"}]}]},
    ["a", "b", b"bytes"],
], ids=["set", "fraction", "int-key", "tuple-key", "nested-set", "bytes-after-strings"])
def test_other_types_raise_type_error(document):
    with pytest.raises(TypeError):
        format_json(document)


def test_failed_encoding_writes_nothing(capsys):
    with pytest.raises(TypeError):
        cli._emit(format_json({"a": ["row"] * 1000, "z": {1, 2}}))
    assert capsys.readouterr().out == ""
