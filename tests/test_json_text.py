"""strata.json_text, the writer of every JSON report, against
json.dumps(obj, indent=2): the same text for any document, and for every
JSON command's stdout."""

import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from gustrata import cli
from gustrata.strata import json_text

# every character class json escapes: quotes, backslashes, control
# characters, non-ASCII and astral code points (written as surrogate pairs)
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f \U0001f600')), max_size=8)
LEAVES = st.one_of(st.none(), st.booleans(),
                   st.integers(min_value=-2 ** 70, max_value=2 ** 70), TEXT)
DOCS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(DOCS)
def test_same_text_as_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": [{}, []]}, [[[]]],
    # keys that are not strings, as json.dumps writes them
    {1: 0, -2: 1, True: 2, None: 3, 2.5: 4},
    # leaves json_text passes to json.dumps
    [1.5, -0.0, 1e300, float("inf")],
])
def test_edges(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


def test_unsupported_values_raise_as_json_dumps_does():
    for doc in ({(1, 2): 0}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            json_text(doc)


@pytest.mark.parametrize("argv", [
    ["catalog", "--n", "9"],
    ["slopes", "--module", "M(6)+N^6", "--d", "2"],
    ["graph", "--module", "def(8; s0=1, s2=2, s5=1)"],
    ["check", "--module", "def(5; s2=1, s3=2)", "--d", "2"],
    ["check", "--module", "N^6", "--precision", "5"],
    ["verify", "--n", "5", "--p", "3"],
    ["verify", "--n", "5", "--p", "3", "--precision", "2", "--random", "20"],
])
def test_every_json_command(argv):
    out = io.StringIO()
    cli.main(argv, out)
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
