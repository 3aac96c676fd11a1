"""Fuzz the input parsers: the module spec grammar, the command line and
the display documents.

parse_module_spec on any text returns a spec or raises ValueError, and
cli.main on slopes, check and graph argv built from small inputs (half
rank at most 8, p in {2, 3, 5}, d at most 2, precision at most 64) exits
with a code from 0 to 3, writes at most one line to stderr and raises
nothing.  display_from_json on small JSON values, and on displays' own
documents with a few fields replaced or removed, returns a display or
raises KeyError, TypeError or ValueError within the deadline, and refuses
a basis above the rank cap before it parses any scalar.
"""

import contextlib
import io
import json
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gustrata import (cli, display_from_json, fcrystal, make_context,
                      module_M, parse_module_spec)
from gustrata.displayzoo import ModuleSpec

# pieces of the spec grammar, so that joined at random they reach past the
# first check more often than arbitrary text does
TOKENS = ["N", "M(", "ss(", "def(", "(", ")", ";", ",", "=", "+", "^", "s",
          " ", "-", "0", "1", "2", "3", "4", "6", "8", "10", "99999999999"]

SPEC_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(TOKENS), max_size=14).map("".join))


@st.composite
def small_terms(draw):
    """One term of half rank at most 8, with its half rank; the arguments
    and parameter assignments may be invalid."""
    kind = draw(st.sampled_from(["N", "M", "ss", "def"]))
    if kind == "N":
        return "N", 1
    m = draw(st.integers(0, 8))
    if kind != "def":
        return f"{kind}({m})", max(m, 1)
    keys = draw(st.lists(st.integers(0, m + 1), max_size=3))
    vals = draw(st.lists(st.integers(-1, 30), min_size=len(keys),
                         max_size=len(keys)))
    rest = ", ".join(f"s{k}={v}" for k, v in zip(keys, vals))
    return f"def({m}; {rest})" if rest else f"def({m})", max(m, 1)


@st.composite
def small_specs(draw):
    """A sum of terms, some raised to a power, of half rank at most 8."""
    parts, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        term, rank = draw(small_terms())
        power = draw(st.integers(1, 3))
        if total + rank * power > 8:
            break
        total += rank * power
        parts.append(term if power == 1 else f"{term}^{power}")
    return "+".join(parts) or "N"


@st.composite
def small_argv(draw):
    command = draw(st.sampled_from(["slopes", "check", "graph"]))
    argv = [command, "--module", draw(small_specs()),
            "--p", str(draw(st.sampled_from([2, 3, 5]))),
            "--d", str(draw(st.integers(0, 2)))]
    precision = draw(st.none() | st.integers(0, 64))
    if precision is not None:
        argv += ["--precision", str(precision)]
    if command == "slopes":
        argv += draw(st.sampled_from([[], ["--format", "tsv"]]))
    elif command == "graph":
        argv += draw(st.sampled_from([[], ["--dot"], ["--format", "dot"]]))
    return argv


@settings(max_examples=400, deadline=timedelta(seconds=2))
@given(SPEC_TEXT)
def test_module_spec_parses_or_raises_value_error(text):
    try:
        spec = parse_module_spec(text)
    except ValueError:
        return
    assert isinstance(spec, ModuleSpec)


@settings(max_examples=60, deadline=timedelta(seconds=20))
@given(small_argv())
def test_cli_exits_with_one_line_at_most(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    assert code in (0, 1, 2, 3), argv
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


# small JSON values, with the keys and label texts of a display document
# among the others so that they reach past the first lookups; integers
# stay small but for a few that the capacity and prime checks refuse
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
    st.sampled_from([10 ** 30, 2 ** 64, -(10 ** 12),
                     3317044064679887385961981]),
    st.text(max_size=4),
    st.sampled_from(["u1", "v2", "u", "", "3", "-1", "1e5", "u\u0663",
                     "v\u00b2"]))
JSON_KEYS = st.sampled_from(["context", "basis", "frobenius", "pairing",
                             "grading", "p", "d", "N", "modulus", "coords",
                             "u", "v"]) | st.text(max_size=3)
JSON_VALUE = st.recursive(
    JSON_LEAF, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4), max_leaves=12)
DOCUMENTS = [json.loads(json.dumps(display.to_json())) for display in (
    module_M(make_context(3, 2, 4), 2), module_M(make_context(2, 1, 3), 3),
    parse_module_spec("def(4; s0=1, s2=3)").build(make_context(5, 1, 6)))]


@st.composite
def mutated_documents(draw):
    """A display's document with one to three fields, at any depth,
    replaced by a small JSON value or removed."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.booleans()))):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        elif parent is not None:
            parent[key] = draw(JSON_VALUE)
    return doc


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(st.one_of(JSON_VALUE, mutated_documents()))
def test_display_from_json_raises_only_documented_errors(doc):
    try:
        display = display_from_json(doc)
    except (KeyError, TypeError, ValueError):
        return
    assert isinstance(display, fcrystal.DieudonneDisplay)


def test_unmutated_documents_round_trip():
    for doc in DOCUMENTS:
        assert display_from_json(doc).to_json() == doc


def _refuse(*args):
    raise AssertionError("parsed before the rank cap was checked")


@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(st.integers(5, 12), st.one_of(JSON_VALUE, mutated_documents()))
def test_rank_cap_holds_before_any_scalar(rank, doc):
    """With a cap of half rank 2, a document of rank 5 or more is refused
    for its rank whatever else it holds: no context, label or scalar is
    parsed."""
    if not isinstance(doc, dict):
        doc = {"value": doc}
    doc["basis"] = [f"u{i}" for i in range(rank)]
    with mock.patch.object(fcrystal, "MAX_SPEC_HALF_RANK", 2), \
            mock.patch.object(fcrystal, "scalar_from_json", _refuse), \
            mock.patch.object(fcrystal, "context_from_json", _refuse), \
            mock.patch.object(fcrystal.BasisLabel, "parse", _refuse):
        with pytest.raises(ValueError, match="more than 4 basis labels"):
            display_from_json(doc)


def _with(path, value):
    """DOCUMENTS[0] with the field at path set to value."""
    doc = json.loads(json.dumps(DOCUMENTS[0]))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


FOUND_INPUTS = {
    "empty label": (["basis", 0], "", ValueError),
    "dict label": (["basis", 0], {"0": "u"}, TypeError),
    "list label": (["basis", 0], ["u", "1"], TypeError),
    "empty modulus": (["context", "modulus"], [], ValueError),
    "str p": (["context", "p"], "3", TypeError),
    "composite p": (["context", "p"], 4, ValueError),
    "float N": (["context", "N"], 0.5, TypeError),
    "bool d": (["context", "d"], True, TypeError),
    "infinite coordinate": (["frobenius", 0, 0, "coords"],
                            [float("inf"), 0], TypeError),
    "str coords": (["frobenius", 0, 0, "coords"], "12", TypeError),
}


@pytest.mark.parametrize("name", sorted(FOUND_INPUTS))
def test_inputs_that_raised_other_errors(name):
    """Documents on which the parse once raised IndexError,
    AttributeError or OverflowError, or read a float or a string of
    digits as coordinates."""
    path, value, error = FOUND_INPUTS[name]
    with pytest.raises(error):
        display_from_json(_with(path, value))
