"""Fuzz the input parsers: the module spec grammar and the command line.

parse_module_spec on any text returns a spec or raises ValueError, and
cli.main on slopes, check and graph argv built from small inputs (half
rank at most 8, p in {2, 3, 5}, d at most 2, precision at most 64) exits
with a code from 0 to 3, writes at most one line to stderr and raises
nothing.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from gustrata import cli, parse_module_spec
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
