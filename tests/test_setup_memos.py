"""The process memos of a sweep's set-up, cold and warm.

A verify call reads three pieces of set-up from bounded process memos,
keyed by parameters alone: the modulus (wittring._first_irreducible), the
cycle plan of the slope graph stage (strata._cycle_plan) and the polygons
of the lanes at d <= 2 by span (strata._span_polygon).  Here the sweeps
of the bench's two sweep shapes, at the default N, at a low N whose
points retry at 2N and at N = 1, must print the same bytes in every order in one process and after
each of the process's memos is cleared; every new memo must be hit on a
repeated call, and hold immutable values only, no context.
"""

import contextlib
import io
import itertools
from dataclasses import fields
from fractions import Fraction

import pytest

from gustrata import _linalg, cli, displayzoo, fcrystal, strata, wittring
from gustrata.displayzoo import _template_charpoly
from gustrata.fcrystal import BasisLabel, NewtonPolygon, _graded_scale
from gustrata.wittring import make_context

# the new memos, then the older ones
NEW_MEMOS = [wittring._first_irreducible, strata._cycle_plan,
             strata._span_polygon]
MEMOS = NEW_MEMOS + [strata._catalog, strata._labels, strata._predictors,
                     displayzoo._deformation_template,
                     fcrystal._basis_halves, cli._parser]


def _shape(n, p, d, count, low):
    """A random sweep at the default N, at N = low, below N* = d n + 1, so
    that every point retries at 2N and is certified there, and at N = 1,
    where every point retries at 2 and fails (exit 3)."""
    argv = ["verify", "--n", str(n), "--p", str(p), "--d", str(d),
            "--random", str(count), "--seed", "7"]
    return [argv, argv + ["--precision", str(low)],
            argv + ["--precision", "1"]]


# the shapes of the sweep_d1 and sweep_ext bench workloads
SHAPES = {"d1": _shape(8, 3, 1, 25, 5), "ext": _shape(5, 3, 2, 12, 6)}
ALL = [argv for shape in SHAPES.values() for argv in shape]


def _run(argv):
    """(exit code, stdout, stderr) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _clear_all():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(scope="module")
def cold():
    """Each invocation's output with every memo cleared before it."""
    outputs = {}
    for argv in ALL:
        _clear_all()
        outputs[tuple(argv)] = _run(argv)
    return outputs


def test_the_shapes_retry_and_fail_as_meant(cold):
    for default, low, one in SHAPES.values():
        assert cold[tuple(default)][0] == 0
        assert '"precision_retries": 0' in cold[tuple(default)][1]
        code, out, _ = cold[tuple(low)]
        assert code == 0 and '"precision_retries": 0' not in out
        assert '"precision_failures": []' in out
        assert cold[tuple(one)][0] == 3


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_order_prints_the_cold_bytes(shape, cold):
    for order in itertools.permutations(SHAPES[shape]):
        for argv in order:
            assert _run(argv) == cold[tuple(argv)], (order, argv)


def test_interleaved_shapes_print_the_cold_bytes(cold):
    for argv in ALL + ALL[::-1]:
        assert _run(argv) == cold[tuple(argv)], argv


@pytest.mark.parametrize("memo", MEMOS, ids=lambda m: m.__qualname__)
def test_clearing_a_memo_changes_no_byte(memo, cold):
    for argv in ALL:
        _run(argv)
    memo.cache_clear()
    for argv in ALL:
        assert _run(argv) == cold[tuple(argv)], argv


def test_new_memos_are_bounded():
    for memo in NEW_MEMOS:
        assert memo.cache_parameters()["maxsize"] is not None


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_repeated_call_hits_every_new_memo(shape):
    argv = SHAPES[shape][0]
    _run(argv)
    before = [memo.cache_info().hits for memo in NEW_MEMOS]
    _run(argv)
    after = [memo.cache_info().hits for memo in NEW_MEMOS]
    assert all(b > a for a, b in zip(before, after)), (before, after)


def _frozen(value):
    """Whether value is built of tuples, ints and Fractions alone, besides
    the basis labels, frozen dataclasses of a str and an int, and the
    immutable Newton polygons, a tuple of (Fraction, int) pairs, that the
    memos hold."""
    if type(value) in (int, bool, Fraction):
        return True
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    if type(value) is BasisLabel:
        return [type(getattr(value, f.name)) for f in fields(value)] == \
            [str, int] and BasisLabel.__dataclass_params__.frozen
    if type(value) is NewtonPolygon:
        return _frozen(value.slopes)
    return False


@pytest.mark.parametrize("n,p,d", [(8, 3, 1), (5, 3, 2), (6, 2, 2),
                                   (9, 1000003, 1)])
def test_memoized_values_are_immutable(n, p, d):
    assert _frozen(wittring._first_irreducible(p, d))
    for N, base in ((2, 2), (1, 1), (2, 1)):
        assert _frozen(strata._cycle_plan(n, N, base))
    # the lanes of a chunk are read off _span_polygon's values
    ctx = make_context(p, d, 1)
    rows = list(strata._enumerate_points(n, p ** d, "random", 64, 3))
    units = _template_charpoly(ctx, n, rows)[1]
    spans = _linalg.unit_spans(units)
    assert len(spans) == len(rows)
    for span in spans:
        value = strata._span_polygon(len(units) + 1, span, d,
                                     _graded_scale(d))
        assert _frozen(value)
