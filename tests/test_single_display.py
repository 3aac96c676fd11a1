"""The polygon of a single display, which runs the lane kernels on its base
ops, against its lane in a batch of two or more displays, which runs them
on packed lanes (_linalg._LaneOps)."""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from gustrata import (DeformationPoint, DieudonneDisplay, NewtonPolygon,
                      PrecisionError, _linalg, default_precision,
                      deformation_display, display_from_json, make_context,
                      newton_slopes)
from gustrata.displayzoo import parse_module_spec
from gustrata.fcrystal import U, V, _parts, newton_slopes_batch

ROOT = Path(__file__).resolve().parent.parent


def _digest_argvs():
    spec = importlib.util.spec_from_file_location(
        "cli_digests", ROOT / "tools" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ARGVS


def _module_cases():
    """(module, p, d, precision) of every module command of the digests,
    each once."""
    cases = []
    for argv in _digest_argvs():
        if "--module" not in argv:
            continue
        opts = dict(zip(argv[1::2], argv[2::2]))
        case = (opts["--module"], int(opts.get("--p", 3)),
                int(opts.get("--d", 1)),
                int(opts["--precision"]) if "--precision" in opts else None)
        if case not in cases:
            cases.append(case)
    return cases


def _single(display):
    """newton_slopes of a fresh copy of the display, or the PrecisionError
    text when it is not certified."""
    fresh = DieudonneDisplay._from_sparse(
        display.ctx, display.basis, display.sparse_frobenius,
        display.sparse_pairing, display.summands, display.parts)
    try:
        return newton_slopes(fresh)
    except PrecisionError as exc:
        return str(exc)


def _lanes(displays):
    """newton_slopes_batch of fresh copies of the displays, a polygon or
    None per lane."""
    return newton_slopes_batch([DieudonneDisplay._from_sparse(
        d.ctx, d.basis, d.sparse_frobenius, d.sparse_pairing)
        for d in displays])


def assert_single_is_its_lane(displays):
    """Each display's own polygon is its lane's in the batch of all of
    them, and in a batch of it and a copy; an uncertified lane is a
    PrecisionError naming N."""
    assert len(displays) >= 1
    batches = [_lanes(displays)] + [_lanes([d, d]) for d in displays[:3]]
    for k, display in enumerate(displays):
        single = _single(display)
        lanes = [batches[0][k]] + ([batches[k + 1][0], batches[k + 1][1]]
                                   if k < 3 else [])
        if isinstance(single, str):
            assert single == (f"insufficient precision: hull vertex at "
                              f"degree 0 has valuation >= "
                              f"{display.ctx.N}"), k
            assert lanes == [None] * len(lanes), k
        else:
            assert all(lane == single for lane in lanes), k


@pytest.mark.parametrize("module,p,d,precision", _module_cases())
def test_every_digest_module(module, p, d, precision):
    spec = parse_module_spec(module)
    ctx = make_context(p, d, precision or default_precision(spec.half_rank,
                                                            d))
    assert_single_is_its_lane([spec.build(ctx)])


def _points(n, q, limit, seed):
    """Every parameter vector over q residues, or a seeded sample of limit
    of them when there are more."""
    if q ** (n - 1) <= limit:
        return list(itertools.product(range(q), repeat=n - 1))
    rng = random.Random(seed)
    return [tuple(rng.randrange(q) for _ in range(n - 1))
            for _ in range(limit)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_deformation_displays(n, p, d):
    # exhaustive up to 1024 points (every case but p = 3, d = 2 at n = 5
    # and 6, which have 6561 and 59049 and take a sample of 1024)
    ctx = make_context(p, d, default_precision(n, d))
    displays = [deformation_display(ctx, DeformationPoint.from_ints(
        ctx, n, ints)) for ints in _points(n, p ** d, 1024, 100 * n + p)]
    assert_single_is_its_lane(displays)


def _ungraded(seed, p, d, N, labels, inside):
    """A library display on the labels with random F entries: every entry
    joining the two families, and the entries at the positions inside
    (each inside one family), nonzero with probability 0.6, a unit or p
    times one."""
    rng = random.Random(seed)
    ctx = make_context(p, d, N)
    r = len(labels)

    def entry():
        while True:
            e = ctx.scalar(tuple(rng.randrange(ctx.q)
                                 * ctx.p ** rng.randrange(2)
                                 for _ in range(d)))
            if not e.is_zero():
                return e

    columns = [[entry() if ((labels[i].family != labels[j].family
                             or (i, j) in inside) and rng.random() < 0.6)
                or (i, j) in inside else ctx.zero()
                for i in range(r)] for j in range(r)]
    display = DieudonneDisplay(ctx, labels, columns,
                               [[ctx.zero()] * r] * r)
    return display_from_json(display.to_json())


def _certified(displays):
    return sum(isinstance(_single(disp), NewtonPolygon) for disp in displays)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_entry_inside_one_family(d):
    # the non-graded fallback: the whole columns of F, scale (1, 1)
    labels = [U(0), V(0), U(1), V(1), U(2), V(2)]
    displays = [_ungraded(10 * seed + d, 3, d, 40, labels, {(2, 0)})
                for seed in range(8)]
    assert all(any(i == 2 for i, _ in disp.sparse_frobenius[0])
               for disp in displays)
    assert 0 < _certified(displays) < len(displays)
    assert_single_is_its_lane(displays)


@pytest.mark.parametrize("d", [1, 2])
def test_halves_of_unequal_size(d):
    # three u and one v: entries inside the u-family make det F nonzero
    labels = [U(0), U(1), V(0), U(2)]
    displays = [_ungraded(seed, 5, d, 20, labels, {(0, 1), (3, 0)})
                for seed in range(6)]
    assert 0 < _certified(displays) < len(displays)
    assert_single_is_its_lane(displays)


@pytest.mark.parametrize("text,d", [("M(6)+N^6", 2), ("ss(6)+ss(6)+N", 2),
                                    ("M(7)+M(3)+N^2", 1),
                                    ("def(5; s2=1)+M(4)+N", 1)])
def test_direct_sums_read_by_parts(text, d):
    spec = parse_module_spec(text)
    ctx = make_context(5, d, default_precision(spec.half_rank, d))
    display = spec.build(ctx)
    assert _parts(display) is not None
    assert_single_is_its_lane([display])


def test_precision_error_text():
    spec = parse_module_spec("N^60")
    display = spec.build(make_context(3, 1, 3))
    with pytest.raises(PrecisionError) as info:
        newton_slopes(display)
    assert str(info.value) == ("insufficient precision: hull vertex at "
                               "degree 0 has valuation >= 3")


def test_one_display_builds_no_lanes(monkeypatch):
    built = []
    original = _linalg._LaneOps.__init__

    def spy(self, base, width, size):
        built.append(width)
        original(self, base, width, size)

    monkeypatch.setattr(_linalg._LaneOps, "__init__", spy)
    ctx = make_context(3, 2, default_precision(8, 2))
    displays = [parse_module_spec(text).build(ctx) for text in
                ("def(8; s0=1, s2=2, s5=1)", "M(6)+N^2", "N^8")]
    displays.append(_ungraded(4, 3, 2, 40, [U(0), V(0), U(1), V(1)],
                              {(2, 0)}))
    assert _certified(displays) == 4
    assert built == []
    # the spy sees a batch
    newton_slopes_batch([displays[0], parse_module_spec(
        "def(8; s0=1, s2=2, s5=1)").build(ctx)])
    assert built == [2]
