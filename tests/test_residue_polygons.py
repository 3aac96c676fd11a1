"""A sweep at d <= 2 reads each lane's polygon off residues: the unit
parts u_k of the coefficients c_k = p^(k-1) u_k of the lane matrix's
charpoly, taken mod p (displayzoo._template_charpoly at N = 1), decide
the hull, which is that of (0, n), (n, 0) and the points (n - k, k - 1)
of the units u_k (_linalg.unit_slope_pairs).  Each lane's polygon must
be the one the Berkowitz route (_graded_lane_pairs of _template_lanes)
reads at the certifying precision N* = d n + 1; no lane is certified at
N = d n; and a certified sweep runs no Teichmuller lift and no
Berkowitz."""

import itertools
import random

import pytest

from gustrata import _linalg, make_context
from gustrata._linalg import ops_for
from gustrata.displayzoo import _template_lanes
from gustrata.fcrystal import (NewtonPolygon, _graded_lane_pairs,
                               _lane_polygons)
from gustrata.strata import (CHUNK, _chunk_polygons, _enumerate_points,
                             verify_local_strata)
from gustrata.wittring import RingContext


def berkowitz_polygons(ctx, n, chunk):
    return _lane_polygons(_graded_lane_pairs(*_template_lanes(ctx, n, chunk)),
                          ctx.N)


def assert_residue_polygons(p, d, n, points):
    """Chunk by chunk: at N* every lane's residue polygon is certified and
    is the Berkowitz route's; at N = d n none is certified."""
    ctx = make_context(p, d, d * n + 1)
    below = make_context(p, d, d * n)
    for k in range(0, len(points), CHUNK):
        chunk = points[k:k + CHUNK]
        polygons = _chunk_polygons(ctx, n, chunk)
        assert None not in polygons
        assert polygons == berkowitz_polygons(ctx, n, chunk), chunk
        assert _chunk_polygons(below, n, chunk) == [None] * len(chunk)


EXHAUSTIVE = ([(n, 2, 1) for n in range(3, 10)]
              + [(n, 3, 1) for n in range(3, 8)]
              + [(n, 5, 1) for n in range(3, 6)]
              + [(n, 2, 2) for n in range(3, 6)]
              + [(n, 3, 2) for n in (3, 4)])


@pytest.mark.parametrize("n,p,d", EXHAUSTIVE)
def test_every_point_of_an_exhaustive_sweep(n, p, d):
    assert_residue_polygons(
        p, d, n, list(_enumerate_points(n, p ** d, "exhaustive", None, None)))


SEEDED = [(p, d, n) for p, d in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (3, 2), (5, 2), (7, 2)]
          for n in (3, 4, 9, 16, 33, 64)] + [
    (1000003, d, n) for d in (1, 2) for n in (3, 4, 9, 20)]


@pytest.mark.parametrize("p,d,n", SEEDED)
def test_seeded_chunks(p, d, n):
    """Random points with some zero parameters, the zero point and the
    point of all codes q - 1."""
    rng = random.Random(f"residue {p} {d} {n}")
    q = p ** d
    points = [tuple(0 if rng.random() < 0.2 else rng.randrange(q)
                    for _ in range(n - 1)) for _ in range(10)]
    points += [(0,) * (n - 1), (q - 1,) * (n - 1)]
    assert_residue_polygons(p, d, n, points)


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_unit_pairs_are_the_coefficient_pairs(n):
    """On patterns of units that need not be symmetric (every pattern up
    to n = 7, 64 random ones at n = 12), with the non-units p times a
    random integer, unit_slope_pairs gives each lane the polygon and
    term coefficient_slope_pairs reads off the valuations of its
    coefficients, and one (pairs, term) per distinct hull."""
    p, N = 3, 2 * n + 2
    rng = random.Random(f"units {n}")
    masks = (list(itertools.product((0, 1), repeat=n - 1)) if n <= 7 else
             [tuple(rng.randrange(2) for _ in range(n - 1))
              for _ in range(64)])
    ctx = make_context(p, 1, N)
    lops = _linalg._LaneOps(ops_for(ctx), len(masks), n)
    # u_k per lane: a unit, or p times a random integer
    u = [[rng.randrange(1, p) if mask[k - 1] else p * rng.randrange(ctx.q)
          for mask in masks] for k in range(1, n)]

    def lane(values):
        return tuple([lops.pack(x % ctx.q) for x in values])

    coeffs = ([lane([p ** n] * len(masks))]
              + [lane([p ** (k - 1) * x for x in u[k - 1]])
                 for k in range(n - 1, 0, -1)]
              + [lops.one])
    got = _linalg.unit_slope_pairs([lane([x % p for x in row]) for row in u],
                                   1, (2, 1))
    ref = _linalg.coefficient_slope_pairs(lops, [coeffs], 1, (2, 1))
    assert [NewtonPolygon(pairs) for pairs, _ in got] == [
        NewtonPolygon(pairs) for pairs, _ in ref]
    assert [term for _, term in got] == [term for _, term in ref] == [
        n] * len(masks)
    assert len({id(x) for x in got}) == len({tuple(pairs)
                                             for pairs, _ in got})


@pytest.mark.parametrize("n,p,d", [(8, 3, 1), (7, 2, 1), (5, 3, 2),
                                   (4, 2, 2), (9, 1000003, 1),
                                   (6, 1000003, 2)])
def test_certified_sweep_runs_no_lift_and_no_berkowitz(n, p, d,
                                                       monkeypatch):
    """Spies on RingContext.teichmuller, RingContext._teich_root and
    _linalg._berkowitz: a certified sweep at d <= 2 calls none of them,
    and the same sweep below N*, whose every point retries at 2N, calls
    them (so the spies see the calls they are to refuse): _teich_root
    where some lift is not 0 or 1, so past F_2."""
    calls = []
    for owner, name in ((RingContext, "teichmuller"),
                        (RingContext, "_teich_root"),
                        (_linalg, "_berkowitz")):
        original = getattr(owner, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)
    count = 2 * CHUNK + 3
    report = verify_local_strata(n, p, d, "random", count, 11)
    assert report.points == count and report.precision_retries == 0
    assert calls == []
    report = verify_local_strata(n, p, d, "random", 3, 11,
                                 precision=d * n)
    assert report.precision_retries == 3
    assert {"teichmuller", "_berkowitz"} <= set(calls)
    assert ("_teich_root" in calls) == (p ** d > 2)
