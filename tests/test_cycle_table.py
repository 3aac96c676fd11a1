"""The sweep's cycle table against the per-point slope graph stage.

A sweep enumerates the cycles through u_1 once, on the deformation
template's graph, and reads each point's cycles off their parameter masks
(strata._CycleTable).  Here every point of exhaustive sweeps is checked
against its own graph, built from its own display: the successor lists,
the cycles through u_1 in order with their kept flags, the least cycles,
and Karp's least mean wherever the table's one settle decides it.
"""

import itertools
from fractions import Fraction

import pytest

from gustrata import (DeformationPoint, build_graph, cycles_through,
                      default_precision, deformation_display,
                      karp_min_cycle_mean, least_slope_cycle, make_context,
                      strata)
from gustrata.fcrystal import U
from gustrata.slopegraph import EXTRA

U1 = U(1)


def _edge_pairs(graph):
    return {(a, b) for a, row in enumerate(graph._succ) for b, _ in row}


def _extra_tags(graph, base):
    """EXTRA on each edge of positive weight whose position pair is not in
    base, parallel to the graph's successor lists."""
    return [[EXTRA if w and (a, b) not in base else 0 for b, w in row]
            for a, row in enumerate(graph._succ)]


def _check_points(table, n, base_ctx):
    """Compare table with the graph of every point over base_ctx's residue
    field, the displays built at table's precision; the kept flags come
    from the edges of the zero point at base_ctx's precision."""
    zero_point = DeformationPoint.from_ints(base_ctx, n, (0,) * (n - 1))
    base = _edge_pairs(build_graph(deformation_display(base_ctx,
                                                       zero_point)))
    settled = 0
    q = base_ctx.p ** base_ctx.d
    for ints in itertools.product(range(q), repeat=n - 1):
        point = DeformationPoint.from_ints(base_ctx, n, ints)
        graph = build_graph(deformation_display(table.ctx, point))
        zero = strata._zero_bits(ints)
        assert table.graph(zero)._succ == graph._succ, ints
        cycles = cycles_through(graph, U1, _extra_tags(graph, base))
        masked = [c for c in table.cycles if not c.mask & zero]
        assert [(c.path, c.weight, c.kept) for c in masked] == \
            [(c.path, c.weight, c.kept) for c in cycles], ints
        full = least_slope_cycle(cycles, U1)
        assert (table.least(zero).path, table.least(zero).weight) == \
            (full.path, full.weight)
        kept = table.least(zero | EXTRA)
        if any(c.kept for c in cycles):
            reduced = least_slope_cycle([c for c in cycles if c.kept], U1)
            assert (kept.path, kept.weight) == (reduced.path, reduced.weight)
        else:
            # only at 2N over a base set at N = 1
            assert kept is None and table.ctx.N == 2
        if table.settled:
            settled += 1
            assert karp_min_cycle_mean(graph) == full.slope
    return settled


@pytest.mark.parametrize("n,p,d", [
    *[(n, p, 1) for n in range(3, 8) for p in (2, 3)],
    (4, 3, 2), (3, 3, 3),
])
def test_table_matches_every_point_graph(n, p, d):
    ctx = make_context(p, d, default_precision(n, d))
    table = strata._CycleTable(ctx, n)
    assert _check_points(table, n, ctx) == (ctx.p ** ctx.d) ** (n - 1)


@pytest.mark.parametrize("n,p,N", [(3, 2, 1), (3, 2, 3), (4, 3, 3),
                                   (5, 3, 3)])
def test_doubled_table_keeps_the_base_set_of_N(n, p, N):
    # at these precisions every point retries at 2N; its kept flags are
    # read against the zero point's edges at N, which at N = 1 lack the
    # p entries that 2N has
    ctx = make_context(p, 1, N)
    table = strata._CycleTable(ctx, n)
    doubled = table.doubled
    assert doubled.ctx.N == 2 * N
    assert table.doubled is doubled
    _check_points(doubled, n, ctx)
    _, records = strata.sweep(n, p, 1, precision=N)[1:]
    assert all(rec.retried for rec in records)


def test_records_read_the_table():
    # the least cycle slope of every record is the table's least slope
    # over the point's cycles
    n, p = 6, 3
    mode_doc, ctx, records = strata.sweep(n, p, 1)
    table = strata._CycleTable(ctx, n)
    for rec in records:
        zero = strata._zero_bits(rec.ints)
        assert rec.min_cycle == table.least(zero).slope


@pytest.mark.parametrize("p,d,top", [(3, 1, 64), (2, 1, 48), (3, 2, 32),
                                     (5, 1, 24)])
def test_every_template_settles(p, d, top):
    # a template that does not settle makes every point of its sweeps run
    # Karp on its own graph, an O(V * E) run per point
    unsettled = [n for n in range(3, top + 1)
                 if not strata._CycleTable(
                     make_context(p, d, default_precision(n, d)), n).settled]
    assert unsettled == []


@pytest.mark.parametrize("p,d,top", [(3, 1, 64), (2, 1, 64), (3, 2, 32)])
def test_by_slope_is_the_fraction_order(p, d, top):
    # the integer sort key w L / l keeps the order of a stable sort on the
    # Fraction slopes w / l, ties in enumeration order; the tables have
    # ties, and least_slope gives the first cycle's slope as a Fraction
    ties = 0
    for n in range(3, top + 1):
        table = strata._CycleTable(
            make_context(p, d, default_precision(n, d)), n)
        expected = sorted(table.cycles,
                          key=lambda c: Fraction(c.weight, c.length))
        assert len(table.by_slope) == len(expected), n
        assert all(c is e and mask == c.mask for (mask, c), e
                   in zip(table.by_slope, expected)), n
        slopes = [c.slope for c in expected]
        ties += sum(a == b for a, b in zip(slopes, slopes[1:]))
        first, slope = table.least_slope(0)
        assert first is expected[0] and slope == expected[0].slope
        assert type(slope) is Fraction
    assert ties
