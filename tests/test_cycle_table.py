"""The sweep's cycle table against the per-point slope graph stage.

A sweep holds, in closed form, the cycles through u_1 of the deformation
template's graph that can be a point's least, and reads each point's
least cycles off their parameter masks (strata._CycleTable).  Here the
closed form is compared with the enumeration of the template's cycles on
a grid of (n, p, d) and precisions, and every point of exhaustive sweeps
is checked against its own graph, built from its own display: the
successor lists, the cycles through u_1 with their kept flags, the least
cycles, and Karp's least mean wherever the table's one settle decides it.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gustrata import (DeformationPoint, build_graph, cycles_through,
                      default_precision, deformation_display,
                      karp_min_cycle_mean, least_slope_cycle, make_context,
                      strata)
from gustrata.fcrystal import U
from gustrata.slopegraph import EXTRA, SlopeGraph, settle_potentials

U1 = U(1)


def _edge_pairs(graph):
    return {(a, b) for a, row in enumerate(graph._succ) for b, _ in row}


def _extra_tags(graph, base):
    """EXTRA on each edge of positive weight whose position pair is not in
    base, parallel to the graph's successor lists."""
    return [[EXTRA if w and (a, b) not in base else 0 for b, w in row]
            for a, row in enumerate(graph._succ)]


def _point_graph(ctx, n, ints):
    return build_graph(deformation_display(
        ctx, DeformationPoint.from_ints(ctx, n, ints)))


def _undominated(cycles):
    """The cycles in stable Fraction slope order, less every cycle whose
    mask holds the mask of an earlier one: those least(skip) can return."""
    out = []
    for c in sorted(cycles, key=lambda c: Fraction(c.weight, c.length)):
        if all(e.mask & ~c.mask for e in out):
            out.append(c)
    return out


def _enumerated(ctx, n, base_N):
    """(graph, cycles) of the template at ctx as an enumeration finds
    them: the graph of the point whose parameters are all 1, each edge
    tagged with the bit of the parameter whose vanishing deletes it, and
    EXTRA when it has positive weight and is not an edge of the zero point
    at precision base_N; all its cycles through u_1, in order."""
    ones = (1,) * (n - 1)
    graph = _point_graph(ctx, n, ones)
    bits = {}
    for k in range(n - 1):
        for pair in _edge_pairs(graph) - _edge_pairs(_point_graph(
                ctx, n, ones[:k] + (0,) + ones[k + 1:])):
            bits[pair] = 2 << k
    extra = _extra_tags(graph, _edge_pairs(_point_graph(
        ctx.at_precision(base_N), n, (0,) * (n - 1))))
    tags = [[bits.get((a, b), 0) | t for (b, _), t in zip(row, trow)]
            for a, row, trow in zip(itertools.count(), graph._succ, extra)]
    return graph, cycles_through(graph, U1, tags)


def _check_formula(table, n, base_N):
    """The table's cycles are the enumeration's undominated cycles, as
    (weight, length, mask) in order; its graph and tags are the
    enumeration's; and settled is the settle at the largest slope of all
    the template's cycles on the graph without the edges leaving u_1."""
    graph, cycles = _enumerated(table.ctx, n, base_N)
    assert [(c.weight, c.length, mask) for mask, c in table.by_slope] == \
        [(c.weight, c.length, c.mask) for c in _undominated(cycles)]
    assert all(mask == c.mask and c.slope == Fraction(c.weight, c.length)
               for mask, c in table.by_slope)
    assert table.graph(0)._succ == graph._succ
    top = max(cycles, key=lambda c: Fraction(c.weight, c.length))
    off = [[] if v == U1 else row
           for v, row in zip(graph.vertices, graph._succ)]
    assert table.settled == (settle_potentials(
        SlopeGraph._from_successors(graph.vertices, off), top.weight,
        top.length) is not None)
    return len(cycles)


def _check_points(table, n, base_ctx):
    """Compare table with the graph of every point over base_ctx's residue
    field, the displays built at table's precision; the kept flags come
    from the edges of the zero point at base_ctx's precision.  The table's
    cycles that avoid a point's zero parameters are cycles of the point's
    graph, with their kept flags, and every cycle of the point has one of
    them at or below its slope, kept when it is."""
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
        masked = [c for _, c in table.by_slope if not c.mask & zero]
        shapes = {(c.weight, c.length, c.kept) for c in cycles}
        assert all((c.weight, c.length, not c.mask & EXTRA) in shapes
                   for c in masked), ints
        assert all(any(e.slope <= c.slope and (c.mask & EXTRA or
                                                not e.mask & EXTRA)
                       for e in masked) for c in cycles), ints
        full = least_slope_cycle(cycles, U1)
        assert (table.least(zero).weight, table.least(zero).length) == \
            (full.weight, full.length)
        kept = table.least(zero | EXTRA)
        if any(c.kept for c in cycles):
            reduced = least_slope_cycle([c for c in cycles if c.kept], U1)
            assert (kept.weight, kept.length) == \
                (reduced.weight, reduced.length)
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
    # the closed form lists the cycles in Fraction slope order, with ties,
    # and each carries its slope, built once with the table: least_slope
    # gives the first cycle's slope as that Fraction
    ties = 0
    for n in range(3, top + 1):
        table = strata._CycleTable(
            make_context(p, d, default_precision(n, d)), n)
        slopes = [c.slope for _, c in table.by_slope]
        assert len(slopes) == n
        assert slopes == sorted(slopes), n
        assert all(type(s) is Fraction for s in slopes)
        ties += sum(a == b for a, b in zip(slopes, slopes[1:]))
        first, slope = table.least_slope(0)
        assert first is table.by_slope[0][1] and slope is first.slope
        assert table.least_slope(0) is table.least_slope(0)
    assert ties


# (p, d, largest n) of the grid the closed form is compared on
GRID = [(3, 1, 64), (2, 1, 48), (3, 2, 32), (5, 1, 32), (2, 3, 16)]


@pytest.mark.parametrize("p,d,top", GRID)
def test_closed_form_is_the_enumeration(p, d, top):
    # at the default N, at 2N (the doubled table), and at N = 1, where
    # only the weight-0 cycle is left, with its table at 2, where every
    # cycle of positive weight holds EXTRA
    for n in range(3, top + 1):
        ctx = make_context(p, d, default_precision(n, d))
        table = strata._CycleTable(ctx, n)
        cycles = _check_formula(table, n, ctx.N)
        assert len(table.by_slope) == n <= cycles
        _check_formula(table.doubled, n, ctx.N)
        low = strata._CycleTable(ctx.at_precision(1), n)
        _check_formula(low, n, 1)
        assert [c.weight for _, c in low.by_slope] == [0]
        _check_formula(low.doubled, n, 1)
        assert all(c.mask & EXTRA for _, c in low.doubled.by_slope
                   if c.weight)


@pytest.mark.parametrize("n,p,d", [(5, 3, 1), (6, 2, 1), (4, 3, 2),
                                   (16, 3, 1), (17, 2, 1)])
def test_lemma_violation_names_the_enumerations_first_cycle(n, p, d):
    # a polygon of least slope 1/2 exceeds every point's least cycle
    # slope off sigma: the lemma entry names the first cycle of the
    # point's own enumeration below 1/2, the first such template cycle
    # whose mask avoids the point's zero parameters
    ctx = make_context(p, d, default_precision(n, d))
    table = strata._CycleTable(ctx, n)
    _, cycles = _enumerated(ctx, n, ctx.N)
    sigma = strata.catalog(n)[0].polygon
    rng = random.Random(n)
    q = p ** d
    violations = 0
    for _ in range(60):
        ints = tuple(0 if rng.random() < 0.5 else rng.randrange(1, q)
                     for _ in range(n - 1))
        zero = strata._zero_bits(ints)
        bad = [c for c in cycles
               if not c.mask & zero and 2 * c.weight < c.length]
        expected = [("lemma_violations", {
            "point": strata._point_doc(n, ints), "min_newton": "1/2",
            "cycle": bad[0].to_json()})] if bad else []
        rec = strata.evaluate_point(table, ints, sigma)
        assert [e for e in rec.entries
                if e[0] == "lemma_violations"] == expected, ints
        violations += bool(bad)
    assert violations
