import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from gustrata import (DeformationPoint, build_graph, cycle_decomposition,
                      cycles_through, deformation_display, default_precision,
                      karp_min_cycle_mean, least_slope_cycle, make_context,
                      min_cycle_slope,
                      module_M, module_N, newton_slopes, supersingular_module,
                      to_dot)
from gustrata.fcrystal import U, V
from gustrata.slopegraph import EXTRA, SlopeGraph, settle_potentials

from _oracles import (min_cycle_mean_brute, min_slope_through_nx,
                      simple_cycles_through_nx)


def _cycle_counter(cycles):
    """The (vertices, length, weight) triples of cycles, with multiplicity,
    as simple_cycles_through_nx gives them."""
    return Counter((c.vertices, c.length, c.weight) for c in cycles)


def _extra_tags(G, base, tags=None):
    """Tags parallel to G's successor lists: EXTRA on each edge of positive
    weight whose (source, target) position pair is not in base, ORed into
    ``tags`` (same layout) when given."""
    return [[(0 if tags is None else tags[a][i])
             | (EXTRA if w and (a, b) not in base else 0)
             for i, (b, w) in enumerate(row)]
            for a, row in enumerate(G._succ)]


def ctx_for(n, p=3, d=1):
    return make_context(p, d, default_precision(n, d))


def graph_for(display):
    return build_graph(display)


class TestBuildGraph:
    def test_M7_is_one_fourteen_cycle(self):
        G = graph_for(module_M(ctx_for(7), 7))
        assert len(G.vertices) == 14 and len(G.edges) == 14
        assert all(G.out_degree(v) == 1 for v in G.vertices)
        weights = sorted(w for _, _, w in G.edges)
        assert weights.count(1) == 7 and weights.count(0) == 7
        cycles = cycle_decomposition(G)
        assert len(cycles) == 1
        assert cycles[0].length == 14 and cycles[0].weight == 7

    def test_M7_visit_order_from_u1(self):
        # starting at u1 the successor walk visits
        # u1, v7, u6, v5, u4, v3, u2, v1, u7, v6, u5, v4, u3, v2
        G = graph_for(module_M(ctx_for(7), 7))
        order = [U(1)]
        for _ in range(13):
            order.append(G.successors(order[-1])[0][0])
        expected = [U(1), V(7), U(6), V(5), U(4), V(3), U(2), V(1),
                    U(7), V(6), U(5), V(4), U(3), V(2)]
        assert order == expected

    def test_M2_two_disjoint_2cycles(self):
        G = graph_for(module_M(ctx_for(2), 2))
        cycles = cycle_decomposition(G)
        data = sorted((c.length, c.weight) for c in cycles)
        assert data == [(2, 0), (2, 2)]

    def test_deformation_extra_gray_edge(self):
        ctx = ctx_for(3)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, 3, (1, 0)))
        G = graph_for(D)
        assert (V(3), U(1), 0) in G.edges

    def test_column_major_edge_order(self):
        G = graph_for(module_N(ctx_for(1)))
        assert G.edges == ((U(0), V(0), 1), (V(0), U(0), 0))

    def test_every_vertex_has_an_outgoing_edge(self):
        for n in (3, 4, 5):
            ctx = ctx_for(n)
            G = graph_for(supersingular_module(ctx, n))
            assert all(G.out_degree(v) >= 1 for v in G.vertices)


class TestCyclesThrough:
    def test_M3(self):
        G = graph_for(module_M(ctx_for(3), 3))
        cycles = cycles_through(G, U(1))
        assert len(cycles) == 1
        assert cycles[0].length == 6 and cycles[0].weight == 3

    def test_M2(self):
        G = graph_for(module_M(ctx_for(2), 2))
        cycles = cycles_through(G, U(1))
        assert len(cycles) == 1
        assert (cycles[0].length, cycles[0].weight) == (2, 0)

    def test_deformation_n3_cycle_list(self):
        ctx = ctx_for(3)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, 3, (1, 0)))
        cycles = cycles_through(graph_for(D), U(1))
        stats = sorted((c.length, c.weight) for c in cycles)
        # the matrix-derived graph has the short gray cycle, the original
        # rank-6 cycle, and one detour through the extra black edge u2->v2
        assert (2, 0) in stats and (6, 3) in stats
        assert stats == [(2, 0), (4, 1), (6, 3)]

    @pytest.mark.parametrize("spec", [
        ("M", 3), ("M", 4), ("ss", 6), ("def", 5), ("def", 7),
    ])
    def test_complete_against_networkx(self, spec):
        kind, n = spec
        ctx = ctx_for(n, p=2)
        if kind == "M":
            D = module_M(ctx, n)
        elif kind == "ss":
            D = supersingular_module(ctx, n)
        else:
            ints = tuple(1 if i % 2 == 0 else 0 for i in range(n - 1))
            D = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints))
        G = graph_for(D)
        assert len(G.vertices) <= 16
        assert _cycle_counter(cycles_through(G, U(1))) == \
            simple_cycles_through_nx(G, U(1))

    def test_slope_values(self):
        G = graph_for(module_M(ctx_for(4), 4))
        cycles = cycles_through(G, U(1))
        assert [c.slope for c in cycles] == [Fraction(1, 4)]

    def test_cycle_json(self):
        G = graph_for(module_N(ctx_for(1)))
        c = cycles_through(G, U(0))[0]
        assert c.to_json() == {"vertices": ["u0", "v0"], "length": 2,
                               "weight": 1}


    def test_long_cycle_without_recursion(self):
        verts = [U(i) for i in range(5000)]
        edges = [(verts[i], verts[(i + 1) % 5000], i % 2)
                 for i in range(5000)]
        cycles = cycles_through(SlopeGraph(verts, edges), U(0))
        assert [(c.length, c.weight) for c in cycles] == [(5000, 2500)]
        assert cycles[0].vertices == tuple(verts)


class TestKeptCycles:
    """One enumeration with EXTRA on the positive-weight edges outside a
    base edge set marks the kept cycles; they are the cycles of the
    filtered graph."""

    @pytest.mark.parametrize("seed", range(120))
    def test_random_graphs_against_label_filter(self, seed):
        # of the 120 seeds, 29 have no cycle through u0, 28 no kept one,
        # and 18 a kept minimum above the full one
        rng = random.Random(seed)
        k = rng.randrange(2, 8)
        verts = [U(i) for i in range(k)]
        edges = [(a, b, rng.randrange(3)) for a in verts for b in verts
                 if rng.random() < (0.2 if a == b else 0.5)]
        base = {(a, b) for a in range(k) for b in range(k)
                if rng.random() < 0.5}
        base_labels = {(str(verts[a]), str(verts[b])) for a, b in base}
        G = SlopeGraph(verts, edges)
        v = verts[0]
        cycles = cycles_through(G, v, _extra_tags(G, base))
        # the full enumeration does not depend on the base set
        assert [(c.vertices, c.weight) for c in cycles] == \
            [(c.vertices, c.weight) for c in cycles_through(G, v)]
        kept = [(a, b, w) for a, b, w in edges
                if w == 0 or (str(a), str(b)) in base_labels]
        assert _cycle_counter(c for c in cycles if c.kept) == \
            simple_cycles_through_nx(SlopeGraph(verts, kept), v)
        full = min_slope_through_nx(verts, edges, v)
        reduced = min_slope_through_nx(verts, edges, v, base_labels)
        if full is None:
            assert cycles == []
            return
        assert least_slope_cycle(cycles, v).slope == full
        kept_cycles = [c for c in cycles if c.kept]
        if reduced is None:
            with pytest.raises(RuntimeError, match="no cycles through u0"):
                least_slope_cycle(kept_cycles, v)
        else:
            assert least_slope_cycle(kept_cycles, v).slope == reduced

    def test_no_kept_cycle_raises(self):
        # the only cycle through u1 uses the black edge u1 -> v1, which is
        # not a base edge
        G = SlopeGraph((U(1), V(1)), ((U(1), V(1), 1), (V(1), U(1), 0)))
        cycles = cycles_through(G, U(1), _extra_tags(G, set()))
        assert [c.kept for c in cycles] == [False]
        assert min_slope_through_nx(G.vertices, G.edges, U(1), set()) is None
        with pytest.raises(RuntimeError, match="no cycles through u1: "
                           "anomalous graph for a valid display"):
            least_slope_cycle([c for c in cycles if c.kept], U(1))
        assert cycles_through(G, U(1), _extra_tags(G, {(0, 1)}))[0].kept


class TestMinCycleSlope:
    @pytest.mark.parametrize("m,expect", [(3, Fraction(1, 2)),
                                          (4, Fraction(1, 4))])
    def test_modules(self, m, expect):
        G = graph_for(module_M(ctx_for(m), m))
        assert min_cycle_slope(G, U(1)) == expect

    def test_deformation_n5_s4(self):
        ctx = ctx_for(5, p=2)
        D = deformation_display(
            ctx, DeformationPoint.from_ints(ctx, 5, (0, 0, 1, 0)))
        assert min_cycle_slope(graph_for(D), U(1)) == 0

    def test_no_cycherror(self):
        G = SlopeGraph((U(1), V(1)), ((U(1), V(1), 0),))
        with pytest.raises(RuntimeError, match="anomal"):
            min_cycle_slope(G, U(1))


class TestGammaCycleLengths:
    @pytest.mark.parametrize("n", [5, 7])
    def test_nonzero_s2j_gives_predicted_cycle(self, n):
        # a nonzero s_{2j} produces a cycle of length n+1-2j and weight
        # (n-1)/2 - j
        ctx = ctx_for(n, p=2)
        for j in range(1, n // 2 + 1):
            ints = tuple(1 if idx == 2 * j else 0
                         for idx in range(2, n + 1))
            D = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints))
            cycles = cycles_through(graph_for(D), U(1))
            stats = {(c.length, c.weight) for c in cycles}
            assert (n + 1 - 2 * j, (n - 1) // 2 - j) in stats

    def test_trivial_family_slope_half(self):
        for n in (3, 5, 7):
            G = graph_for(module_M(ctx_for(n), n))
            assert min_cycle_slope(G, U(1)) == Fraction(1, 2)


class TestKarp:
    @pytest.mark.parametrize("n,ints", [
        (3, (0, 0)), (3, (1, 0)), (3, (0, 1)), (5, (0, 1, 1, 0)),
        (4, (1, 0, 0)), (4, (0, 1, 1)), (6, (1, 0, 1, 0, 1)),
    ])
    def test_against_brute_enumeration(self, n, ints):
        ctx = ctx_for(n, p=2)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, n, ints))
        G = graph_for(D)
        assert karp_min_cycle_mean(G) == min_cycle_mean_brute(G)

    def test_acyclic_returns_none(self):
        G = SlopeGraph((U(1), V(1)), ((U(1), V(1), 1),))
        assert karp_min_cycle_mean(G) is None

    @pytest.mark.parametrize("seed", range(240))
    def test_random_graphs_against_brute_enumeration(self, seed):
        # small weights make equal cycle means common; self-loops and
        # vertices outside every cycle (acyclic components) are included
        rng = random.Random(seed)
        k = rng.randrange(1, 8)
        verts = [U(i) for i in range(k)]
        edges = [(a, b, rng.randrange(3)) for a in verts for b in verts
                 if rng.random() < (0.3 if a == b else 0.25)]
        if seed % 4 == 0:  # force a DAG: only edges to later vertices
            edges = [(a, b, w) for a, b, w in edges
                     if verts.index(a) < verts.index(b)]
        G = SlopeGraph(verts, edges)
        assert karp_min_cycle_mean(G) == min_cycle_mean_brute(G)

    def test_equal_means_and_loops(self):
        a, b, c, d, e = (U(i) for i in range(5))
        # cycles a->b->a (mean 1/2), c->d->e->c (2/3), self-loop e (1)
        G = SlopeGraph((a, b, c, d, e),
                       ((a, b, 1), (b, a, 0), (c, d, 1), (d, e, 1),
                        (e, c, 0), (e, e, 1), (b, c, 0)))
        assert karp_min_cycle_mean(G) == Fraction(1, 2)
        # two cycles with the same mean 2/4 = 1/2 in one component
        G = SlopeGraph((a, b, c, d),
                       ((a, b, 1), (b, a, 0), (b, c, 1), (c, d, 0),
                        (d, a, 1)))
        assert karp_min_cycle_mean(G) == Fraction(1, 2) == \
            min_cycle_mean_brute(G)
        assert karp_min_cycle_mean(SlopeGraph((a,), ((a, a, 3),))) == 3

    def test_agrees_with_u1_restriction_on_family(self):
        ctx = ctx_for(5, p=2)
        for ints in itertools.product(range(2), repeat=4):
            D = deformation_display(
                ctx, DeformationPoint.from_ints(ctx, 5, ints))
            G = graph_for(D)
            assert karp_min_cycle_mean(G) == min_cycle_slope(G, U(1))


def _random_graph(seed):
    """A seeded graph of 1 to 9 vertices in one to three blocks: edges inside
    a block at random (self-loops included), edges between blocks only
    forward, so every block is its own set of strongly connected
    components.  Weights 0..2 make zero-weight cycles and equal means
    common; every fourth seed keeps only forward edges (a DAG)."""
    rng = random.Random(seed)
    k = rng.randrange(1, 10)
    verts = [U(i) for i in range(k)]
    block = sorted(rng.randrange(3) for _ in verts)
    edges = []
    for i, a in enumerate(verts):
        for j, b in enumerate(verts):
            if block[i] == block[j]:
                keep = rng.random() < 0.3
            else:
                keep = block[i] < block[j] and rng.random() < 0.15
            if keep and (seed % 4 or i < j):
                edges.append((a, b, rng.randrange(3)))
    return SlopeGraph(verts, edges)


def _parallel_graph(seed):
    """_random_graph(seed) with about two in five of its edges doubled, the
    copy next to the original and of its own weight 0..4, so that parallel
    edges of different weights, lighter or heavier first, and of equal
    weights are all common."""
    G = _random_graph(seed)
    rng = random.Random(-1 - seed)
    edges = []
    for a, b, w in G.edges:
        edges.append((a, b, w))
        if rng.random() < 0.4:
            edges.append((a, b, rng.randrange(5)))
    return SlopeGraph(G.vertices, edges)


# every candidate mean weight/length with weight <= 6 and length <= 5
CANDIDATES = sorted({Fraction(w, l) for w in range(7) for l in range(1, 6)})


def _assert_least_mean(G, truth, candidates):
    """Karp's value is the true least mean ``truth`` (None for an acyclic
    graph), and settle_potentials holds at ``truth`` and at every candidate
    below it, and at no candidate above it."""
    assert karp_min_cycle_mean(G) == truth
    for mean in {*candidates, *([truth] if truth is not None else [])}:
        settled = settle_potentials(G, mean.numerator, mean.denominator)
        assert (settled is not None) == (truth is None or mean <= truth), \
            (mean, truth)


class TestLeastCycleMean:
    """What a sweep reads: the settle at a cycle's mean holds exactly when
    no cycle has a smaller mean, and Karp computes the least mean."""

    @pytest.mark.parametrize("seed", range(240))
    def test_random_graphs_against_brute_enumeration(self, seed):
        G = _random_graph(seed)
        truth = min_cycle_mean_brute(G)
        if seed % 4 == 0:
            assert truth is None
        _assert_least_mean(G, truth, CANDIDATES)

    def test_non_reduced_fractions(self):
        # the settle reads weight/length as a mean, not as a pair
        a, b = U(0), U(1)
        G = SlopeGraph((a, b), ((a, b, 1), (b, a, 0), (b, b, 2)))
        assert karp_min_cycle_mean(G) == Fraction(1, 2)
        assert settle_potentials(G, 1, 2) is not None
        assert settle_potentials(G, 3, 6) is not None
        assert settle_potentials(G, 3, 5) is None
        assert settle_potentials(G, 6, 10) is None

    def test_acyclic_and_empty(self):
        G = SlopeGraph((U(1), V(1)), ((U(1), V(1), 0),))
        _assert_least_mean(G, None, CANDIDATES)
        _assert_least_mean(SlopeGraph((), ()), None, CANDIDATES)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_deformation_graph_p2(self, n):
        ctx = ctx_for(n, p=2)
        for ints in itertools.product(range(2), repeat=n - 1):
            G = graph_for(deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints)))
            truth = min_cycle_mean_brute(G)
            full = least_slope_cycle(cycles_through(G, U(1)), U(1))
            # as the sweep asks it: the pair of the least cycle through u_1
            assert (settle_potentials(G, full.weight, full.length)
                    is not None) == (full.slope == truth)
            _assert_least_mean(G, truth, CANDIDATES)

    def test_random_deformation_graphs_n40(self):
        n, p = 40, 3
        ctx = ctx_for(n, p=p)
        rng = random.Random(40)
        for _ in range(20):
            ints = tuple(rng.randrange(p) for _ in range(n - 1))
            G = graph_for(deformation_display(
                ctx, DeformationPoint.from_ints(ctx, n, ints)))
            truth = karp_min_cycle_mean(G)
            full = least_slope_cycle(cycles_through(G, U(1)), U(1))
            assert full.slope == truth
            assert settle_potentials(G, full.weight, full.length) is not None
            # rationals just above and just below the true mean
            near = [Fraction(truth.numerator * m + e, truth.denominator * m)
                    for m in (1, 2, 2 * n) for e in (-1, 1)]
            _assert_least_mean(G, truth, [*CANDIDATES, *near])


class TestParallelEdges:
    """A graph may hold several edges a -> b.  Each is its own step of a
    cycle, with its own weight, and the least mean takes the lightest."""

    def test_lighter_parallel_edge_sets_the_least_mean(self):
        a, b = U(0), U(1)
        G = SlopeGraph((a, b), ((a, b, 0), (a, b, 5), (b, a, 0)))
        assert min_cycle_mean_brute(G) == 0
        _assert_least_mean(G, Fraction(0), CANDIDATES)
        assert _cycle_counter(cycles_through(G, a)) == \
            simple_cycles_through_nx(G, a) == \
            Counter({((a, b), 2, 0): 1, ((a, b), 2, 5): 1})
        assert min_slope_through_nx(G.vertices, G.edges, b) == 0

    @pytest.mark.parametrize("seed", range(120))
    def test_random_graphs_against_brute_enumeration(self, seed):
        # of the 120 seeds, 85 have parallel edges and 70 a cycle; on 19 a
        # brute enumeration that keeps one weight per vertex pair gets the
        # least mean wrong, and on 17 one vertex cycle is two cycles of the
        # same weight
        G = _parallel_graph(seed)
        truth = min_cycle_mean_brute(G)
        _assert_least_mean(G, truth, CANDIDATES)
        for v in G.vertices:
            assert _cycle_counter(cycles_through(G, v)) == \
                simple_cycles_through_nx(G, v)


def _random_tags(G, seed):
    """Tags 0..15 for the edges of G, in edge order (bit 0 is EXTRA), and
    the same tags laid out as cycles_through takes them, parallel to the
    successor lists."""
    rng = random.Random(1000 + seed)
    tags = [rng.randrange(16) for _ in G.edges]
    index = {v: k for k, v in enumerate(G.vertices)}
    succ_tags = [[] for _ in G.vertices]
    for (a, _, _), t in zip(G.edges, tags):
        succ_tags[index[a]].append(t)
    return tags, succ_tags


def _tagged_graphs():
    """The random graphs of TestLeastCycleMean and TestParallelEdges."""
    return [pytest.param(maker, seed, id=f"{maker.__name__}-{seed}")
            for maker in (_random_graph, _parallel_graph)
            for seed in range(0, 240, 2)]


class TestTaggedCycles:
    """A cycle's mask is the OR of its edges' tags, and the cycles whose
    masks avoid some bits are the cycles of the graph without the edges
    tagged with them, in the same order."""

    @pytest.mark.parametrize("maker,seed", _tagged_graphs())
    def test_masks_against_brute_enumeration(self, maker, seed):
        G = maker(seed)
        tags, succ_tags = _random_tags(G, seed)
        for v in G.vertices:
            cycles = cycles_through(G, v, tags=succ_tags)
            assert Counter((c.vertices, c.length, c.weight, c.mask)
                           for c in cycles) == \
                simple_cycles_through_nx(G, v, tags)
            assert [c.kept for c in cycles] == \
                [not c.mask & EXTRA for c in cycles]

    @pytest.mark.parametrize("maker,seed", _tagged_graphs())
    def test_masks_select_the_cycles_of_subgraphs(self, maker, seed):
        G = maker(seed)
        tags, succ_tags = _random_tags(G, seed)
        v = G.vertices[0]
        cycles = cycles_through(G, v, tags=succ_tags)
        for zero in range(16):
            sub = SlopeGraph(G.vertices, [e for e, t in zip(G.edges, tags)
                                          if not t & zero])
            assert [(c.path, c.weight) for c in cycles
                    if not c.mask & zero] == \
                [(c.path, c.weight) for c in cycles_through(sub, v)]

    @pytest.mark.parametrize("seed", range(0, 120, 3))
    def test_extra_tags_keep_the_cycles_of_the_base_graph(self, seed):
        # EXTRA ORed into parameter tags on the positive-weight edges
        # outside a base set: the kept cycles are those of the graph
        # without those edges, and the other bits are the parameter masks
        G = _parallel_graph(seed)
        rng = random.Random(seed)
        k = len(G.vertices)
        base = {(a, b) for a in range(k) for b in range(k)
                if rng.random() < 0.5}
        index = {v: i for i, v in enumerate(G.vertices)}
        base_graph = SlopeGraph(G.vertices, [
            (a, b, w) for a, b, w in G.edges
            if w == 0 or (index[a], index[b]) in base])
        _, succ_tags = _random_tags(G, seed)
        succ_tags = [[t & ~EXTRA for t in row] for row in succ_tags]
        for v in G.vertices:
            tagged = cycles_through(G, v, _extra_tags(G, base, succ_tags))
            untagged = cycles_through(G, v, tags=succ_tags)
            assert [(c.path, c.weight) for c in tagged] == \
                [(c.path, c.weight) for c in untagged]
            assert _cycle_counter(c for c in tagged if c.kept) == \
                simple_cycles_through_nx(base_graph, v)
            assert [c.mask & ~EXTRA for c in tagged] == \
                [c.mask for c in untagged]


class TestSettlePotentials:
    """settle_potentials returns potentials exactly when no cycle has a
    mean below the value, and they then satisfy every reweighted edge."""

    @pytest.mark.parametrize("maker,seed", _tagged_graphs())
    def test_against_brute_enumeration(self, maker, seed):
        G = maker(seed)
        truth = min_cycle_mean_brute(G)
        near = [] if truth is None else [truth, truth - Fraction(1, 7),
                                         truth + Fraction(1, 7)]
        for mean in {*CANDIDATES, *near}:
            w, l = mean.numerator, mean.denominator
            pi = settle_potentials(G, w, l)
            assert (pi is not None) == (truth is None or truth >= mean)
            if pi is not None:
                index = {v: k for k, v in enumerate(G.vertices)}
                assert all(pi[index[b]] <= pi[index[a]] + x * l - w
                           for a, b, x in G.edges)

    def test_empty_graph_settles(self):
        assert settle_potentials(SlopeGraph((), ()), 0, 1) == []


class TestDot:
    def test_M7_dot(self):
        ctx = ctx_for(7)
        text = to_dot(graph_for(module_M(ctx, 7)), context=ctx,
                      version="0.1.0")
        assert text.count("->") == 14
        assert text.count('"u') + text.count('"v') >= 14
        assert "color=gray" in text and 'label="1"' in text

    def test_zero_deformation_matches_supersingular(self):
        for n in (5, 6):
            ctx = ctx_for(n)
            pt = DeformationPoint.from_ints(ctx, n, (0,) * (n - 1))
            d_def = to_dot(graph_for(deformation_display(ctx, pt)),
                           context=ctx)
            d_ss = to_dot(graph_for(supersingular_module(ctx, n)),
                          context=ctx)
            assert d_def == d_ss

    def test_extra_edge_rendered(self):
        ctx = ctx_for(3)
        D = deformation_display(ctx,
                                DeformationPoint.from_ints(ctx, 3, (1, 0)))
        text = to_dot(graph_for(D))
        assert '"v3" -> "u1" [color=gray];' in text

    def test_min_newton_vs_cycles_on_modules(self):
        # the cycle bound holds on the monomial displays
        for m in range(2, 8):
            D = module_M(ctx_for(m), m)
            G = graph_for(D)
            mn = newton_slopes(D).min_slope()
            assert all(mn <= c.slope for c in cycles_through(G, U(1)))
