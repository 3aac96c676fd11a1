"""The weighted successor graph of a display and its cycle slopes.

Vertices are basis labels; there is an edge x -> y of weight w exactly when
the y-coefficient of F x has valuation w below the working precision.  For
the zero-parameter displays this is a disjoint union of cycles whose
gray/black coloring is weight 0 / weight 1.  The minimum slope
(weight/length) over cycles through u_1 is the combinatorial slope
algorithm, independent of the characteristic polynomial route.
Potentials (``settle_potentials``, a few O(E) Bellman-Ford rounds) show
that no cycle has a mean below a given value, and Karp's algorithm
(``karp_min_cycle_mean``) computes the global minimum cycle mean in
O(V * E).

Inside, a graph is integer successor lists over the positions of its
vertex tuple, and every traversal (cycle enumeration, Tarjan,
Bellman-Ford, Karp) runs on those integers; labels are looked up
only for output and for the label API (``edges``, ``successors``,
``to_json``, ``to_dot``, ``CycleSummary.vertices``).  Slopes are compared
as cross-multiplied (weight, length) pairs; a ``Fraction`` is built only
for a value that is returned or reported.

One enumeration serves every subgraph.  The simple cycles of a subgraph
are exactly the cycles of the full graph all of whose edges it keeps, and
a depth-first search that skips the deleted edges meets them in the same
order.  So ``cycles_through`` gives each cycle the OR of its edges'
integer tags: a cycle lies in the subgraph that deletes the edges tagged
with some bits exactly when its mask avoids those bits.  The caller's
tags may include the bit EXTRA, and a cycle without it is kept: the least
slope of the graph without the EXTRA edges is the least slope among the
kept cycles.  A sweep enumerates once, on the deformation
template's graph, and reads each point's cycles off the masks (see
``strata``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import strongly_connected_components

__all__ = [
    "SlopeGraph", "CycleSummary", "build_graph", "cycles_through",
    "least_slope_cycle", "min_cycle_slope", "cycle_decomposition",
    "settle_potentials", "karp_min_cycle_mean",
    "to_dot", "EXTRA",
]

# The tag bit of an extra edge: a cycle is kept when its mask lacks it.
EXTRA = 1


@dataclass(slots=True)
class CycleSummary:
    """A simple cycle: the positions ``path`` of its vertices in the graph's
    vertex tuple ``labels`` (start not repeated), total weight, and the OR
    of its edges' tags (see ``cycles_through``)."""
    labels: tuple = field(repr=False, compare=False)
    path: tuple
    weight: int
    mask: int = 0

    @property
    def kept(self):
        """Whether no edge of the cycle carries the bit EXTRA."""
        return not self.mask & EXTRA

    @property
    def vertices(self):
        labels = self.labels
        return tuple(labels[k] for k in self.path)

    @property
    def length(self):
        return len(self.path)

    @property
    def slope(self):
        return Fraction(self.weight, self.length)

    def to_json(self):
        return {"vertices": [str(v) for v in self.vertices],
                "length": self.length, "weight": self.weight}


class SlopeGraph:
    """Directed graph on basis labels with p-valuation edge weights.

    Stored as integer successor lists: ``_succ[k]`` holds the
    ``(target position, weight)`` pairs of the edges leaving
    ``vertices[k]``, in edge order.  Every traversal runs on these lists;
    labels appear only in ``edges`` (whose label triples are built on
    first use), ``successors``, ``to_json`` and ``to_dot``.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self._edges = tuple(edges)  # (src label, dst label, weight)
        index = {v: k for k, v in enumerate(self.vertices)}
        self._succ = [[] for _ in self.vertices]
        for src, dst, w in self._edges:
            self._succ[index[src]].append((index[dst], w))

    @classmethod
    def _from_successors(cls, vertices, succ):
        """The graph with integer successor lists ``succ``; its edges are
        listed by source, then in successor order."""
        graph = cls.__new__(cls)
        graph.vertices = tuple(vertices)
        graph._edges = None
        graph._succ = succ
        return graph

    @property
    def edges(self):
        if self._edges is None:
            labels = self.vertices
            self._edges = tuple((labels[a], labels[b], w)
                                for a, row in enumerate(self._succ)
                                for b, w in row)
        return self._edges

    def _position(self, v):
        """The index of vertex v in ``vertices``."""
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"vertex {v} not in graph") from None

    def successors(self, v):
        labels = self.vertices
        row = self._succ[self._position(v)]
        return tuple((labels[b], w) for b, w in row)

    def out_degree(self, v):
        return len(self._succ[self._position(v)])

    def to_json(self):
        return {"vertices": [str(v) for v in self.vertices],
                "edges": [{"from": str(a), "to": str(b), "weight": w}
                          for a, b, w in self.edges]}

    def __repr__(self):
        return (f"SlopeGraph({len(self.vertices)} vertices, "
                f"{sum(map(len, self._succ))} edges)")


def build_graph(display):
    """One edge per nonzero F-matrix entry, weighted by valuation; edges are
    emitted column-major (by source, then target) for determinism.  A
    stored entry is nonzero mod p^N, so its valuation is below N."""
    val = display._ops().val
    return SlopeGraph._from_successors(
        display.basis,
        [[(i, val(a)) for i, a in col] for col in display.sparse_frobenius])


def cycles_through(graph, v, tags=None):
    """All simple cycles containing v, by depth-first search over simple
    paths starting at v; deterministic order (edge insertion order).

    Each cycle's ``mask`` is the OR of its edges' tags.  ``tags[a][i]``,
    when given, is the tag of the i-th edge leaving position a; without
    tags every tag is 0 and every cycle is kept.  The search is iterative,
    with one successor iterator per path vertex, so cycles of any length
    are found without recursion.
    """
    start = graph._position(v)
    labels = graph.vertices
    succ = []
    for a, row in enumerate(graph._succ):
        trow = itertools.repeat(0) if tags is None else tags[a]
        succ.append([(b, w, t) for (b, w), t in zip(row, trow)])
    cycles = []
    path = [start]
    on_path = [False] * len(succ)
    on_path[start] = True
    # one frame per path vertex: its successor iterator, the weight of the
    # path up to it, and the OR of the tags of the edges on the way
    frames = [(iter(succ[start]), 0, 0)]
    while frames:
        it, total, mask = frames[-1]
        for b, w, t in it:
            if b == start:
                t |= mask
                cycles.append(CycleSummary(labels, tuple(path), total + w,
                                           t))
            elif not on_path[b]:
                on_path[b] = True
                path.append(b)
                frames.append((iter(succ[b]), total + w, mask | t))
                break
        else:
            frames.pop()
            on_path[path.pop()] = False
    return cycles


def least_slope_cycle(cycles, v):
    """The first cycle of least slope among ``cycles`` (the cycles through
    v); slopes are compared by cross-multiplying.  Raises RuntimeError
    when there is no cycle."""
    best = None
    for c in cycles:
        if best is None or c.weight * best.length < best.weight * c.length:
            best = c
    if best is None:
        raise RuntimeError(
            f"no cycles through {v}: anomalous graph for a valid display")
    return best


def min_cycle_slope(graph, v):
    """Minimum of weight/length over all simple cycles through v."""
    return least_slope_cycle(cycles_through(graph, v), v).slope


def cycle_decomposition(graph):
    """Cycle cover of a functional graph (every out-degree exactly 1).

    The zero-parameter displays are monomial, so their graphs decompose
    into disjoint cycles; returns the list of CycleSummary.  Raises when
    some vertex branches.
    """
    succ = graph._succ
    for k, row in enumerate(succ):
        if len(row) != 1:
            raise ValueError(
                f"vertex {graph.vertices[k]} has out-degree {len(row)}; "
                "cycle decomposition needs a functional graph")
    seen = [False] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        trail = []
        weights = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            trail.append(cur)
            cur, w = succ[cur][0]
            weights.append(w)
        if cur in trail:
            k = trail.index(cur)
            cycles.append(CycleSummary(graph.vertices, tuple(trail[k:]),
                                       sum(weights[k:])))
    return cycles


def settle_potentials(graph, weight, length):
    """Potentials pi showing that every cycle of the graph has mean at
    least weight/length (length > 0), or None when some cycle has a
    smaller mean.

    Reweight every edge a -> b of weight w to w' = w * length - weight, so
    that a cycle's mean is below, at or above weight/length as its w'-sum
    is negative, 0 or positive.  Bellman-Ford from a virtual source joined
    to every vertex by a 0-edge starts every potential pi at 0; each round
    relaxes the edges of the vertices lowered in the round before (of all
    vertices in the first).  A round that lowers nothing leaves
    pi(b) <= pi(a) + w' on every edge, and summed around a cycle the
    potentials cancel, so every cycle has w'-sum >= 0: mean >= weight/length.
    Without a cycle of negative w'-sum a shortest path has fewer than k
    edges (k vertices), so round k at the latest lowers nothing; a graph
    still lowered in round k + 1 has a cycle of smaller mean.
    """
    succ = graph._succ
    k = len(succ)
    pi = [0] * k
    active = range(k)
    for _ in range(k + 1):
        queued = [False] * k
        lowered = []
        for a in active:
            pa = pi[a] - weight
            for b, w in succ[a]:
                t = pa + w * length
                if t < pi[b]:
                    pi[b] = t
                    if not queued[b]:
                        queued[b] = True
                        lowered.append(b)
        if not lowered:
            return pi
        active = lowered
    return None


def karp_min_cycle_mean(graph):
    """Global minimum cycle mean over the whole graph (Karp), as an exact
    Fraction; None when the graph is acyclic.  Sweeps call it at every
    point only where ``settle_potentials`` cannot show, once for the whole
    sweep, that the least slope through u_1 is the global minimum, and
    report its value where the two differ."""
    succ = graph._succ
    comps = strongly_connected_components([[b for b, _ in row]
                                           for row in succ])
    best = None
    for comp in comps:
        # positions within the component, and its inner edges; a component
        # without inner edges is one vertex without a loop
        pos = {a: i for i, a in enumerate(comp)}
        edges = [(pos[a], pos[b], w) for a in comp for b, w in succ[a]
                 if b in pos]
        if edges:
            mean = _karp_scc(len(comp), edges)
            if best is None or mean[0] * best[1] < best[0] * mean[1]:
                best = mean
    return None if best is None else Fraction(*best)


def _karp_scc(k, edges):
    """Minimum cycle mean of one strongly connected component on positions
    0..k-1, given its inner edges, as a (numerator, positive denominator)
    pair."""
    inf = None
    # dist[t][v] = min weight of a t-edge walk from position 0 to v
    dist = [[inf] * k for _ in range(k + 1)]
    dist[0][0] = 0
    for t in range(1, k + 1):
        row = dist[t]
        prev = dist[t - 1]
        for a, b, w in edges:
            da = prev[a]
            if da is not None and (row[b] is None or da + w < row[b]):
                row[b] = da + w
    # the mean (dv - dt) / (k - t) as a (numerator, positive denominator)
    # pair, compared by cross-multiplying: max over t, then min over v
    best = None
    last = dist[k]
    for v in range(k):
        dv = last[v]
        if dv is None:
            continue
        worst = None
        for t in range(k):
            dt = dist[t][v]
            if dt is None:
                continue
            num, den = dv - dt, k - t
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (
                best is None or worst[0] * best[1] < best[0] * worst[1]):
            best = worst
    return best


def to_dot(graph, context=None, version=None):
    """Graphviz text: weight-0 edges gray, heavier edges black with weight
    labels.  Output depends only on the graph (plus the context stamp), so
    displays with identical graphs produce identical DOT."""
    lines = ["digraph slope_graph {"]
    if context is not None:
        stamp = (f"p={context.p} d={context.d} N={context.N} "
                 f"modulus={list(context.modulus) + [1]}")
        if version is not None:
            stamp += f" version={version}"
        lines.append(f"  // {stamp}")
    lines.append("  rankdir=LR;")
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for a, b, w in graph.edges:
        if w == 0:
            lines.append(f'  "{a}" -> "{b}" [color=gray];')
        else:
            lines.append(f'  "{a}" -> "{b}" [color=black, label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
