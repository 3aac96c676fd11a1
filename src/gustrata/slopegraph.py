"""The weighted successor graph of a display and its cycle slopes.

Vertices are basis labels; there is an edge x -> y of weight w exactly when
the y-coefficient of F x has valuation w below the working precision.  For
the zero-parameter displays this is a disjoint union of cycles whose
gray/black coloring is weight 0 / weight 1.  The minimum slope
(weight/length) over cycles through u_1 is the combinatorial slope
algorithm, independent of the characteristic polynomial route; Karp's
global minimum cycle mean is included as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import strongly_connected_components

__all__ = [
    "SlopeGraph", "CycleSummary", "build_graph", "cycles_through",
    "min_cycle_slope", "cycle_decomposition", "karp_min_cycle_mean",
    "to_dot",
]


@dataclass(frozen=True)
class CycleSummary:
    """A simple cycle: vertex sequence (start not repeated), edge count,
    total weight, and exact slope weight/length."""
    vertices: tuple
    length: int
    weight: int

    @property
    def slope(self):
        return Fraction(self.weight, self.length)

    def to_json(self):
        return {"vertices": [str(v) for v in self.vertices],
                "length": self.length, "weight": self.weight}


class SlopeGraph:
    """Directed graph on basis labels with p-valuation edge weights."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)  # (src label, dst label, weight)
        adj = {v: [] for v in self.vertices}
        for src, dst, w in self.edges:
            adj[src].append((dst, w))
        self._adj = adj

    def successors(self, v):
        return tuple(self._adj[v])

    def out_degree(self, v):
        return len(self._adj[v])

    def subgraph_edges(self, keep):
        """New graph on the same vertices with the filtered edge list."""
        return SlopeGraph(self.vertices,
                          tuple(e for e in self.edges if keep(e)))

    def to_json(self):
        return {"vertices": [str(v) for v in self.vertices],
                "edges": [{"from": str(a), "to": str(b), "weight": w}
                          for a, b, w in self.edges]}

    def __repr__(self):
        return (f"SlopeGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


def build_graph(display):
    """One edge per nonzero F-matrix entry, weighted by valuation; edges are
    emitted column-major (by source, then target) for determinism.  A
    stored entry is nonzero mod p^N, so its valuation is below N."""
    val = display._ops().val
    basis = display.basis
    edges = [(basis[j], basis[i], val(a))
             for j, col in enumerate(display.sparse_frobenius)
             for i, a in col]
    return SlopeGraph(basis, edges)


def cycles_through(graph, v):
    """All simple cycles containing v, by depth-first search over simple
    paths starting at v; deterministic order (edge insertion order)."""
    if v not in graph._adj:
        raise ValueError(f"vertex {v} not in graph")
    cycles = []
    path = [v]
    weights = []
    on_path = {v}

    def walk(cur):
        for nxt, w in graph._adj[cur]:
            if nxt == v:
                cycles.append(CycleSummary(tuple(path), len(path),
                                           sum(weights) + w))
            elif nxt not in on_path:
                path.append(nxt)
                weights.append(w)
                on_path.add(nxt)
                walk(nxt)
                on_path.discard(nxt)
                weights.pop()
                path.pop()

    walk(v)
    return cycles


def min_cycle_slope(graph, v):
    """Minimum of weight/length over all simple cycles through v."""
    cycles = cycles_through(graph, v)
    if not cycles:
        raise RuntimeError(
            f"no cycles through {v}: anomalous graph for a valid display")
    return min(c.slope for c in cycles)


def cycle_decomposition(graph):
    """Cycle cover of a functional graph (every out-degree exactly 1).

    The zero-parameter displays are monomial, so their graphs decompose
    into disjoint cycles; returns the list of CycleSummary.  Raises when
    some vertex branches.
    """
    for v in graph.vertices:
        if graph.out_degree(v) != 1:
            raise ValueError(
                f"vertex {v} has out-degree {graph.out_degree(v)}; "
                "cycle decomposition needs a functional graph")
    seen = set()
    cycles = []
    for start in graph.vertices:
        if start in seen:
            continue
        trail = []
        weights = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            trail.append(cur)
            nxt, w = graph._adj[cur][0]
            weights.append(w)
            cur = nxt
        if cur in trail:
            k = trail.index(cur)
            cycles.append(CycleSummary(tuple(trail[k:]), len(trail) - k,
                                       sum(weights[k:])))
    return cycles


def karp_min_cycle_mean(graph):
    """Global minimum cycle mean over the whole graph (Karp), as an exact
    Fraction; None when the graph is acyclic.  Cross-check oracle for the
    u_1-restricted minimum."""
    comps = _strongly_connected_components(graph)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    nodes = [[] for _ in comps]
    for v in graph.vertices:
        nodes[comp_of[v]].append(v)
    inner = [[] for _ in comps]
    for a, b, w in graph.edges:
        if comp_of[a] == comp_of[b]:
            inner[comp_of[a]].append((a, b, w))
    best = None
    for comp_nodes, edges in zip(nodes, inner):
        # a component without inner edges is one vertex without a loop
        if edges:
            mu = _karp_scc(comp_nodes, edges)
            if mu is not None and (best is None or mu < best):
                best = mu
    return best


def _strongly_connected_components(graph):
    """Tarjan's algorithm on the labels: a list of vertex sets."""
    index = {v: k for k, v in enumerate(graph.vertices)}
    comps = strongly_connected_components(
        [[index[dst] for dst, _ in graph._adj[v]] for v in graph.vertices])
    return [{graph.vertices[k] for k in comp} for comp in comps]


def _karp_scc(nodes, edges):
    """Minimum cycle mean of one strongly connected component, given its
    vertices in graph order and its inner edges."""
    k = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    edges = [(pos[a], pos[b], w) for a, b, w in edges]
    inf = None
    # dist[t][v] = min weight of a t-edge walk from nodes[0] to v
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
    return None if best is None else Fraction(*best)


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
