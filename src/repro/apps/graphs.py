"""Directed weighted graphs: the inputs of the shortest-path ACOs.

Includes the paper's experimental input — a 34-vertex unit-weight chain —
plus rings, 2-D grids, complete graphs and Erdős-Rényi random graphs for
the topology ablation E-ABL-TOPO, and the reference algorithms
(Floyd-Warshall, BFS hop distances, Dijkstra) used as ground truth.
"""

import heapq
import math
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sim.rng import RngRegistry

INF = math.inf


class Graph:
    """A directed graph with positive edge weights."""

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 1:
            raise ValueError(f"need at least one vertex, got {num_vertices}")
        self.n = num_vertices
        self._adj: List[Dict[int, float]] = [{} for _ in range(num_vertices)]
        self._pred: List[Dict[int, float]] = [{} for _ in range(num_vertices)]

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or overwrite) the directed edge u -> v."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) escapes vertices 0..{self.n - 1}")
        if weight <= 0:
            raise ValueError(f"edge weights must be positive, got {weight}")
        if u == v:
            raise ValueError(f"self-loop on vertex {u} not allowed")
        self._adj[u][v] = weight
        self._pred[v][u] = weight

    def add_undirected_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add edges in both directions."""
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def successors(self, u: int) -> Dict[int, float]:
        """Outgoing edges of ``u`` as {vertex: weight}."""
        return dict(self._adj[u])

    def predecessors(self, v: int) -> Dict[int, float]:
        """Incoming edges of ``v`` as {vertex: weight}."""
        return dict(self._pred[v])

    def weight(self, u: int, v: int) -> float:
        """Weight of edge u -> v, or infinity when absent."""
        return self._adj[u].get(v, INF)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """All edges as (u, v, weight)."""
        for u in range(self.n):
            for v, w in self._adj[u].items():
                yield u, v, w

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(adj) for adj in self._adj)

    # ------------------------------------------------------------------ #
    # Reference algorithms
    # ------------------------------------------------------------------ #

    def adjacency_matrix(self) -> List[List[float]]:
        """The weight matrix with 0 diagonal and infinity for non-edges."""
        matrix = [[INF] * self.n for _ in range(self.n)]
        for i in range(self.n):
            matrix[i][i] = 0.0
        for u, v, w in self.edges():
            matrix[u][v] = min(matrix[u][v], w)
        return matrix

    def floyd_warshall(self) -> List[List[float]]:
        """All-pairs shortest path distances (the APSP ground truth)."""
        dist = self.adjacency_matrix()
        for k in range(self.n):
            row_k = dist[k]
            for i in range(self.n):
                d_ik = dist[i][k]
                if d_ik == INF:
                    continue
                row_i = dist[i]
                for j in range(self.n):
                    candidate = d_ik + row_k[j]
                    if candidate < row_i[j]:
                        row_i[j] = candidate
        return dist

    def dijkstra(self, source: int) -> List[float]:
        """Single-source shortest path distances (the SSSP ground truth)."""
        dist = [INF] * self.n
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u].items():
                candidate = d + w
                if candidate < dist[v]:
                    dist[v] = candidate
                    heapq.heappush(heap, (candidate, v))
        return dist

    def bfs_hops(self, source: int) -> List[float]:
        """Hop counts (unweighted distances) from ``source``."""
        hops = [INF] * self.n
        hops[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if hops[v] == INF:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        return hops

    def reachable_from(self, source: int) -> frozenset:
        """Vertices reachable from ``source`` (including itself)."""
        hops = self.bfs_hops(source)
        return frozenset(v for v in range(self.n) if hops[v] < INF)

    def hop_diameter(self) -> int:
        """Max finite hop distance over all ordered pairs.

        This is the d in the paper's convergence bound M = ⌈log₂ d⌉ for
        APSP (for the 34-vertex unit chain, d = 33 and M = 6).
        """
        best = 0
        for source in range(self.n):
            for h in self.bfs_hops(source):
                if h < INF and h > best:
                    best = int(h)
        return best


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #


def chain_graph(n: int, weight: float = 1.0) -> Graph:
    """The paper's input: a directed chain with vertex n-1 the source and
    vertex 0 the sink (edges i+1 -> i), unit weights by default."""
    graph = Graph(n)
    for i in range(n - 1):
        graph.add_edge(i + 1, i, weight)
    return graph


def ring_graph(n: int, weight: float = 1.0) -> Graph:
    """A directed cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 2:
        raise ValueError(f"ring needs at least 2 vertices, got {n}")
    graph = Graph(n)
    for i in range(n):
        graph.add_edge(i, (i + 1) % n, weight)
    return graph


def grid_graph(rows: int, cols: int, weight: float = 1.0) -> Graph:
    """An undirected (bidirectional) rows x cols grid."""
    graph = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                graph.add_undirected_edge(v, v + 1, weight)
            if r + 1 < rows:
                graph.add_undirected_edge(v, v + cols, weight)
    return graph


def complete_graph(n: int, weight: float = 1.0) -> Graph:
    """A complete directed graph."""
    graph = Graph(n)
    for u in range(n):
        for v in range(n):
            if u != v:
                graph.add_edge(u, v, weight)
    return graph


def random_graph(
    n: int,
    edge_probability: float,
    rng: np.random.Generator,
    min_weight: float = 1.0,
    max_weight: float = 1.0,
    ensure_connected: bool = True,
) -> Graph:
    """An Erdős-Rényi digraph, optionally overlaid on a ring for
    strong connectivity (so APSP distances are all finite)."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {edge_probability}")
    if not 0 < min_weight <= max_weight:
        raise ValueError(
            f"need 0 < min_weight <= max_weight, got {min_weight}, {max_weight}"
        )
    graph = Graph(n)

    def draw_weight() -> float:
        if min_weight == max_weight:
            return min_weight
        return float(rng.uniform(min_weight, max_weight))

    if ensure_connected and n >= 2:
        for i in range(n):
            graph.add_edge(i, (i + 1) % n, draw_weight())
    for u in range(n):
        for v in range(n):
            if u == v or v in graph.successors(u):
                continue
            if rng.random() < edge_probability:
                graph.add_edge(u, v, draw_weight())
    return graph


def seeded_random_graph(n: int, p: float, seed: int) -> Graph:
    """:func:`random_graph` from plain data (the ``random`` graph spec):
    edge probability ``p``, drawn from ``seed``'s ``random-graph`` stream."""
    return random_graph(n, p, RngRegistry(seed).stream("random-graph"))


#: Graph spec kinds, built by :func:`repro.specs.build`.
KINDS = {
    "chain": chain_graph,
    "ring": ring_graph,
    "complete": complete_graph,
    "grid": grid_graph,
    "random": seeded_random_graph,
}


def apsp_pseudocycle_bound(graph: Graph) -> Optional[int]:
    """The paper's M = ⌈log₂ d⌉ bound for APSP on ``graph``.

    Returns 1 when the diameter is <= 1 (one pseudocycle suffices) and
    None for a graph with no edges at all.
    """
    d = graph.hop_diameter()
    if d == 0:
        return None
    return max(1, math.ceil(math.log2(d))) if d > 1 else 1
