"""Sequential CPU reference implementations — correctness oracles.

These are textbook algorithms, written for clarity and independence
from the vertex-centric engines: Dijkstra for SSSP, a Dijkstra variant
for widest paths, queue BFS, union-find connected components, Brandes
betweenness centrality, and power-iteration PageRank.  Every engine
result in the test suite is compared against these.

Only :mod:`repro.graph` is imported here, so any module in the library
may use an oracle without creating import cycles.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

#: value used for "unreached" in distance arrays.
UNREACHED = np.inf


def _weights_or_ones(graph: CSRGraph) -> np.ndarray:
    if graph.weights is not None:
        return graph.weights
    return np.ones(graph.num_edges, dtype=np.float64)


def reference_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable nodes get ``inf``."""
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} out of range")
    dist = np.full(graph.num_nodes, UNREACHED)
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        next_dist = dist[node] + 1.0
        for nbr in graph.neighbors(node):
            if dist[nbr] == UNREACHED:
                dist[nbr] = next_dist
                queue.append(int(nbr))
    return dist


def reference_sssp(graph: CSRGraph, source: int) -> np.ndarray:
    """Dijkstra shortest-path distances from ``source``.

    Unweighted graphs are treated as unit-weight.  Zero-weight edges
    (dumb weights on transformed graphs) are handled correctly —
    Dijkstra only requires non-negative weights.
    """
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} out of range")
    weights = _weights_or_ones(graph)
    if len(weights) and weights.min() < 0:
        raise GraphError("Dijkstra requires non-negative edge weights")
    dist = np.full(graph.num_nodes, UNREACHED)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        start, end = graph.edge_range(node)
        for slot in range(start, end):
            nbr = int(graph.targets[slot])
            alt = d + weights[slot]
            if alt < dist[nbr]:
                dist[nbr] = alt
                heapq.heappush(heap, (alt, nbr))
    return dist


def reference_sswp(graph: CSRGraph, source: int) -> np.ndarray:
    """Single-source widest path (maximum bottleneck) from ``source``.

    The width of a path is its minimum edge weight; each node's value
    is the maximum width over all paths from the source.  The source
    itself has width ``inf``; unreachable nodes have width ``-inf``.
    A max-heap Dijkstra variant.
    """
    if not 0 <= source < graph.num_nodes:
        raise GraphError(f"source {source} out of range")
    weights = _weights_or_ones(graph)
    width = np.full(graph.num_nodes, -np.inf)
    width[source] = np.inf
    heap = [(-np.inf, source)]  # negated for max-heap behaviour
    while heap:
        neg_w, node = heapq.heappop(heap)
        w = -neg_w
        if w < width[node]:
            continue
        start, end = graph.edge_range(node)
        for slot in range(start, end):
            nbr = int(graph.targets[slot])
            alt = min(w, weights[slot])
            if alt > width[nbr]:
                width[nbr] = alt
                heapq.heappush(heap, (-alt, nbr))
    return width


def reference_connected_components(graph: CSRGraph) -> np.ndarray:
    """Weakly connected component labels via union-find.

    Each node's label is the smallest node id in its component —
    matching the fixed point of min-label propagation, so engine
    results are directly comparable.
    """
    parent = np.arange(graph.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, int(parent[x])
        return root

    for src, dst in zip(graph.edge_sources(), graph.targets):
        ra, rb = find(int(src)), find(int(dst))
        if ra != rb:
            # union by smaller id so labels are canonical minima
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return np.asarray([find(i) for i in range(graph.num_nodes)], dtype=np.int64)


def reference_bc(graph: CSRGraph, source: Optional[int] = None) -> np.ndarray:
    """Betweenness centrality via Brandes' algorithm (unweighted).

    With ``source`` given, returns the single-source dependency
    contribution (what the GPU frameworks compute per traversal);
    with ``source=None``, accumulates over all sources — exact BC up
    to the conventional factor.
    """
    n = graph.num_nodes
    centrality = np.zeros(n, dtype=np.float64)
    sources = range(n) if source is None else [source]
    for s in sources:
        if not 0 <= s < n:
            raise GraphError(f"source {s} out of range")
        # Forward phase: BFS computing sigma (shortest-path counts).
        sigma = np.zeros(n, dtype=np.float64)
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        order = []
        queue = deque([s])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nbr in graph.neighbors(node):
                nbr = int(nbr)
                if dist[nbr] < 0:
                    dist[nbr] = dist[node] + 1
                    queue.append(nbr)
                if dist[nbr] == dist[node] + 1:
                    sigma[nbr] += sigma[node]
        # Backward phase: dependency accumulation in reverse BFS order.
        delta = np.zeros(n, dtype=np.float64)
        for node in reversed(order):
            for nbr in graph.neighbors(node):
                nbr = int(nbr)
                if dist[nbr] == dist[node] + 1 and sigma[nbr] > 0:
                    delta[node] += sigma[node] / sigma[nbr] * (1.0 + delta[nbr])
            if node != s:
                centrality[node] += delta[node]
    return centrality


def reference_pagerank(
    graph: CSRGraph,
    *,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Power-iteration PageRank with uniform teleport.

    Dangling nodes (outdegree 0) redistribute their rank uniformly,
    the standard convention.  Iterates to an L1 fixed point.
    """
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    degrees = graph.out_degrees().astype(np.float64)
    dangling = degrees == 0
    sources = graph.edge_sources()
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        contrib = np.zeros(n, dtype=np.float64)
        push = rank[sources] * (1.0 / degrees[sources])  # the engine's inv_deg
        np.add.at(contrib, graph.targets, push)
        dangling_mass = rank[dangling].sum() / n
        new_rank = (1.0 - damping) / n + damping * (contrib + dangling_mass)
        if np.abs(new_rank - rank).sum() < tolerance:
            return new_rank
        rank = new_rank
    return rank
