"""Constructing :class:`~repro.graph.csr.CSRGraph` from edge data.

These helpers accept Python iterables or numpy arrays in coordinate
(COO) form, clean them up (dedup, self-loop removal) and pack them
into CSR.  All functions are pure: they never mutate their inputs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, NODE_DTYPE, WEIGHT_DTYPE

EdgeLike = Union[Tuple[int, int], Tuple[int, int, float], Sequence[float]]


def from_edge_list(
    edges: Iterable[EdgeLike],
    num_nodes: Optional[int] = None,
    *,
    weighted: Optional[bool] = None,
) -> CSRGraph:
    """Build a graph from an iterable of ``(src, dst)`` or ``(src, dst, w)``.

    Parameters
    ----------
    edges:
        Edge tuples.  A mix of 2-tuples and 3-tuples is rejected.
    num_nodes:
        Total node count.  Defaults to ``max endpoint + 1``.
    weighted:
        Force a weighted (3-tuple) or unweighted (2-tuple)
        interpretation.  By default it is inferred from the first edge.

    Returns
    -------
    CSRGraph
        Edges are sorted by source; the relative order of a node's
        edges follows their order in ``edges`` (stable).
    """
    edge_list = list(edges)
    if not edge_list:
        n = int(num_nodes or 0)
        offsets = np.zeros(n + 1, dtype=NODE_DTYPE)
        targets = np.zeros(0, dtype=NODE_DTYPE)
        w = np.zeros(0, dtype=WEIGHT_DTYPE) if weighted else None
        return CSRGraph(offsets, targets, w)

    arity = len(edge_list[0])
    if weighted is None:
        weighted = arity == 3
    expected = 3 if weighted else 2
    if any(len(e) != expected for e in edge_list):
        raise GraphError(
            f"all edges must have arity {expected} "
            f"({'weighted' if weighted else 'unweighted'} graph)"
        )

    arr = np.asarray(edge_list, dtype=np.float64)
    sources = arr[:, 0].astype(NODE_DTYPE)
    targets = arr[:, 1].astype(NODE_DTYPE)
    if np.any(arr[:, 0] != sources) or np.any(arr[:, 1] != targets):
        raise GraphError("edge endpoints must be integers")
    weights = arr[:, 2].astype(WEIGHT_DTYPE) if weighted else None
    return from_arrays(sources, targets, weights, num_nodes=num_nodes)


def from_arrays(
    sources: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    num_nodes: Optional[int] = None,
) -> CSRGraph:
    """Build a graph from parallel COO arrays.

    Edges are stably sorted by source node; per-node edge order is the
    input order, which matters for the deterministic edge mapping of
    virtual transformations (Figure 10).
    """
    sources = np.asarray(sources, dtype=NODE_DTYPE)
    targets = np.asarray(targets, dtype=NODE_DTYPE)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise GraphError("sources and targets must be 1-D arrays of equal length")
    if weights is not None:
        weights = np.asarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != sources.shape:
            raise GraphError("weights must parallel the edge arrays")
    if len(sources):
        if sources.min() < 0 or targets.min() < 0:
            raise GraphError("edge endpoints must be non-negative")
        inferred = int(max(sources.max(), targets.max())) + 1
    else:
        inferred = 0
    n = int(num_nodes) if num_nodes is not None else inferred
    if n < inferred:
        raise GraphError(
            f"num_nodes={n} too small for endpoints up to {inferred - 1}"
        )

    order = np.argsort(sources, kind="stable")
    sorted_targets = targets[order]
    sorted_weights = None if weights is None else weights[order]
    counts = np.bincount(sources, minlength=n)
    offsets = np.zeros(n + 1, dtype=NODE_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return CSRGraph(offsets, sorted_targets, sorted_weights, validate=False)


def to_undirected(graph: CSRGraph) -> CSRGraph:
    """Symmetrise: ensure every edge exists in both directions.

    The paper treats undirected graphs as directed graphs carrying both
    directions of each edge; parallel edges collapse, keeping the
    minimum weight.  Each row holds its node's out- and in-neighbours
    once, in one of two orders, a contract ``prepare_graph``'s compiled
    ``symmetrize`` matches byte for byte: ascending on a weighted graph;
    on an unweighted one, the out-row in CSR order, then the
    in-neighbours not in it, ascending.
    """
    src, dst, w = graph.to_coo()
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    all_w = None if w is None else np.concatenate([w, w])
    merged = from_arrays(all_src, all_dst, all_w, num_nodes=graph.num_nodes)
    return deduplicate_edges(merged, keep="min")


def deduplicate_edges(graph: CSRGraph, *, keep: str = "first") -> CSRGraph:
    """Collapse parallel edges.

    Parameters
    ----------
    keep:
        For weighted graphs, which weight survives among duplicates:
        ``"first"`` (input order), ``"min"``, or ``"max"``.
    """
    if keep not in ("first", "min", "max"):
        raise GraphError(f"unknown keep policy: {keep!r}")
    src, dst, w = graph.to_coo()
    if not len(src):
        return graph
    key = src * graph.num_nodes + dst
    if w is None or keep == "first":
        _, index = np.unique(key, return_index=True)
        index.sort()
        return from_arrays(src[index], dst[index], None if w is None else w[index],
                           num_nodes=graph.num_nodes)
    order = np.argsort(key, kind="stable")
    sorted_key, sorted_w = key[order], w[order]
    group_start = np.concatenate([[True], sorted_key[1:] != sorted_key[:-1]])
    group_id = np.cumsum(group_start) - 1
    num_groups = group_id[-1] + 1
    fill = np.inf if keep == "min" else -np.inf
    best = np.full(num_groups, fill, dtype=WEIGHT_DTYPE)
    if keep == "min":
        np.minimum.at(best, group_id, sorted_w)
    else:
        np.maximum.at(best, group_id, sorted_w)
    rep_index = order[np.flatnonzero(group_start)]
    return from_arrays(src[rep_index], dst[rep_index], best, num_nodes=graph.num_nodes)


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Drop every edge whose source equals its destination."""
    src, dst, w = graph.to_coo()
    mask = src != dst
    return from_arrays(src[mask], dst[mask], None if w is None else w[mask],
                       num_nodes=graph.num_nodes)


def relabel(graph: CSRGraph, permutation: np.ndarray) -> CSRGraph:
    """Rename nodes: new id of node ``v`` is ``permutation[v]``.

    ``permutation`` must be a bijection over ``range(num_nodes)``.
    """
    perm = np.asarray(permutation, dtype=NODE_DTYPE)
    n = graph.num_nodes
    if perm.shape != (n,):
        raise GraphError(f"permutation must have shape ({n},)")
    seen = np.zeros(n, dtype=bool)
    if len(perm) and (perm.min() < 0 or perm.max() >= n):
        raise GraphError("permutation values out of range")
    seen[perm] = True
    if not seen.all():
        raise GraphError("permutation is not a bijection")
    src, dst, w = graph.to_coo()
    return from_arrays(perm[src], perm[dst], w, num_nodes=n)
