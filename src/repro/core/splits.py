"""The three reference split transformations of §3.1: clique, circular, star.

These realise Definition 2 with different family connection
topologies, illustrating the Table 1 trade-off between space cost,
irregularity reduction, and value-propagation speed:

============  ==========  ================  ===========
topology      space cost  irregularity red  value prop.
============  ==========  ================  ===========
``T_cliq``    high        low               fast (1 hop)
``T_circ``    low         high              slow (p-1 hops)
``T_star``    low         varies            fast (1 hop)
============  ==========  ================  ===========

Implementation notes
--------------------
* The paper leaves the assignment of the original node's *incoming*
  edges unspecified ("randomly assigned to the split nodes").  We keep
  them all at the family root — a valid member of the transformation
  class that preserves every Table 1 characteristic while keeping node
  ids stable (the root keeps the original id).
* The paper's Table 1 prints ``#new edges = ceil(d/K) - 1`` for the
  circular topology; a circular connection over ``p`` family members
  requires ``p`` edges to be strongly connected (with ``p - 1`` edges
  the last member could never propagate back), so we create the full
  cycle.  The ``max #hops = p - 1`` entry is unchanged.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core._pack import pack_with_mask
from repro.core.types import TransformResult, TransformStats
from repro.core.weights import DumbWeight
from repro.errors import TransformError
from repro.graph.csr import NODE_DTYPE, WEIGHT_DTYPE


def _check_bound(degree_bound: int) -> None:
    if degree_bound < 1:
        raise TransformError(f"degree bound K must be >= 1, got {degree_bound}")


def _chunk_starts(degree: int, chunk: int) -> np.ndarray:
    """Start offsets of the ceil(degree/chunk) edge chunks."""
    return np.arange(0, degree, chunk)


def clique_transform(
    graph,
    degree_bound: int,
    *,
    dumb_weight: DumbWeight = DumbWeight.ZERO,
) -> TransformResult:
    """``T_cliq``: family members form a directed clique.

    A node of degree ``d`` becomes ``p = ceil(d/K)`` family members
    (root + ``p - 1`` new nodes), each owning one chunk of up to ``K``
    original edges plus edges to every other member: ``p(p - 1)`` new
    edges, family degree up to ``K + p - 1``, one hop to cover the
    family.
    """
    _check_bound(degree_bound)

    def build(root, nbr_ids, nbr_weights, k, next_id, dumb_value):
        fam = _FamilyEdges(next_id)
        d = len(nbr_ids)
        starts = _chunk_starts(d, k)
        members = [root] + [fam.new_node() for _ in range(len(starts) - 1)]
        for member, lo in zip(members, starts):
            for t, w in zip(nbr_ids[lo : lo + k], nbr_weights[lo : lo + k]):
                fam.add_edge(member, int(t), float(w), False)
        for a in members:
            for b in members:
                if a != b:
                    fam.add_edge(a, b, dumb_value, True)
        fam.hops = 1 if len(members) > 1 else 0
        return fam

    return _run_split(graph, degree_bound, dumb_weight, build)


def circular_transform(
    graph,
    degree_bound: int,
    *,
    dumb_weight: DumbWeight = DumbWeight.ZERO,
) -> TransformResult:
    """``T_circ``: family members form a directed cycle.

    Best irregularity reduction (family degree ≤ ``K + 1``) at the
    lowest space cost, but values need up to ``p - 1`` hops to travel
    around the family — the slow-convergence corner of the Table 1
    trade-off.
    """
    _check_bound(degree_bound)

    def build(root, nbr_ids, nbr_weights, k, next_id, dumb_value):
        fam = _FamilyEdges(next_id)
        d = len(nbr_ids)
        starts = _chunk_starts(d, k)
        members = [root] + [fam.new_node() for _ in range(len(starts) - 1)]
        for member, lo in zip(members, starts):
            for t, w in zip(nbr_ids[lo : lo + k], nbr_weights[lo : lo + k]):
                fam.add_edge(member, int(t), float(w), False)
        p = len(members)
        if p > 1:
            for i, member in enumerate(members):
                fam.add_edge(member, members[(i + 1) % p], dumb_value, True)
        fam.hops = max(0, p - 1)
        return fam

    return _run_split(graph, degree_bound, dumb_weight, build)


def star_transform(
    graph,
    degree_bound: int,
    *,
    dumb_weight: DumbWeight = DumbWeight.ZERO,
) -> TransformResult:
    """``T_star``: a hub fans out to ``ceil(d/K)`` split nodes.

    The root becomes the hub: it keeps all incoming edges, surrenders
    every original outgoing edge to the split nodes, and gains one
    edge per split node.  One hop covers the family, space cost is
    ``ceil(d/K)`` new nodes/edges, but the hub's own degree
    ``ceil(d/K)`` may still exceed ``K`` — the "hub node issue" that
    motivates UDT (Figure 6).
    """
    _check_bound(degree_bound)

    def build(root, nbr_ids, nbr_weights, k, next_id, dumb_value):
        fam = _FamilyEdges(next_id)
        d = len(nbr_ids)
        for lo in _chunk_starts(d, k):
            split = fam.new_node()
            fam.add_edge(root, split, dumb_value, True)
            for t, w in zip(nbr_ids[lo : lo + k], nbr_weights[lo : lo + k]):
                fam.add_edge(split, int(t), float(w), False)
        fam.hops = 1
        return fam

    return _run_split(graph, degree_bound, dumb_weight, build)


class _FamilyEdges:
    """Mutable edge accumulator for one family under construction."""

    __slots__ = ("first_new_id", "num_new", "src", "dst", "wgt", "mask", "hops")

    def __init__(self, first_new_id: int) -> None:
        self.first_new_id = first_new_id
        self.num_new = 0
        self.src: List[int] = []
        self.dst: List[int] = []
        self.wgt: List[float] = []
        self.mask: List[bool] = []
        self.hops = 0

    def new_node(self) -> int:
        node = self.first_new_id + self.num_new
        self.num_new += 1
        return node

    def add_edge(self, src: int, dst: int, weight: float, is_new: bool) -> None:
        self.src.append(src)
        self.dst.append(dst)
        self.wgt.append(weight)
        self.mask.append(is_new)

    @property
    def num_new_edges(self) -> int:
        return sum(self.mask)


def _run_split(graph, degree_bound, dumb_weight, family_builder) -> TransformResult:
    """Shared driver: apply ``family_builder`` to each high-degree node.

    The clique/circular/star transforms differ only in how a single
    family is wired.
    """
    n = graph.num_nodes
    degrees = graph.out_degrees()
    high = np.flatnonzero(degrees > degree_bound)

    weighted_out = dumb_weight is not DumbWeight.NONE or graph.is_weighted
    if graph.is_weighted:
        base_weights = graph.weights
    else:
        # Promote unweighted input: original edges weigh 1 (BFS hop).
        base_weights = np.ones(graph.num_edges, dtype=WEIGHT_DTYPE)
    if dumb_weight is DumbWeight.NONE:
        dumb_value = 0.0  # written only into weighted outputs (CC ignores)
    else:
        dumb_value = dumb_weight.value_for_new_edges

    # Edges of nodes that are NOT split survive verbatim.
    keep_mask = np.repeat(degrees <= degree_bound, degrees)
    src_parts = [graph.edge_sources()[keep_mask]]
    dst_parts = [graph.targets[keep_mask]]
    wgt_parts = [base_weights[keep_mask]]
    msk_parts = [np.zeros(int(keep_mask.sum()), dtype=bool)]

    next_id = n
    total_new_nodes = 0
    total_new_edges = 0
    max_hops = 0
    origin_tail: List[np.ndarray] = []

    for root in high:
        fam = family_builder(
            int(root),
            graph.neighbors(int(root)),
            base_weights[graph.offsets[root] : graph.offsets[root + 1]],
            degree_bound,
            next_id,
            dumb_value,
        )
        src_parts.append(np.asarray(fam.src, dtype=NODE_DTYPE))
        dst_parts.append(np.asarray(fam.dst, dtype=NODE_DTYPE))
        wgt_parts.append(np.asarray(fam.wgt, dtype=WEIGHT_DTYPE))
        msk_parts.append(np.asarray(fam.mask, dtype=bool))
        if fam.num_new:
            origin_tail.append(np.full(fam.num_new, root, dtype=NODE_DTYPE))
        next_id += fam.num_new
        total_new_nodes += fam.num_new
        total_new_edges += fam.num_new_edges
        max_hops = max(max_hops, fam.hops)

    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    wgt = np.concatenate(wgt_parts) if weighted_out else None
    msk = np.concatenate(msk_parts)
    new_graph, sorted_mask = pack_with_mask(src, dst, wgt, msk, next_id)

    return TransformResult(
        graph=new_graph,
        node_origin=np.concatenate([np.arange(n, dtype=NODE_DTYPE)] + origin_tail),
        new_edge_mask=sorted_mask,
        num_original_nodes=n,
        stats=TransformStats(
            degree_bound=degree_bound,
            num_families=len(high),
            new_nodes=total_new_nodes,
            new_edges=total_new_edges,
            max_degree_after=new_graph.max_out_degree(),
            max_family_hops=max_hops,
        ),
    )
