"""Shared result types for physical split transformations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class TransformStats:
    """Accounting of what a physical transformation did.

    These are the quantities Table 1 tabulates per high-degree node,
    aggregated over the whole graph, plus the space-ratio figures of
    Table 5.
    """

    #: degree bound K the transformation enforced.
    degree_bound: int
    #: number of high-degree nodes (families) that were split.
    num_families: int
    #: split nodes added (``#new nodes`` column of Table 1, summed).
    new_nodes: int
    #: edges added (``#new edges`` column of Table 1, summed).
    new_edges: int
    #: maximum outdegree after the transformation.
    max_degree_after: int
    #: maximum hop count introduced inside any single family
    #: (``max #hops`` column of Table 1 — tree height for UDT).
    max_family_hops: int

    def space_ratio(self, original: CSRGraph, transformed: CSRGraph) -> float:
        """Size of the transformed CSR relative to the original (Table 5).

        Counted in CSR storage words: one word per node offset entry
        plus one word per edge (weights track edges one-for-one and so
        cancel out of the ratio; the paper's Table 5 reports the same
        graph-size ratio).
        """
        before = (original.num_nodes + 1) + original.num_edges
        after = (transformed.num_nodes + 1) + transformed.num_edges
        return after / before


@dataclass(frozen=True)
class TransformResult:
    """A physically transformed graph plus its provenance metadata.

    Attributes
    ----------
    graph:
        The transformed graph G'.  Nodes ``0 .. n-1`` keep their
        original identities (they are the family roots that retain all
        incoming edges); split nodes occupy ids ``n ..``.
    node_origin:
        ``int64`` array of length ``graph.num_nodes`` mapping every
        node of G' to the original node whose family it belongs to.
        For ``v < n`` this is the identity.
    new_edge_mask:
        Boolean array over G' edges marking ``E_new`` (Theorem 1):
        edges introduced by the transformation.  Original edges —
        possibly relocated to a split node — are ``False`` and keep
        their original weights.
    num_original_nodes:
        ``n``, the node count of the input graph.
    stats:
        :class:`TransformStats` accounting.
    """

    graph: CSRGraph
    node_origin: np.ndarray
    new_edge_mask: np.ndarray
    num_original_nodes: int
    stats: TransformStats

    def read_values(self, values: np.ndarray) -> np.ndarray:
        """Project a value array over G' back onto original node ids.

        Family roots keep original ids, and every transformation in
        this library keeps incoming edges at the root, so the root's
        value is the original node's value — the projection is simply
        the first ``num_original_nodes`` entries.
        """
        return np.asarray(values)[: self.num_original_nodes]

    def families(self) -> Dict[int, np.ndarray]:
        """Map each split original node to its family member ids.

        Only originals that were actually split appear; the family
        array includes the root itself.
        """
        n = self.num_original_nodes
        origins = self.node_origin[n:]
        # One stable sort groups split nodes by root, ids ascending.
        order = np.argsort(origins, kind="stable")
        roots, starts = np.unique(origins[order], return_index=True)
        return {
            int(root): np.concatenate([np.asarray([root], dtype=np.int64), members])
            for root, members in zip(roots, np.split(order + n, starts[1:]))
        }
