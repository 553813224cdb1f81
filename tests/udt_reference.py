"""Differential oracle for UDT: Algorithm 1 as the paper states it.

This is the literal queue simulation — pop ``K`` pending children,
attach them to a fresh node, push the node back — driven one family at
a time through the generic split driver.  ``repro.core.udt`` builds
the same tree in closed form; the tests require the two to agree
array for array (see ``tests/test_udt.py``).

A *unit* on the queue is ``(target_id, weight, is_new_edge, height)``.
Original out-edges start as ``(t, w, False, 0)``; a freshly created
split node is pushed back as ``(new_id, dumb, True, h)``.  When a
parent pops a unit it emits edge parent->target with the unit's
weight/mask.
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from repro.core.splits import _FamilyEdges, _run_split
from repro.core.types import TransformResult
from repro.core.weights import DumbWeight
from repro.errors import TransformError
from repro.graph.csr import CSRGraph

Unit = Tuple[int, float, bool, int]


def udt_transform_reference(
    graph: CSRGraph,
    degree_bound: int,
    *,
    dumb_weight: DumbWeight = DumbWeight.ZERO,
) -> TransformResult:
    """Queue-based UDT with the contract of ``udt_transform``."""
    if degree_bound < 2:
        raise TransformError(f"UDT requires degree bound K >= 2, got {degree_bound}")
    return _run_split(graph, degree_bound, dumb_weight, _udt_family)


def _udt_family(
    root: int,
    neighbor_ids: np.ndarray,
    neighbor_weights: np.ndarray,
    degree_bound: int,
    next_node_id: int,
    dumb_value: float,
) -> _FamilyEdges:
    """Algorithm 1 for one high-degree node.

    ``next_node_id`` is the id assigned to the first split node
    created here.
    """
    queue: "deque[Unit]" = deque(
        (int(t), float(w), False, 0)
        for t, w in zip(neighbor_ids, neighbor_weights)
    )
    fam = _FamilyEdges(next_node_id)
    k = degree_bound
    while len(queue) > k:
        new_node = fam.new_node()
        height = 0
        for _ in range(k):
            target, weight, is_new, h = queue.popleft()
            fam.add_edge(new_node, target, weight, is_new)
            height = max(height, h)
        queue.append((new_node, dumb_value, True, height + 1))
    height = 0
    while queue:
        target, weight, is_new, h = queue.popleft()
        fam.add_edge(root, target, weight, is_new)
        height = max(height, h)
    fam.hops = height
    return fam
