"""Uniform-Degree Tree (UDT) transformation — Algorithm 1 of the paper.

UDT splits every node whose outdegree exceeds the degree bound ``K``
into a tree of split nodes, each of degree exactly ``K`` (except
possibly the root).  Algorithm 1 states this with a queue: pop ``K``
pending children, attach them to a fresh node, push that node back,
until at most ``K`` remain for the root.  The queue's history is fixed
by ``(d, K)``, so it is addressed in closed form, not simulated.

For a family of degree ``d > K`` the queue is a sequence of ``d + m``
*positions*, ``m = ceil((d - K) / (K - 1))`` new nodes
(:func:`repro.core.analysis.udt_new_nodes`):

* positions ``0 .. d-1`` are the original out-edges in CSR order,
  position ``d + j`` is new node ``j`` (edge weight: the dumb weight);
* position ``p`` is consumed by new node ``p // K`` when ``p < m*K``,
  otherwise by the root, each parent's edges in position order;
* a family's new nodes get consecutive ids, so their ``K``-edge rows
  are contiguous in the output CSR: position ``p < m*K`` lands at
  ``row_start(first new node) + p``, the rest at
  ``row_start(root) + p - m*K``.

Every edge therefore moves by one of two per-family shifts, and the
output CSR is written directly with prefix sums and ``np.repeat``.
The construction guarantees (§3.2):

* **P1** — UDT is a split transformation (Definition 2);
* **P2** — a unique path connects the root (which keeps all incoming
  edges) to each original outgoing edge;
* **P3** — tree height grows only logarithmically, ``O(log_K d)``;
* at most **one residual node** (degree < K) per family.

Correctness for weighted analytics comes from *dumb weights* on the
tree edges (Corollaries 2–3): zero for additive path metrics, +inf
for bottleneck metrics.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import TransformResult, TransformStats
from repro.core.weights import DumbWeight
from repro.errors import TransformError
from repro.graph.csr import CSRGraph, NODE_DTYPE, WEIGHT_DTYPE


def udt_transform(
    graph: CSRGraph,
    degree_bound: int,
    *,
    dumb_weight: DumbWeight = DumbWeight.ZERO,
) -> TransformResult:
    """Apply UDT (Algorithm 1) to every high-degree node of ``graph``.

    Parameters
    ----------
    graph:
        Input graph.  May be weighted or unweighted.
    degree_bound:
        ``K >= 2``.  After the transformation every node's outdegree
        is at most ``K``.
    dumb_weight:
        Weight policy for tree-internal (new) edges.  With
        :attr:`DumbWeight.NONE` the output stays unweighted (only
        valid for connectivity-style analytics).  With ``ZERO`` or
        ``INFINITY`` an unweighted input is promoted to weights of 1.0
        on original edges, matching BFS-as-unit-SSSP semantics.

    Returns
    -------
    TransformResult
        Original node ids are preserved (family roots); split nodes
        are appended after them.

    Raises
    ------
    TransformError
        If ``degree_bound < 2``.  (With ``K = 1`` the Algorithm 1
        queue never shrinks — each new node consumes one unit and
        produces one — so UDT requires ``K >= 2``.)
    """
    if degree_bound < 2:
        raise TransformError(f"UDT requires degree bound K >= 2, got {degree_bound}")
    k, n, num_edges = degree_bound, graph.num_nodes, graph.num_edges
    old_offsets, degrees = graph.offsets, graph.out_degrees()

    roots = np.flatnonzero(degrees > k)
    d = degrees[roots]
    m = -((k - d) // (k - 1))  # ceil((d - K) / (K - 1)) new nodes per family
    consumed = m * k  # positions below this feed new nodes, the rest the root
    new_before = np.cumsum(m) - m  # new nodes created by earlier families
    num_new = int(m.sum())

    new_degrees = np.concatenate([degrees, np.full(num_new, k, dtype=NODE_DTYPE)])
    new_degrees[roots] = d + m - consumed
    offsets = np.zeros(n + num_new + 1, dtype=NODE_DTYPE)
    np.cumsum(new_degrees, out=offsets[1:])
    tree_start = offsets[n + new_before]  # row of each family's first new node
    root_start = offsets[roots] - consumed

    # Rows of unsplit nodes move as one run; a root's row splits into
    # the run its new nodes consume and the run it keeps.
    runs = np.zeros((n, 2), dtype=NODE_DTYPE)
    shifts = np.zeros((n, 2), dtype=NODE_DTYPE)
    runs[:, 0] = degrees
    shifts[:, 0] = offsets[:n] - old_offsets[:n]
    in_tree = np.minimum(d, consumed)  # original edges that feed new nodes
    runs[roots, 0] = in_tree
    runs[roots, 1] = d - in_tree
    shifts[roots, 0] = tree_start - old_offsets[roots]
    shifts[roots, 1] = root_start - old_offsets[roots]
    edge_slot = np.arange(num_edges, dtype=NODE_DTYPE)
    edge_slot += np.repeat(shifts.ravel(), runs.ravel())

    # New node number g (counted across families, id n + g) is position
    # d + g - new_before of its family: the same two runs per family.
    links_in_tree = consumed - in_tree
    runs = np.stack([links_in_tree, m - links_in_tree], axis=1)
    shifts = np.stack([tree_start, root_start], axis=1) + (d - new_before)[:, None]
    link_slot = np.arange(num_new, dtype=NODE_DTYPE)
    link_slot += np.repeat(shifts.ravel(), runs.ravel())

    targets = np.empty(num_edges + num_new, dtype=NODE_DTYPE)
    targets[edge_slot] = graph.targets
    targets[link_slot] = np.arange(n, n + num_new, dtype=NODE_DTYPE)
    new_edge_mask = np.zeros(num_edges + num_new, dtype=bool)
    new_edge_mask[link_slot] = True
    weights = None
    if graph.is_weighted or dumb_weight is not DumbWeight.NONE:
        # Unweighted input is promoted: original edges weigh 1 (BFS hop).
        # Under NONE the dumb value is never read (CC ignores weights).
        weights = np.empty(num_edges + num_new, dtype=WEIGHT_DTYPE)
        weights[edge_slot] = graph.weights if graph.is_weighted else 1.0
        weights[link_slot] = (
            0.0 if dumb_weight is DumbWeight.NONE else dumb_weight.value_for_new_edges
        )

    # Heights never decrease along the positions, so a parent is one
    # higher than the last position it consumes.  Walk down from the
    # root's last position: O(log_K d_max) iterations.
    hops = np.zeros(len(roots), dtype=NODE_DTYPE)
    last = d + m - 1
    while (on_new_node := last >= d).any():
        hops += on_new_node
        last = np.where(on_new_node, (last - d + 1) * k - 1, last)

    return TransformResult(
        graph=CSRGraph(offsets, targets, weights, validate=False),
        node_origin=np.concatenate(
            [np.arange(n, dtype=NODE_DTYPE), np.repeat(roots, m)]
        ),
        new_edge_mask=new_edge_mask,
        num_original_nodes=n,
        stats=TransformStats(
            degree_bound=degree_bound,
            num_families=len(roots),
            new_nodes=num_new,
            new_edges=num_new,
            max_degree_after=int(new_degrees.max(initial=0)),
            max_family_hops=int(hops.max(initial=0)),
        ),
    )
