"""Betweenness centrality (single source) — Brandes on the BSP engine.

Two level-synchronous phases, both scheduled through the same
scheduler abstraction as the other analytics (so Tigr's virtual
scheduling applies to BC exactly as the paper evaluates it):

* **forward**: BFS from the source settling levels and accumulating
  ``sigma`` (shortest-path counts) level by level;
* **backward**: dependency accumulation
  ``delta[v] += sigma[v]/sigma[w] * (1 + delta[w])`` over edges
  ``v -> w`` one level apart, sweeping levels deepest-first.

Both phases only ADD into shared per-physical-node arrays, so virtual
siblings compose associatively (Theorem 3's condition).  BC here is
unweighted (hop-count shortest paths), matching the GPU frameworks
the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.engine.push import EngineOptions
from repro.gpu.metrics import RunMetrics
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import NODE_DTYPE


@dataclass
class BCResult:
    """Outcome of a single-source BC run."""

    #: dependency scores (the source's own entry is 0 by convention).
    centrality: np.ndarray
    #: BFS level per node (-1 if unreached).
    levels: np.ndarray
    #: shortest-path counts from the source.
    sigma: np.ndarray
    num_iterations: int
    converged: bool
    metrics: Optional[RunMetrics] = None
    edges_processed: int = 0


def bc(
    target: Target,
    source: int,
    *,
    options: EngineOptions = EngineOptions(),
    simulator: Optional[GPUSimulator] = None,
) -> BCResult:
    """Single-source betweenness contribution from ``source``.

    ``options.worklist`` is inherent here (both phases are
    frontier-driven by construction); ``options.max_iterations``
    bounds the total level count.
    """
    scheduler = resolve_scheduler(target)
    graph = scheduler.graph
    n = graph.num_nodes
    targets = graph.targets

    levels = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    levels[source] = 0
    sigma[source] = 1.0

    level_frontiers = []
    frontier = np.asarray([source], dtype=NODE_DTYPE)
    level = 0
    iterations = 0
    edges_processed = 0

    # ---------------- forward phase ----------------
    while len(frontier) and iterations < options.max_iterations:
        level_frontiers.append(frontier)
        batch = scheduler.batch(frontier)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1
        edges_processed += batch.total_edges

        eidx = batch.edge_indices()
        if len(eidx) == 0:
            break
        dst = targets[eidx]
        src = batch.sources_per_edge()
        # settle the next level; dedupe through a mask (a scan, where
        # numpy >= 2.3's hash-based np.unique costs ~20x one)
        fresh = np.zeros(n, dtype=bool)
        fresh[dst[levels[dst] < 0]] = True
        frontier = np.flatnonzero(fresh)
        levels[frontier] = level + 1
        # accumulate sigma over edges landing exactly one level down
        on_level = levels[dst] == level + 1
        np.add.at(sigma, dst[on_level], sigma[src[on_level]])
        level += 1

    # ---------------- backward phase ----------------
    delta = np.zeros(n, dtype=np.float64)
    for frontier in reversed(level_frontiers[:-1] if len(level_frontiers) > 1 else []):
        batch = scheduler.batch(frontier)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1
        edges_processed += batch.total_edges

        eidx = batch.edge_indices()
        if len(eidx) == 0:
            continue
        dst = targets[eidx]
        src = batch.sources_per_edge()
        down = (levels[dst] == levels[src] + 1) & (sigma[dst] > 0)
        contrib = np.zeros(len(eidx), dtype=np.float64)
        contrib[down] = (
            sigma[src[down]] / sigma[dst[down]] * (1.0 + delta[dst[down]])
        )
        np.add.at(delta, src, contrib)

    centrality = delta.copy()
    centrality[source] = 0.0
    return BCResult(
        centrality=centrality,
        levels=levels,
        sigma=sigma,
        num_iterations=iterations,
        converged=True,
        metrics=simulator.finish() if simulator is not None else None,
        edges_processed=edges_processed,
    )


def bc_lanes(
    target: Target,
    sources,
    *,
    options: EngineOptions = EngineOptions(),
    simulator: Optional[GPUSimulator] = None,
) -> np.ndarray:
    """Per-source BC contributions, all sources in one lane pass.

    Returns an ``(n, len(sources))`` matrix whose column ``k`` equals
    ``bc(target, sources[k], options=options).centrality`` bitwise:
    both Brandes phases run on the *union* of the per-lane frontiers,
    with per-lane level masks gating every edge so lanes only
    accumulate the exact terms their scalar run would — extra union
    nodes contribute literal ``0.0``, which leaves IEEE sums unchanged.
    Levels are per lane (an ``(n, B)`` matrix), so lanes at different
    BFS depths coexist in one sweep.
    """
    scheduler = resolve_scheduler(target)
    graph = scheduler.graph
    n = graph.num_nodes
    targets = graph.targets
    srcs = np.asarray(sources, dtype=np.int64)
    num_lanes = len(srcs)
    if num_lanes == 0:
        return np.zeros((n, 0))
    lanes = np.arange(num_lanes, dtype=np.int64)

    levels = np.full((n, num_lanes), -1, dtype=np.int64)
    sigma = np.zeros((n, num_lanes), dtype=np.float64)
    frontier_mask = np.zeros((n, num_lanes), dtype=bool)
    levels[srcs, lanes] = 0
    sigma[srcs, lanes] = 1.0
    frontier_mask[srcs, lanes] = True

    union_frontiers = []
    level = 0
    iterations = 0

    # ---------------- forward phase (all lanes) ----------------
    while frontier_mask.any() and iterations < options.max_iterations:
        union = np.flatnonzero(frontier_mask.any(axis=1)).astype(NODE_DTYPE)
        union_frontiers.append(union)
        batch = scheduler.batch(union)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1

        eidx = batch.edge_indices()
        if len(eidx) == 0:
            break
        dst = targets[eidx]
        src = batch.sources_per_edge()
        # a lane participates in an edge only when its source sits in
        # that lane's frontier (level == current) — the union batch
        # carries edges other lanes do not want.
        src_on_level = levels[src] == level
        discovered = src_on_level & (levels[dst] < 0)
        new_mask = np.zeros((n, num_lanes), dtype=bool)
        np.logical_or.at(new_mask, dst, discovered)
        fresh_rows, fresh_lanes = np.nonzero(new_mask)
        levels[fresh_rows, fresh_lanes] = level + 1
        # sigma over edges landing exactly one level down, per lane
        on_level = src_on_level & (levels[dst] == level + 1)
        np.add.at(sigma, dst, np.where(on_level, sigma[src], 0.0))
        frontier_mask = new_mask
        level += 1

    # ---------------- backward phase (all lanes) ----------------
    delta = np.zeros((n, num_lanes), dtype=np.float64)
    deepest = len(union_frontiers) - 1
    for lvl in range(deepest - 1, -1, -1):
        union = union_frontiers[lvl]
        batch = scheduler.batch(union)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1

        eidx = batch.edge_indices()
        if len(eidx) == 0:
            continue
        dst = targets[eidx]
        src = batch.sources_per_edge()
        down = (
            (levels[src] == lvl)
            & (levels[dst] == lvl + 1)
            & (sigma[dst] > 0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = sigma[src] / sigma[dst] * (1.0 + delta[dst])
        np.add.at(delta, src, np.where(down, raw, 0.0))

    centrality = delta.copy()
    centrality[srcs, lanes] = 0.0
    if simulator is not None:
        simulator.finish()
    return centrality
