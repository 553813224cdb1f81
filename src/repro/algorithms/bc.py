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
siblings compose associatively (Theorem 3's condition); every kernel
folds each node's out-edges in CSR order, so the float sums — and the
answer — do not depend on the transform or the scheduler.  BC here is
unweighted (hop-count shortest paths), matching the GPU frameworks
the paper compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, Scheduler, ThreadBatch
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
    edges_processed: int = 0


class BCStep:
    """Brandes' two level steps over one scheduler.

    ``forward(frontier, level)`` settles depth ``level`` below the
    frontier and accumulates its ``sigma`` in the same walk, returning
    ``(sorted next frontier, edges)``; ``backward(frontier)`` folds each
    frontier node's dependency from its children one level down into
    ``delta`` and returns the edges.  The step owns ``levels``,
    ``sigma`` and ``delta``.

    Both phases ADD, so the fold order is part of the answer: every
    route folds each frontier node's CSR row in order.  A JIT backend
    runs the whole of :func:`bc` as one compiled call (:meth:`run`) on
    a walkable scheduler; unwalkable ones (an attached one is observed)
    and any gate failure take the numpy bodies' :meth:`loop`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        source: int,
        options: EngineOptions,
    ) -> None:
        graph = scheduler.graph
        n = graph.num_nodes
        self.scheduler = scheduler
        self.source = source
        self.backend = kernels.resolve_backend(
            options.kernel_backend, edges=graph.num_edges
        )
        self.levels = np.full(n, -1, dtype=np.int64)
        self.sigma = np.zeros(n, dtype=np.float64)
        self.delta = np.zeros(n, dtype=np.float64)
        self.levels[source] = 0
        self.sigma[source] = 1.0

    def run(self, options: EngineOptions) -> Optional[Tuple[int, int]]:
        """:func:`bc`'s two phases as one compiled call: ``(iterations,
        edges)``, or ``None`` (declined)."""
        return self.backend.try_bc_run(
            self.levels, self.sigma, self.delta,
            np.empty(len(self.levels), dtype=NODE_DTYPE), self.source,
            self.scheduler.offsets, self.scheduler.graph.targets,
            options.max_iterations, options.dense_threshold,
        )

    def _launch(self, frontier: np.ndarray):
        """The numpy bodies' launch -> ``(edges, dst, src)`` per edge."""
        rows = _rows(self.scheduler, frontier)
        dst = self.scheduler.graph.targets[rows.edge_indices()]
        return rows.total_edges, dst, rows.sources_per_edge()

    def forward(self, frontier: np.ndarray, level: int) -> Tuple[np.ndarray, int]:
        levels, sigma = self.levels, self.sigma
        edges, dst, src = self._launch(frontier)
        # settle the level; dedupe through a mask (a scan, where
        # numpy >= 2.3's hash-based np.unique costs ~20x one)
        fresh = np.zeros(len(levels), dtype=bool)
        fresh[dst[levels[dst] < 0]] = True
        found = np.flatnonzero(fresh)
        levels[found] = level
        # accumulate sigma over edges landing exactly on it
        on_level = levels[dst] == level
        np.add.at(sigma, dst[on_level], sigma[src[on_level]])
        return found, edges

    def backward(self, frontier: np.ndarray) -> int:
        levels, sigma, delta = self.levels, self.sigma, self.delta
        edges, dst, src = self._launch(frontier)
        down = (levels[dst] == levels[src] + 1) & (sigma[dst] > 0)
        contrib = np.zeros(len(dst), dtype=np.float64)
        contrib[down] = (
            sigma[src[down]] / sigma[dst[down]] * (1.0 + delta[dst[down]])
        )
        np.add.at(delta, src, contrib)
        return edges

    def loop(self, options: EngineOptions) -> Tuple[int, int]:
        """The numpy bodies' run, level by level: ``(iterations,
        edges)``.  ``options.max_iterations`` bounds the forward levels;
        the backward phase skips the deepest level run forward."""
        level_frontiers = []
        frontier = np.asarray([self.source], dtype=NODE_DTYPE)
        iterations = 0
        edges_processed = 0

        # ---------------- forward phase ----------------
        while len(frontier) and iterations < options.max_iterations:
            level_frontiers.append(frontier)
            iterations += 1
            frontier, edges = self.forward(frontier, len(level_frontiers))
            edges_processed += edges

        # ---------------- backward phase ----------------
        # the deepest level appended has nothing below it to collect
        for frontier in reversed(level_frontiers[:-1]):
            iterations += 1
            edges_processed += self.backward(frontier)
        return iterations, edges_processed


def _rows(scheduler: Scheduler, frontier: np.ndarray) -> ThreadBatch:
    """Announce ``scheduler``'s launch over ``frontier`` if it can be
    observed (unwalkable), and return the frontier's rows in CSR order:
    the launch's edges sorted by edge index, the one fold order."""
    if not scheduler.walkable:
        scheduler.launched(scheduler.batch(frontier))
    return NodeScheduler(scheduler.graph).batch(frontier)


def bc(
    target: Target,
    source: int,
    *,
    options: EngineOptions = EngineOptions(),
) -> BCResult:
    """Single-source betweenness contribution from ``source``.

    ``options.worklist`` is inherent here (both phases are
    frontier-driven by construction); ``options.max_iterations``
    bounds the forward phase's level count.
    """
    step = BCStep(resolve_scheduler(target), source, options)
    iterations, edges_processed = step.run(options) or step.loop(options)
    centrality = step.delta.copy()
    centrality[source] = 0.0
    return BCResult(
        centrality=centrality,
        levels=step.levels,
        sigma=step.sigma,
        num_iterations=iterations,
        converged=True,
        edges_processed=edges_processed,
    )


def bc_lanes(
    target: Target,
    sources,
    *,
    options: EngineOptions = EngineOptions(),
) -> np.ndarray:
    """Per-source BC contributions, all sources in one lane pass.

    Returns an ``(n, len(sources))`` matrix whose column ``k`` equals
    ``bc(target, sources[k], options=options).centrality`` bitwise:
    both Brandes phases run on the *union* of the per-lane frontiers,
    with per-lane level masks gating every edge so lanes only
    accumulate the exact terms their scalar run would — extra union
    nodes contribute literal ``0.0``, which leaves IEEE sums unchanged,
    and both fold each launch's edges in CSR order.  Levels are per lane
    (an ``(n, B)`` matrix), so lanes at different BFS depths coexist in
    one sweep.
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
        rows = _rows(scheduler, union)
        iterations += 1

        eidx, src = rows.edge_indices(), rows.sources_per_edge()
        if len(eidx) == 0:
            break
        dst = targets[eidx]
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
        rows = _rows(scheduler, union)
        iterations += 1

        eidx, src = rows.edge_indices(), rows.sources_per_edge()
        if len(eidx) == 0:
            continue
        dst = targets[eidx]
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
    return centrality
