"""PageRank's iteration — the one implementation every route runs.

PR is all-active: every iteration scatters ``rank[v] / outdeg(v)``
along every edge of the same launch, then applies damping and
dangling-mass redistribution.  :class:`RankStep` owns that launch and
its buffers for one run, and offers the single engine's whole loop to
a compiled kernel; :func:`damp` is the rank update, shared with the
sharded router, which assembles the scatter from its shards.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine import kernels
from repro.engine.schedule import Scheduler
from repro.graph.csr import CSRGraph


def inverse_out_degrees(graph: CSRGraph) -> np.ndarray:
    """``1 / outdeg`` per node, 0 for dangling nodes (and only them)."""
    degrees = graph.out_degrees().astype(np.float64)
    inv_deg = np.zeros(graph.num_nodes)
    nonzero = degrees > 0
    inv_deg[nonzero] = 1.0 / degrees[nonzero]
    return inv_deg


def damp(
    rank: np.ndarray,
    contrib: np.ndarray,
    dangling: np.ndarray,
    damping: float,
    out: np.ndarray,
) -> float:
    """The rank update: ``out = (1 - d)/n + d * (contrib + dangling
    mass / n)`` over the dangling nodes' ids; returns the L1 distance
    ``|out - rank|``."""
    n = len(rank)
    mass = rank[dangling].sum() / n
    np.add(contrib, mass, out=out)
    out *= damping
    out += (1.0 - damping) / n
    return float(np.abs(out - rank).sum())


class RankStep:
    """One PageRank iteration over a scheduler's all-nodes launch.

    ``step(rank, out)`` writes the next rank vector into ``out`` and
    returns the L1 distance between the two; ``scatter(rank)`` is its
    first half alone — ``contrib[dst] += rank[src] * inv_deg[src]`` over
    every edge in ``batch()`` order (ADD: the order is part of the
    answer), left in a buffer the step owns — for a shard, whose
    router applies :func:`damp` to the assembled whole.  ``inv_deg`` is
    a parameter because a shard's slice cannot derive global outdegree.

    A JIT backend flattens the launch once per run into ``int32``
    ``(src, dst)`` arrays (8 B x E of per-run scratch, nothing cached on
    the graph).  Over it, :meth:`run` makes the single engine's whole
    loop one compiled call (``rank_run``, :func:`damp`'s recipe with
    numpy's pairwise sums in C), and a shard's :meth:`scatter` one call
    per iteration (``rank_step``).  Unwalkable schedulers (an attached
    scheduler has no walk), graphs an ``int32`` cannot index and any
    gate failure take the numpy bodies, which announce their cached
    launch once per iteration.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        inv_deg: np.ndarray,
        *,
        damping: float = 0.85,
        kernel_backend: Optional[str] = None,
    ) -> None:
        graph = scheduler.graph
        n = graph.num_nodes
        self.scheduler = scheduler
        self.inv_deg = inv_deg
        self.damping = damping
        self.dangling = np.flatnonzero(inv_deg == 0)
        self.backend = kernels.resolve_backend(
            kernel_backend, edges=graph.num_edges
        )
        self.launch = self.backend.try_rank_launch(
            scheduler.walk_layout(), graph.targets
        )
        #: ``rank * inv_deg`` (the compiled run's sum buffer too), and
        #: the scatter's result
        self.scratch = (np.empty(n), np.zeros(n))
        self._batch = None  # the numpy body's launch, built on first use

    def run(
        self, rank: np.ndarray, spare: np.ndarray, tolerance: float,
        max_iterations: int,
    ) -> Optional[Tuple[int, bool]]:
        """:func:`~repro.algorithms.pagerank.pagerank`'s loop from
        ``rank`` as one compiled call, the ranks left in ``rank``:
        ``(iterations, converged)``, or ``None`` (no launch, or
        declined)."""
        if self.launch is None:
            return None
        return self.backend.try_rank_run(
            rank, spare, self.inv_deg, self.dangling, self.launch,
            self.scratch, self.damping, tolerance, max_iterations,
        )

    def __call__(self, rank: np.ndarray, out: np.ndarray) -> float:
        return damp(rank, self._scatter(rank), self.dangling, self.damping, out)

    def scatter(self, rank: np.ndarray) -> np.ndarray:
        if self.launch is not None and self.backend.try_rank_step(
            rank, self.inv_deg, self.launch, self.scratch
        ):
            return self.scratch[1]
        return self._scatter(rank)

    def _scatter(self, rank: np.ndarray) -> np.ndarray:
        """The numpy body of :meth:`scatter`."""
        contrib = self.scratch[1]
        if self._batch is None:
            batch = self.scheduler.batch(self.scheduler.all_nodes())
            self._batch = (
                batch, batch.sources_per_edge(),
                self.scheduler.graph.targets[batch.edge_indices()],
            )
        batch, src, dst = self._batch
        self.scheduler.launched(batch)
        contrib[:] = 0.0
        np.add.at(contrib, dst, rank[src] * self.inv_deg[src])
        return contrib
