"""PageRank's iteration — the one implementation every route runs.

PR is all-active: every iteration sums ``rank[v] / outdeg(v)`` over
every in-edge of every node, then applies damping and dangling-mass
redistribution.  :class:`RankStep` owns the run's layout and buffers,
and offers the single engine's whole loop to a compiled kernel;
:func:`damp` is the rank update, shared with the sharded router, which
assembles the contributions its shards gather.
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
    returns the L1 distance between the two; ``gather(rank)`` is its
    first half alone, ``contrib[d] = sum(rank[src] * inv_deg[src])``
    over ``d``'s in-edges in a buffer the step owns, for a shard, whose
    router applies :func:`damp` to the assembled whole (``inv_deg`` is
    a parameter: a slice cannot derive global outdegree).

    The numpy body is the spec: ``np.add.at`` in ``batch()`` order (ADD:
    the order is part of the answer).  Every walk visits rows in
    ascending order, so a JIT backend gathers each ``d``'s sources in
    that order over the transpose, laid out once per run (4 B a slot,
    nothing cached on the graph): :meth:`run` is the single engine's
    whole loop as one call (``rank_run``, :func:`damp`'s recipe with
    numpy's pairwise sums in C), a shard's :meth:`gather` one call per
    iteration.  Unwalkable schedulers (an attached one is observed),
    graphs an ``int32`` cannot index and any gate failure take the
    numpy body, which announces its cached launch once per iteration.
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
        self.layout = self.backend.try_rank_layout(
            scheduler.offsets, graph.targets
        )
        #: ``rank * inv_deg`` and the padding's ``x[n] = +0.0`` (the
        #: compiled run's sum buffer too), and the contributions
        self.scratch = (np.empty(n + 1), np.zeros(n))
        self._batch = None  # the numpy body's launch, built on first use

    def run(
        self, rank: np.ndarray, spare: np.ndarray, tolerance: float,
        max_iterations: int,
    ) -> Optional[Tuple[int, bool]]:
        """:func:`~repro.algorithms.pagerank.pagerank`'s loop from
        ``rank`` as one compiled call, the ranks left in ``rank``:
        ``(iterations, converged)``, or ``None`` (no layout, or
        declined)."""
        if self.layout is None:
            return None
        return self.backend.try_rank_run(
            rank, spare, self.inv_deg, self.dangling, self.layout,
            self.scratch, self.damping, tolerance, max_iterations,
        )

    def __call__(self, rank: np.ndarray, out: np.ndarray) -> float:
        return damp(rank, self._scatter(rank), self.dangling, self.damping, out)

    def gather(self, rank: np.ndarray) -> np.ndarray:
        if self.layout is not None and self.backend.try_rank_gather(
            rank, self.inv_deg, self.layout, self.scratch
        ):
            return self.scratch[1]
        return self._scatter(rank)

    def _scatter(self, rank: np.ndarray) -> np.ndarray:
        """The numpy body of :meth:`gather`."""
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
