"""PageRank driver — every node recomputed every iteration.

PR differs from the monotone analytics: every node is processed every
iteration (the paper singles this out as why push-based engines lose
to pull/scan engines like CuSha on PR).  Each iteration
(:class:`~repro.engine.rank.RankStep`) sums ``rank[v] / outdeg(v)``
into every out-neighbour, then applies damping and dangling-mass
redistribution.  A JIT backend runs the whole loop as one compiled
call (:meth:`~repro.engine.rank.RankStep.run`) that gathers by
destination, bitwise-equal to the numpy scatter below, its only
fallback.

On a virtually transformed graph the sum divides by the **physical**
outdegree (Corollary 4 preserves it) and sibling virtual nodes' partial
sums combine through the ADD reduction — associative, so Theorem 3
applies and the ranks match the original exactly.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.engine.push import EngineOptions, EngineResult
from repro.engine.rank import RankStep, inverse_out_degrees


def pagerank(
    target: Target,
    *,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iterations: int = 100,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """PageRank scores (sum to 1; dangling mass redistributed uniformly).

    ``options.worklist`` is ignored — PR is inherently all-active.
    Convergence is the L1 distance between successive rank vectors
    dropping below ``tolerance``.
    """
    scheduler = resolve_scheduler(target)
    graph = scheduler.graph
    n = graph.num_nodes
    if n == 0:
        return EngineResult(np.zeros(0), 0, True)

    step = RankStep(
        scheduler, inverse_out_degrees(graph), damping=damping,
        kernel_backend=options.kernel_backend,
    )
    rank = np.full(n, 1.0 / n)
    spare = np.empty(n)

    fused = step.run(rank, spare, tolerance, max_iterations)
    if fused is not None:
        iterations, converged = fused
    else:
        converged = False
        iterations = 0
        for _ in range(max_iterations):
            iterations += 1
            delta = step(rank, spare)
            rank, spare = spare, rank
            if delta < tolerance:
                converged = True
                break

    return EngineResult(
        values=rank,
        num_iterations=iterations,
        converged=converged,
        edges_processed=iterations * graph.num_edges,
    )
