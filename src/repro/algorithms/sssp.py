"""Single-source shortest path driver (the paper's running example)."""

from __future__ import annotations

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.programs import SSSPProgram
from repro.engine.push import EngineOptions, EngineResult, run_push


def sssp(
    target: Target,
    source: int,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Shortest-path distances from ``source`` on a weighted graph.

    This is Algorithm 2 (and, under a coalesced virtual scheduler,
    Algorithm 3): relax ``dist[v] + w`` along each out-edge, fold with
    ``atomicMin``.  Physically transformed graphs must carry ZERO dumb
    weights (Corollary 2) for the distances to match the original.
    """
    return run_push(
        resolve_scheduler(target), SSSPProgram(), source, options=options
    )
