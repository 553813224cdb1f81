"""Breadth-first search driver."""

from __future__ import annotations

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.programs import BFSProgram
from repro.engine.push import EngineOptions, EngineResult, run_push


def bfs(
    target: Target,
    source: int,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Hop distances from ``source`` (``inf`` for unreachable nodes).

    ``target`` may be a plain graph (thread per node), a
    :class:`~repro.core.virtual.VirtualGraph` (Tigr scheduling), or
    any scheduler.  On weighted graphs the weights are *used* — pass
    an unweighted graph for pure hop counts, or a physically
    transformed graph whose 0/1 dumb weights encode hops (see
    :class:`~repro.algorithms.programs.BFSProgram`).
    """
    return run_push(
        resolve_scheduler(target), BFSProgram(), source, options=options
    )
