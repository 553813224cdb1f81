"""Single-source widest path driver."""

from __future__ import annotations

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.programs import SSWPProgram
from repro.engine.push import EngineOptions, EngineResult, run_push


def sswp(
    target: Target,
    source: int,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Maximum bottleneck width from ``source`` to every node.

    The source has width ``+inf``; unreachable nodes ``-inf``.
    Physically transformed graphs must carry INFINITY dumb weights
    (Corollary 3).
    """
    return run_push(
        resolve_scheduler(target), SSWPProgram(), source, options=options
    )
