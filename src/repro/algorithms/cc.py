"""Connected components driver (min-label propagation)."""

from __future__ import annotations

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.programs import CCProgram
from repro.engine.push import EngineOptions, EngineResult, run_push


def connected_components(
    target: Target,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Component labels: each node ends with its component's least id.

    Propagation follows edge direction, so pass a symmetrised graph
    (:func:`repro.graph.builder.to_undirected`) for the usual weakly
    connected components — the same convention the paper's frameworks
    use.  Corollary 1: any split transformation preserves these
    labels for the original node ids.
    """
    return run_push(
        resolve_scheduler(target), CCProgram(), None, options=options
    )
