"""Connected components: min-label propagation, and serving's union-find."""

from __future__ import annotations

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.programs import CCProgram
from repro.engine.kernels import resolve_backend
from repro.engine.push import EngineOptions, EngineResult, run_push
from repro.graph.csr import CSRGraph


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


def weak_components(
    graph: CSRGraph, *, options: EngineOptions = EngineOptions()
) -> np.ndarray:
    """Weakly connected component labels of any CSR, built from nothing.

    Raw or symmetric, weighted or not: the compiled ``components``
    union-find reads the rows as they are, edge direction ignored, and
    labels each node with its component's least id — bitwise what
    :func:`connected_components` reaches on the symmetrised graph, which
    is what runs, uncached, when the backend declines.
    """
    backend = resolve_backend(options.kernel_backend, edges=graph.num_edges)
    labels = backend.try_components(graph.offsets, graph.targets)
    if labels is None:
        from repro.algorithms import prepare_graph  # the package imports this module

        labels = connected_components(
            prepare_graph(graph, "cc"), options=options).values
    return labels
