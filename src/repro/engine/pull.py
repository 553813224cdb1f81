"""The pull-based BSP engine (§2.1, Theorem 3).

Pull-based propagation gathers values along *incoming* edges: each
scheduled thread reads its in-neighbors' values and folds them into
its own node's value.  The engine runs on the **reverse** graph so CSR
neighbor lists enumerate in-edges; the scheduler (node or virtual) is
built over that reverse graph.

With a virtual scheduler, one physical node's in-edges are divided
over several virtual threads, each folding a *subset* of neighbors
into the shared physical slot.  Theorem 3: the result equals the
original vertex function exactly when the reduction is associative —
which MIN/MAX/ADD are, and which the test suite verifies.

Only the paper's ablations run this engine, so it has no compiled
kernel: every launch runs the numpy gather below, whatever
``options.kernel_backend`` names.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import EngineError
from repro.engine.program import PushProgram
from repro.engine.push import EngineOptions, EngineResult
from repro.engine.schedule import Scheduler
from repro.graph.csr import CSRGraph, NODE_DTYPE
from repro.indexing import ranges_to_indices


def run_pull(
    scheduler: Scheduler,
    program: PushProgram,
    forward_graph: CSRGraph,
    source: Optional[int] = None,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Run a program in pull mode.

    Parameters
    ----------
    scheduler:
        Built over the **reverse** graph (its edge array enumerates
        in-edges; edge weights must have followed their edges, which
        :meth:`repro.graph.csr.CSRGraph.reverse` guarantees).
    program:
        The same program objects used for push runs work here: the
        relax function is direction-agnostic (value + weight ->
        candidate) and the reduction must be associative, which all
        :class:`~repro.engine.program.ReduceOp` members are.
    forward_graph:
        The original orientation, used by the worklist to find which
        nodes an update can affect (the out-neighbors of changed
        nodes must re-gather next iteration).
    """
    reverse = scheduler.graph
    n = reverse.num_nodes
    if forward_graph.num_nodes != n:
        raise EngineError("forward graph does not match the reverse graph")
    if program.needs_weights and reverse.weights is None:
        raise EngineError(f"program {program.name!r} needs edge weights")

    values = program.initial_values(n, source)
    frontier = np.asarray(program.initial_frontier(n, source), dtype=NODE_DTYPE)
    # In pull mode the nodes that must *gather* first are those the
    # initially-changed nodes can influence: their forward neighbors
    # (plus themselves for self-consistent programs).
    frontier = _influenced(forward_graph, frontier)

    weights = reverse.weights
    in_sources = reverse.targets  # reverse target == original source

    converged = False
    iterations = 0
    edges_processed = 0

    for _ in range(options.max_iterations):
        active = frontier if options.worklist else scheduler.all_nodes()
        if len(active) == 0:
            converged = True
            break
        batch = scheduler.batch(active)
        scheduler.launched(batch)
        iterations += 1
        edges_processed += batch.total_edges

        before = values.copy()
        if batch.total_edges:
            eidx = batch.edge_indices()
            neighbor_vals = before[in_sources[eidx]]
            w = weights[eidx] if weights is not None else None
            candidates = program.relax(neighbor_vals, w)
            own = batch.sources_per_edge()  # the gathering node itself
            program.reduce.scatter(values, own, candidates)

        changed = np.flatnonzero(values != before)
        if len(changed) == 0:
            converged = True
            break
        frontier = _influenced(forward_graph, changed)

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (pull) did not converge within {options.max_iterations} iterations"
        )
    return EngineResult(
        values=values,
        num_iterations=iterations,
        converged=converged,
        edges_processed=edges_processed,
    )


def _influenced(forward_graph: CSRGraph, changed: np.ndarray) -> np.ndarray:
    """Nodes whose pull result may differ after ``changed`` updated:
    the forward out-neighbors of the changed nodes."""
    changed = np.asarray(changed, dtype=NODE_DTYPE)
    starts = forward_graph.offsets[changed]
    counts = forward_graph.offsets[changed + 1] - starts
    slots = ranges_to_indices(starts, counts)
    return np.unique(forward_graph.targets[slots])
