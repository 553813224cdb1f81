"""Direction-adaptive BSP: push sparse frontiers, pull dense ones.

§7.1 cites Besta et al.'s push-vs-pull analysis [4]; the engines here
make the choice per iteration, generalising direction-optimising BFS
to every monotone vertex program:

* **sparse frontier** → push: scatter candidates along the frontier's
  out-edges (atomics, but work proportional to the frontier);
* **dense frontier** → pull: every node gathers over its in-edges and
  folds into its own value — a full sweep, but coalescible and free
  of atomics (each node owns its write).

Both directions compute the identical BSP update for monotone
(MIN/MAX) programs — a pull sweep folds every in-neighbor's current
value, a superset of what the frontier would have pushed, and folding
stale candidates into a monotone reduction is a no-op.  Hence results
*and iteration counts* match plain push exactly; the tests assert
both.  A push iteration runs :class:`~repro.engine.push.PushStep`
(compiled where the backend engages); a pull sweep runs its numpy
body.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.engine.program import PushProgram, ReduceOp
from repro.engine.push import EngineOptions, EngineResult, PushStep
from repro.engine.schedule import NodeScheduler, Scheduler
from repro.errors import EngineError
from repro.graph.csr import CSRGraph, NODE_DTYPE


@dataclass(frozen=True)
class AdaptiveOptions(EngineOptions):
    """Engine options plus the direction-switch threshold.

    A pull iteration runs when the frontier's out-edges exceed
    ``pull_threshold`` of the graph's edges (the Beamer-style
    heuristic, expressed as a fraction).
    """

    pull_threshold: float = 0.10


@dataclass
class AdaptiveResult(EngineResult):
    """Engine result plus direction bookkeeping."""

    pull_iterations: int = 0
    push_iterations: int = 0


def run_adaptive(
    graph: CSRGraph,
    program: PushProgram,
    source: Optional[int] = None,
    *,
    reverse: Optional[CSRGraph] = None,
    options: AdaptiveOptions = AdaptiveOptions(),
    push_scheduler: Optional[Scheduler] = None,
    pull_scheduler: Optional[Scheduler] = None,
) -> AdaptiveResult:
    """Run a monotone program with per-iteration direction choice.

    Parameters
    ----------
    reverse:
        The transpose graph for pull iterations; computed once here
        when not supplied (callers running many analytics should
        pass a precomputed one).
    push_scheduler:
        Scheduler over ``graph`` for push iterations (defaults to node
        scheduling).
    pull_scheduler:
        Scheduler over the reverse graph for pull iterations
        (defaults to node scheduling; a virtual scheduler composes
        Tigr with direction adaptivity).
    """
    if program.reduce not in (ReduceOp.MIN, ReduceOp.MAX):
        raise EngineError("adaptive direction switching requires a monotone "
                          "(MIN/MAX) program")
    n = graph.num_nodes
    if reverse is None:
        reverse = graph.reverse()
    push_step = PushStep(
        push_scheduler or NodeScheduler(graph), program,
        replace(options, sync_relaxation_blocks=1),
    )
    if pull_scheduler is None:
        pull_scheduler = NodeScheduler(reverse)

    degrees = graph.out_degrees()
    total_edges = max(graph.num_edges, 1)
    values = program.initial_values(n, source)
    frontier = np.asarray(program.initial_frontier(n, source), dtype=NODE_DTYPE)

    pull_threshold = options.pull_threshold
    read = values.copy()

    converged = False
    iterations = pushes = pulls = 0
    edges_processed = 0

    for _ in range(options.max_iterations):
        if len(frontier) == 0:
            converged = True
            break
        iterations += 1
        frontier_edges = int(degrees[frontier].sum())

        if frontier_edges > pull_threshold * total_edges:
            # ---- pull sweep over every node's in-edges -------------
            pulls += 1
            batch = pull_scheduler.batch(pull_scheduler.all_nodes())
            pull_scheduler.launched(batch)
            edges_processed += batch.total_edges
            if batch.total_edges:
                eidx = batch.edge_indices()
                neighbor_vals = read[reverse.targets[eidx]]
                w = reverse.weights[eidx] if reverse.weights is not None else None
                candidates = program.relax(neighbor_vals, w)
                program.reduce.scatter(values, batch.sources_per_edge(), candidates)
            changed = np.flatnonzero(values != read)
        else:
            # ---- push the frontier ---------------------------------
            pushes += 1
            changed, edges = push_step(values, read, frontier)
            edges_processed += edges

        if len(changed) == 0:
            converged = True
            break
        read[changed] = values[changed]
        frontier = changed

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (adaptive) did not converge within "
            f"{options.max_iterations} iterations"
        )
    return AdaptiveResult(
        values=values,
        num_iterations=iterations,
        converged=converged,
        edges_processed=edges_processed,
        pull_iterations=pulls,
        push_iterations=pushes,
    )
