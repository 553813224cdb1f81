"""The push-based BSP engine (§2.1, Algorithm 2).

One iteration: schedule the active nodes into threads, gather each
thread's edges, relax along every edge, scatter-reduce candidates into
destination values, and detect changes.  With the worklist
optimization (§5) only changed nodes are active next iteration; with
synchronization relaxation the launch is processed in sequential
blocks so later blocks see values computed earlier in the same
iteration.

:func:`run_push_lanes` is the lane-parallel (multi-source) mode: one
BSP pass carries ``S`` per-source lanes, values are a node-major
``(n, S)`` matrix, the frontier is the union of per-lane frontiers, and
one edge walk serves every lane (:class:`LaneStep`).  Unweighted
hop-count programs additionally take an MS-BFS fast path whose per-node
visited sets are bit-packed into ``uint64`` words, so frontier
propagation costs ``O(E * S/64)`` instead of ``O(E * S)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EngineError
from repro.engine import kernels
from repro.engine.frontier import DENSE_THRESHOLD, Frontier
from repro.engine.program import PushProgram
from repro.engine.schedule import Scheduler, ThreadBatch
from repro.graph.csr import NODE_DTYPE

if TYPE_CHECKING:
    from repro.gpu.metrics import RunMetrics


@dataclass(frozen=True)
class EngineOptions:
    """Knobs of the paper's lightweight GPU engine (§5).

    Attributes
    ----------
    worklist:
        Track active nodes and only process those each iteration.
        Disabled, every node is processed every iteration (the
        "Without Worklist" columns of Table 8).
    sync_relaxation_blocks:
        1 = strict BSP.  ``b > 1`` processes each launch in ``b``
        sequential blocks; later blocks observe values written by
        earlier ones in the same iteration ("synchronization
        relaxation", §5) — the paper's model, numpy body only: a
        compiled MIN/MAX step already reads every value in place.
    max_iterations:
        Safety bound; exceeding it without convergence raises
        :class:`~repro.errors.EngineError` when ``require_convergence``.
    dense_threshold:
        Frontier occupancy above which the worklist switches to the
        dense (bitmap) representation — the Ligra heuristic; see
        :mod:`repro.engine.frontier`.
    kernel_backend:
        Which :mod:`repro.engine.kernels` backend runs the relax /
        reduce inner loops.  ``None`` defers to
        ``$REPRO_KERNEL_BACKEND`` and then to the cost model's
        ``auto`` choice.  Values are bitwise identical on every
        backend; this knob trades speed (and MIN/MAX superstep counts).
    """

    worklist: bool = True
    sync_relaxation_blocks: int = 1
    max_iterations: int = 100_000
    require_convergence: bool = True
    dense_threshold: float = DENSE_THRESHOLD
    kernel_backend: Optional[str] = None


@dataclass
class EngineResult:
    """Outcome of one engine run.

    ``values`` is per physical node: a vector ``(n,)`` from the scalar
    engines, a matrix ``(n, num_lanes)`` from the lane-parallel ones
    (column ``k`` is source ``k``'s run).
    """

    values: np.ndarray
    num_iterations: int
    converged: bool
    #: the warp model's totals, filled only by the :func:`repro.run`
    #: facade (engines leave it to an attached simulator's ``metrics``).
    metrics: Optional[RunMetrics] = None
    #: total edges relaxed over the run (useful work measure).
    edges_processed: int = 0
    #: worklist iterations whose frontier ran in dense (bitmap) form.
    dense_iterations: int = 0
    #: per-source lanes carried by the pass (1 for scalar runs).
    num_lanes: int = 1
    #: sum over iterations of lanes still live — ``/ num_iterations``
    #: is the mean lane occupancy the batch sustained.
    lane_iterations: int = 0


class PushStep:
    """The push superstep — the one implementation every route runs.

    ``step(out, read, active)`` relaxes the active nodes' edges from
    ``read`` and folds the candidates into ``out`` (equal to ``read``
    on entry), returning ``(changed, edges)``: the sorted ids whose
    ``out`` now differs from ``read`` — the next frontier — and the
    edges relaxed.  The caller commits (``read[changed] =
    out[changed]``) or discards (the reverse) before the next step.

    A JIT backend runs a MIN or MAX step whole, compiled: it walks each
    active node's CSR row in order (the coalesced stride, which buys a
    GPU warp its memory transactions, costs a CPU 9-27 %) and relaxes in
    place, reading ``out`` (a value improved earlier in the superstep
    goes out now), so it reaches the numpy body's unique fixpoint bit
    for bit, in at most as many supersteps.  Other reductions,
    ``sync_relaxation_blocks > 1`` (later blocks re-read ``out``),
    unwalkable schedulers (an attached one is observed) and any gate
    failure take the numpy path.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        program: PushProgram,
        options: EngineOptions,
    ) -> None:
        graph = scheduler.graph
        if options.sync_relaxation_blocks < 1:
            raise EngineError("sync_relaxation_blocks must be >= 1")
        if program.needs_weights and graph.weights is None:
            raise EngineError(f"program {program.name!r} needs edge weights")
        self.scheduler = scheduler
        self.program = program
        self.blocks = options.sync_relaxation_blocks
        self.backend = kernels.resolve_backend(
            options.kernel_backend, edges=graph.num_edges
        )
        self.spec = kernels.spec_for(program) if self.backend.jit else None
        #: the rows a compiled step walks (``None``: it declines)
        self.offsets = scheduler.offsets if self.blocks == 1 else None
        # per-run, never shared: the compiled walk's destination marks
        # (all zero between steps) and changed-id buffer (+1 spare slot)
        self.scratch = (
            np.zeros(graph.num_nodes, dtype=np.uint8),
            np.empty(graph.num_nodes + 1, dtype=NODE_DTYPE),
        ) if self.backend.jit and self.offsets is not None else None
        #: where the step would run compiled, a worklist run is offered
        #: to the backend as one call (:meth:`run`)
        self.fuses = self.scratch is not None and self.spec is not None

    def __call__(
        self, out: np.ndarray, read: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        graph = self.scheduler.graph
        stepped = self.backend.try_push_step(
            self.spec, out, read, active, self.offsets,
            graph.targets, graph.weights, self.scratch,
        )
        if stepped is not None:
            return stepped
        batch = self._launch(_apply_batch, out, read, active)
        return np.flatnonzero(out != read), batch.total_edges

    def run(self, out, read, frontier: Frontier, options: EngineOptions):
        """:func:`run_push`'s loop from ``frontier`` as one compiled call:
        :func:`_loop`'s counters, or ``None`` (not offered, or declined)."""
        if not (self.fuses and options.worklist):
            return None
        graph = self.scheduler.graph
        return self.backend.try_push_run(
            self.spec, out, read, frontier.ids(), self.offsets, graph.targets,
            graph.weights, self.scratch, options.max_iterations,
            options.dense_threshold,
        )

    def _launch(self, apply, out, read, active) -> ThreadBatch:
        """The numpy body's launch: schedule ``active``, announce it,
        and ``apply`` the batch (in relaxation blocks when asked to)."""
        graph = self.scheduler.graph
        batch = self.scheduler.batch(active)
        self.scheduler.launched(batch)
        if self.blocks == 1:
            apply(batch, self.program, out, read, graph.targets, graph.weights)
        else:
            bounds = np.linspace(
                0, batch.num_threads, self.blocks + 1
            ).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    # later blocks read values already updated: relaxation
                    apply(batch.slice(int(lo), int(hi)), self.program,
                          out, out, graph.targets, graph.weights)
        return batch


class LaneStep(PushStep):
    """The lane superstep: ``S`` sources ride one walk of the union
    frontier.

    ``step(active)`` advances every lane over the active nodes' edges
    and returns ``(changed, edges, live)``: the sorted ids whose row of
    ``values`` — node-major ``(n, S)``, column ``k`` is ``sources[k]``'s
    scalar run — changed in any lane (the next union frontier), the
    edges walked, and how many lanes changed anywhere.  The step owns
    its state and commits it.

    Float lanes fold every lane of a destination row per edge (in
    place when compiled), then compare and commit the touched rows.
    Hop-count programs on unweighted graphs (worklist, strict BSP)
    carry one *bit* per lane instead: ``uint64`` frontier words are
    OR-ed along the walk, stripped of ``visited`` and the level stamped
    into the fresh cells.
    A JIT backend runs either whole step compiled under
    :class:`PushStep`'s gates (hop masks wider than one word decline);
    the numpy bodies below are the fallback.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        program: PushProgram,
        sources: Sequence[int],
        options: EngineOptions,
    ) -> None:
        super().__init__(scheduler, program, options)
        n = scheduler.graph.num_nodes
        num_lanes = len(sources)
        self.hops = (
            program.unit_hop_metric and scheduler.graph.weights is None
            and options.worklist and self.blocks == 1
        )
        if self.hops:
            src = np.asarray(sources, dtype=np.int64)
            lanes = np.arange(num_lanes, dtype=np.int64)
            self.values = np.full((n, num_lanes), np.inf)
            self.values[src, lanes] = 0.0
            frontier = np.zeros((n, max(1, (num_lanes + 63) // 64)),
                                dtype=np.uint64)
            np.bitwise_or.at(
                frontier, (src, lanes // 64), kernels.LANE_BITS[lanes % 64]
            )
            if frontier.shape[1] == 1:
                # single-word masks (the max_lanes=64 default) run on
                # flat (n,) arrays: the only form the compiled step
                # takes, and ufunc.at's fast path
                frontier = frontier[:, 0]
            #: frontier words, next-frontier words (zero), visited
            self.words = [frontier, np.zeros_like(frontier), frontier.copy()]
            self.level = 0
        else:
            self.values = np.ascontiguousarray(
                program.initial_lane_values(n, sources)
            )
            self.read = self.values.copy()
        if self.scratch is not None:
            self.scratch += (np.zeros(num_lanes, dtype=np.uint8),)
        # hop masks wider than one word are the numpy body's
        self.fuses = self.fuses and not (self.hops and self.words[0].ndim > 1)

    def __call__(self, active: np.ndarray) -> Tuple[np.ndarray, int, int]:
        if self.hops:
            return self._hop(active)
        graph = self.scheduler.graph
        out, read = self.values, self.read
        stepped = self.backend.try_lane_step(
            self.spec, out, read, active, self.offsets,
            graph.targets, graph.weights, self.scratch,
        )
        if stepped is not None:
            return stepped
        batch = self._launch(_apply_batch_lanes, out, read, active)
        differs = out != read
        changed = np.flatnonzero(differs.any(axis=1))
        read[changed] = out[changed]
        return changed, batch.total_edges, int(differs.any(axis=0).sum())

    def run(self, frontier: Frontier, options: EngineOptions):
        """:func:`run_push_lanes`' loop as :meth:`PushStep.run` (a hop
        run leaves ``level`` and ``words`` behind: nothing steps after)."""
        if not (self.fuses and options.worklist):
            return None
        graph = self.scheduler.graph
        fixpoint = (options.max_iterations, options.dense_threshold)
        if self.hops:
            frontier_w, new, visited = self.words
            return self.backend.try_hop_run(
                new, frontier_w, visited, self.values, float(self.level),
                frontier.ids(), self.offsets, graph.targets, self.scratch,
                *fixpoint,
            )
        return self.backend.try_lane_run(
            self.spec, self.values, self.read, frontier.ids(), self.offsets,
            graph.targets, graph.weights, self.scratch, *fixpoint,
        )

    def _hop(self, active: np.ndarray) -> Tuple[np.ndarray, int, int]:
        frontier, new, visited = self.words
        self.words = [new, frontier, visited]  # both bodies zero `frontier`
        self.level += 1
        stepped = self.backend.try_hop_step(
            new, frontier, visited, self.values, float(self.level), active,
            self.offsets, self.scheduler.graph.targets, self.scratch,
        )
        if stepped is not None:
            return stepped
        batch = self._launch(_apply_or, new, frontier, active)
        frontier[active] = 0
        new &= ~visited
        visited |= new
        fresh = np.flatnonzero(new if new.ndim == 1 else new.any(axis=1))
        # unpack only the freshly discovered rows into lane columns;
        # the fill goes through a flat 1-D index (2-D fancy assignment
        # pays a slow pair-iteration path)
        num_lanes = self.values.shape[1]
        bits = np.unpackbits(
            new.reshape(len(new), -1)[fresh].view(np.uint8),
            axis=1, bitorder="little",
        )[:, :num_lanes]
        rows, cols = np.nonzero(bits)
        self.values.reshape(-1)[fresh[rows] * num_lanes + cols] = self.level
        return fresh, batch.total_edges, int(bits.any(axis=0).sum())


def run_push(
    scheduler: Scheduler,
    program: PushProgram,
    source: Optional[int] = None,
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Run a push program to convergence.

    Parameters
    ----------
    scheduler:
        Decides the thread mapping; its graph supplies edges/weights.
        For virtual transformations pass a
        :class:`~repro.engine.schedule.VirtualScheduler` — values stay
        per *physical* node, which is the implicit value
        synchronization of §4.1.
    program:
        The analytic (relax + reduction + initialisation).
    source:
        Source node for single-source analytics; ``None`` for
        all-nodes initialisation (CC).
    """
    n = scheduler.graph.num_nodes
    step = PushStep(scheduler, program, options)
    values = program.initial_values(n, source)
    read = values.copy()
    frontier = Frontier.from_ids(
        n, program.initial_frontier(n, source),
        dense_threshold=options.dense_threshold,
    )

    def superstep(active):  # commits what it changed, as a run does
        changed, edges = step(values, read, active)
        read[changed] = values[changed]
        return changed, edges, 1

    converged, iterations, edges_processed, dense_iterations, _ = (
        step.run(values, read, frontier, options)
        or _loop(superstep, frontier, scheduler, options, 1)
    )

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} did not converge within {options.max_iterations} iterations"
        )
    return EngineResult(
        values=values,
        num_iterations=iterations,
        converged=converged,
        edges_processed=edges_processed,
        dense_iterations=dense_iterations,
    )


def run_push_lanes(
    scheduler: Scheduler,
    program: PushProgram,
    sources: Sequence[int],
    *,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Run one push pass carrying a lane per source.

    Column ``k`` of ``result.values`` is bitwise-identical to
    ``run_push(scheduler, program, sources[k], options=options).values``
    — the union frontier only *adds* relaxations of unchanged lane
    values, which an idempotent reduction folds away, and each lane's
    fixpoint is unique (a compiled pass may reach it in fewer supersteps).

    Requires ``program.lane_safe`` (idempotent reduction); ADD-based
    programs would double-count the redundant pushes and are refused.
    """
    n = scheduler.graph.num_nodes
    num_lanes = len(sources)
    if not program.lane_safe:
        raise EngineError(
            f"program {program.name!r} is not lane-safe: its "
            f"{program.reduce.value} reduction is not idempotent"
        )
    step = LaneStep(scheduler, program, sources, options)
    frontier = Frontier.from_ids(
        n, program.initial_lane_frontier(n, sources),
        dense_threshold=options.dense_threshold,
    )

    (converged, iterations, edges_processed, dense_iterations,
     lane_iterations) = (step.run(frontier, options)
                         or _loop(step, frontier, scheduler, options, num_lanes))

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (lanes) did not converge within "
            f"{options.max_iterations} iterations"
        )
    return EngineResult(
        values=step.values,
        num_iterations=iterations,
        converged=converged,
        edges_processed=edges_processed,
        dense_iterations=dense_iterations,
        num_lanes=num_lanes,
        lane_iterations=lane_iterations,
    )


def _loop(superstep, frontier: Frontier, scheduler: Scheduler,
          options: EngineOptions, num_lanes: int):
    """The BSP loop over ``superstep(active) -> (changed ids, edges, live
    lanes)`` from ``frontier``: ``(converged, iterations, edges, dense
    iterations, lane iterations)`` — what a compiled ``*_run`` returns."""
    converged = False
    iterations = 0
    edges_processed = 0
    dense_iterations = 0
    lane_iterations = 0
    live = num_lanes  # per-lane change data does not exist before step 1

    for _ in range(options.max_iterations):
        active = frontier.ids() if options.worklist else scheduler.all_nodes()
        if len(active) == 0:
            converged = True
            break
        if options.worklist and frontier.is_dense:
            dense_iterations += 1
        lane_iterations += live if options.worklist else num_lanes
        changed, edges, live = superstep(active)
        iterations += 1
        edges_processed += edges
        if len(changed) == 0:
            converged = True
            break
        frontier = Frontier.from_ids(
            frontier.num_nodes, changed, dense_threshold=options.dense_threshold
        )
    return converged, iterations, edges_processed, dense_iterations, lane_iterations


def _apply_batch_lanes(
    batch: ThreadBatch,
    program: PushProgram,
    values: np.ndarray,
    read_values: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
) -> None:
    """:func:`_apply_batch` over ``(n, S)`` matrices: one edge gather
    feeds a fused relax + scatter per lane.

    Each lane is a strided column view, which keeps the scatter on
    ``ufunc.at``'s fast 1-D path (its 2-D form is ~100x slower per
    element); the column enters ``lane_relax`` as ``(E, 1)`` — the same
    elementwise arithmetic as a batched ``(E, S)`` call.
    ``filter_pushes`` is deliberately not consulted: no lane-safe
    program defines one, and a scalar mask cannot describe per-lane
    usefulness.
    """
    if batch.total_edges == 0:
        return
    eidx = batch.edge_indices()
    spe = batch.sources_per_edge()
    dst = targets[eidx]
    w = weights[eidx][:, None] if weights is not None else None
    for lane in range(values.shape[1]):
        candidates = program.lane_relax(read_values[:, lane][spe][:, None], w)
        program.reduce.scatter(values[:, lane], dst, candidates[:, 0])


def _apply_or(batch, program, new_w, frontier_w, targets, weights) -> None:
    """The hop step's launch: OR each thread's frontier word(s) into
    its destinations (commutative and idempotent: any edge order)."""
    if batch.total_edges:
        np.bitwise_or.at(
            new_w, targets[batch.edge_indices()],
            frontier_w[batch.sources_per_edge()],
        )


def _apply_batch(
    batch: ThreadBatch,
    program: PushProgram,
    values: np.ndarray,
    read_values: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
) -> None:
    """Relax one batch's edges and scatter-reduce into ``values``.

    ``read_values`` is the array source values are read from: the
    iteration-start snapshot under strict BSP, or ``values`` itself
    under synchronization relaxation.
    """
    if batch.total_edges == 0:
        return
    eidx = batch.edge_indices()
    src_vals = read_values[batch.sources_per_edge()]
    w = weights[eidx] if weights is not None else None
    candidates = program.relax(src_vals, w)
    dst = targets[eidx]
    mask = program.filter_pushes(candidates, src_vals)
    if mask is not None:
        dst = dst[mask]
        candidates = candidates[mask]
    program.reduce.scatter(values, dst, candidates)
