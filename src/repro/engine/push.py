"""The push-based BSP engine (§2.1, Algorithm 2).

One iteration: schedule the active nodes into threads, gather each
thread's edges, relax along every edge, scatter-reduce candidates into
destination values, and detect changes.  With the worklist
optimization (§5) only changed nodes are active next iteration; with
synchronization relaxation the launch is processed in sequential
blocks so later blocks see values computed earlier in the same
iteration.

:func:`run_push_lanes` is the lane-parallel (multi-source) mode: one
BSP pass carries ``S`` per-source lanes, values are an ``(n, S)``
matrix, the frontier is the union of per-lane frontiers, and one edge
gather serves every lane.  Unweighted hop-count programs additionally
take an MS-BFS fast path whose per-node visited sets are bit-packed
into ``uint64`` words, so frontier propagation costs ``O(E * S/64)``
instead of ``O(E * S)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import EngineError
from repro.engine import kernels
from repro.engine.frontier import DENSE_THRESHOLD, Frontier, LaneFrontier
from repro.engine.kernels import KernelBackend, KernelSpec
from repro.engine.program import PushProgram
from repro.engine.schedule import Scheduler, ThreadBatch
from repro.gpu.metrics import RunMetrics
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import NODE_DTYPE


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
        relaxation", §5), which can only speed up convergence for
        monotone programs.
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
        ``$REPRO_KERNEL_BACKEND`` and then to the measured cost
        model's ``auto`` choice.  Every backend is bitwise identical;
        this knob only trades speed.
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

    A JIT backend runs the whole step compiled, walking the
    scheduler's ``walk_layout()`` in ``batch()`` order (same folds,
    bitwise-equal values and changed sets).  Simulator runs,
    ``sync_relaxation_blocks > 1`` (later blocks re-read ``out``),
    unwalkable schedulers and any gate failure take the numpy path.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        program: PushProgram,
        options: EngineOptions,
        simulator: Optional[GPUSimulator] = None,
    ) -> None:
        graph = scheduler.graph
        if options.sync_relaxation_blocks < 1:
            raise EngineError("sync_relaxation_blocks must be >= 1")
        if program.needs_weights and graph.weights is None:
            raise EngineError(f"program {program.name!r} needs edge weights")
        self.scheduler = scheduler
        self.program = program
        self.simulator = simulator
        self.blocks = options.sync_relaxation_blocks
        self.backend = kernels.resolve_backend(
            options.kernel_backend, edges=graph.num_edges
        )
        self.spec = kernels.spec_for(program) if self.backend.jit else None
        self.walk = (
            scheduler.walk_layout()
            if simulator is None and self.blocks == 1 else None
        )
        # per-run, never shared: the compiled walk's destination marks
        # (all zero between steps) and changed-id buffer (+1 spare slot)
        self.scratch = (
            np.zeros(graph.num_nodes, dtype=np.uint8),
            np.empty(graph.num_nodes + 1, dtype=NODE_DTYPE),
        ) if self.backend.jit and self.walk is not None else None

    def __call__(
        self, out: np.ndarray, read: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        graph = self.scheduler.graph
        stepped = self.backend.try_push_step(
            self.spec, out, read, active, self.walk,
            graph.targets, graph.weights, self.scratch,
        )
        if stepped is not None:
            return stepped
        batch = self.scheduler.batch(active)
        if self.simulator is not None:
            self.simulator.record_iteration(batch.trace())
        if self.blocks == 1:
            _apply_batch(batch, self.program, out, read,
                         graph.targets, graph.weights)
        else:
            bounds = np.linspace(
                0, batch.num_threads, self.blocks + 1
            ).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    # later blocks read values already updated: relaxation
                    _apply_batch(
                        batch.slice(int(lo), int(hi)), self.program,
                        out, out, graph.targets, graph.weights,
                    )
        return np.flatnonzero(out != read), batch.total_edges


def run_push(
    scheduler: Scheduler,
    program: PushProgram,
    source: Optional[int] = None,
    *,
    options: EngineOptions = EngineOptions(),
    simulator: Optional[GPUSimulator] = None,
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
    simulator:
        Optional :class:`~repro.gpu.simulator.GPUSimulator`; when
        given, each iteration's thread batch is costed and
        ``result.metrics`` carries the run totals.
    """
    n = scheduler.graph.num_nodes
    step = PushStep(scheduler, program, options, simulator)
    values = program.initial_values(n, source)
    read = values.copy()
    frontier = Frontier.from_ids(
        n, program.initial_frontier(n, source),
        dense_threshold=options.dense_threshold,
    )

    converged = False
    iterations = 0
    edges_processed = 0
    dense_iterations = 0

    for _ in range(options.max_iterations):
        active = frontier.ids() if options.worklist else scheduler.all_nodes()
        if len(active) == 0:
            converged = True
            break
        if options.worklist and frontier.is_dense:
            dense_iterations += 1
        changed, edges = step(values, read, active)
        iterations += 1
        edges_processed += edges
        if len(changed) == 0:
            converged = True
            break
        read[changed] = values[changed]
        frontier = Frontier.from_ids(
            n, changed, dense_threshold=options.dense_threshold
        )

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} did not converge within {options.max_iterations} iterations"
        )
    return EngineResult(
        values=values,
        num_iterations=iterations,
        converged=converged,
        metrics=simulator.finish() if simulator is not None else None,
        edges_processed=edges_processed,
        dense_iterations=dense_iterations,
    )


def run_push_lanes(
    scheduler: Scheduler,
    program: PushProgram,
    sources: Sequence[int],
    *,
    options: EngineOptions = EngineOptions(),
    simulator: Optional[GPUSimulator] = None,
) -> EngineResult:
    """Run one push pass carrying a lane per source.

    Column ``k`` of ``result.values`` is bitwise-identical to
    ``run_push(scheduler, program, sources[k], options=options).values``
    — the union frontier only *adds* relaxations of unchanged lane
    values, which an idempotent reduction folds away, and every float
    candidate is the same path expression either way.

    Requires ``program.lane_safe`` (idempotent reduction); ADD-based
    programs would double-count the redundant pushes and are refused.
    """
    graph = scheduler.graph
    n = graph.num_nodes
    num_lanes = len(sources)
    if not program.lane_safe:
        raise EngineError(
            f"program {program.name!r} is not lane-safe: its "
            f"{program.reduce.value} reduction is not idempotent"
        )
    if options.sync_relaxation_blocks < 1:
        raise EngineError("sync_relaxation_blocks must be >= 1")
    if program.needs_weights and graph.weights is None:
        raise EngineError(f"program {program.name!r} needs edge weights")
    if num_lanes == 0:
        return EngineResult(
            values=np.zeros((n, 0)), num_iterations=0, converged=True,
            metrics=simulator.finish() if simulator is not None else None,
            num_lanes=0,
        )

    backend = kernels.resolve_backend(
        options.kernel_backend, edges=graph.num_edges
    )
    spec = kernels.spec_for(program) if backend.jit else None

    if (
        program.unit_hop_metric
        and graph.weights is None
        and options.worklist
        and options.sync_relaxation_blocks == 1
    ):
        return _run_bitpacked_hops(
            scheduler, program, sources, options=options,
            simulator=simulator, backend=backend,
        )

    # lane-major (S, n) layout internally: each lane's values live in
    # one contiguous row, keeping the per-lane relax and scatter on
    # ufunc.at's fast 1-D path (its 2-D form is ~100x slower/element)
    values_t = np.ascontiguousarray(program.initial_lane_values(n, sources).T)
    frontier = LaneFrontier.from_union_ids(
        n, program.initial_lane_frontier(n, sources), num_lanes,
        dense_threshold=options.dense_threshold,
    )
    weights = graph.weights
    targets = graph.targets

    converged = False
    iterations = 0
    edges_processed = 0
    dense_iterations = 0
    lane_iterations = 0

    for _ in range(options.max_iterations):
        active = frontier.ids() if options.worklist else scheduler.all_nodes()
        if len(active) == 0:
            converged = True
            break
        if options.worklist and frontier.is_dense:
            dense_iterations += 1
        batch = scheduler.batch(active)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1
        edges_processed += batch.total_edges
        lane_iterations += (
            frontier.active_lanes if options.worklist else num_lanes
        )

        before_t = values_t.copy()
        if options.sync_relaxation_blocks == 1:
            _apply_batch_lanes(
                batch, program, values_t, before_t, targets, weights,
                backend=backend, spec=spec,
            )
        else:
            bounds = np.linspace(
                0, batch.num_threads, options.sync_relaxation_blocks + 1
            ).astype(np.int64)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi > lo:
                    _apply_batch_lanes(
                        batch.slice(int(lo), int(hi)),
                        program, values_t, values_t, targets, weights,
                        backend=backend, spec=spec,
                    )

        changed_t = values_t != before_t
        if not changed_t.any():
            converged = True
            break
        frontier = LaneFrontier.from_lane_mask(
            n, changed_t.T, dense_threshold=options.dense_threshold
        )

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (lanes) did not converge within "
            f"{options.max_iterations} iterations"
        )
    return EngineResult(
        values=np.ascontiguousarray(values_t.T),
        num_iterations=iterations,
        converged=converged,
        metrics=simulator.finish() if simulator is not None else None,
        edges_processed=edges_processed,
        dense_iterations=dense_iterations,
        num_lanes=num_lanes,
        lane_iterations=lane_iterations,
    )


def _apply_batch_lanes(
    batch: ThreadBatch,
    program: PushProgram,
    values_t: np.ndarray,
    read_values_t: np.ndarray,
    targets: np.ndarray,
    weights: Optional[np.ndarray],
    *,
    backend: Optional[KernelBackend] = None,
    spec: Optional[KernelSpec] = None,
) -> None:
    """One launch, all lanes: a single edge gather feeds per-lane
    fused relax + scatter.

    Values are lane-major ``(S, n)``.  Each lane's source values enter
    ``lane_relax`` as an ``(E, 1)`` column — the same elementwise
    arithmetic as a batched ``(E, S)`` call, so results are bitwise
    identical — and its candidates scatter through ``ufunc.at``'s fast
    contiguous 1-D path.  ``filter_pushes`` is deliberately not
    consulted here: no lane-safe program defines one, and a scalar
    mask cannot describe per-lane usefulness.

    A JIT kernel backend can take the whole launch — all lanes, no
    edge-array temporaries — and is bitwise identical (same gather
    order, same folds); any gate failure falls through to numpy.
    """
    if batch.total_edges == 0:
        return
    if backend is not None and backend.try_push_lanes(
        spec, values_t, read_values_t, batch, targets, weights
    ):
        return
    eidx = batch.edge_indices()
    spe = batch.sources_per_edge()
    dst = targets[eidx]
    w = weights[eidx][:, None] if weights is not None else None
    for lane in range(values_t.shape[0]):
        candidates = program.lane_relax(read_values_t[lane][spe][:, None], w)
        program.reduce.scatter(values_t[lane], dst, candidates[:, 0])


def _run_bitpacked_hops(
    scheduler: Scheduler,
    program: PushProgram,
    sources: Sequence[int],
    *,
    options: EngineOptions,
    simulator: Optional[GPUSimulator],
    backend: Optional[KernelBackend] = None,
) -> EngineResult:
    """MS-BFS fast path: per-node visited sets bit-packed into uint64.

    Level-synchronous BFS discovers each node at its exact hop count,
    so the distance matrix equals the generic engine's fixed point
    bitwise (hop counts are small integers, exactly representable).
    Frontier propagation is an OR-scatter over ``ceil(S/64)`` words
    per edge — 64 lanes ride one machine word.
    """
    graph = scheduler.graph
    n = graph.num_nodes
    num_lanes = len(sources)
    words = (num_lanes + 63) // 64
    targets = graph.targets

    src_ids = np.asarray(sources, dtype=np.int64)
    lanes = np.arange(num_lanes, dtype=np.int64)
    visited = np.zeros((n, words), dtype=np.uint64)
    frontier_bits = np.zeros((n, words), dtype=np.uint64)
    np.bitwise_or.at(
        frontier_bits,
        (src_ids, lanes // 64),
        np.uint64(1) << (lanes % 64).astype(np.uint64),
    )
    visited |= frontier_bits

    values = np.full((n, num_lanes), np.inf)
    values[src_ids, lanes] = 0.0
    # single-word masks (the max_lanes=64 default) run on flat (n,)
    # arrays: ufunc.at's contiguous 1-D loop and 1-D gathers are far
    # faster than their 2-D forms
    flat = words == 1

    visited_w = visited[:, 0] if flat else visited
    frontier_w = frontier_bits[:, 0] if flat else frontier_bits
    values_flat = values.reshape(-1)

    active = np.unique(src_ids).astype(NODE_DTYPE)
    converged = False
    iterations = 0
    edges_processed = 0
    dense_iterations = 0
    lane_iterations = 0
    level = 0

    for _ in range(options.max_iterations):
        if len(active) == 0:
            converged = True
            break
        batch = scheduler.batch(active)
        if simulator is not None:
            simulator.record_iteration(batch.trace())
        iterations += 1
        edges_processed += batch.total_edges
        lane_iterations += _popcount(frontier_w[active])
        if len(active) >= options.dense_threshold * max(n, 1):
            dense_iterations += 1

        new_w = np.zeros_like(visited_w)
        if batch.total_edges:
            # the OR is commutative and idempotent, so the fused
            # kernel's edge order cannot matter — bitwise equal either
            # way (the flat single-word form is the only one fused)
            if not (flat and backend is not None and backend.try_or_scatter(
                new_w, frontier_w, batch, targets
            )):
                eidx = batch.edge_indices()
                np.bitwise_or.at(
                    new_w, targets[eidx], frontier_w[batch.sources_per_edge()]
                )
        new_w &= ~visited_w
        level += 1

        fresh = np.flatnonzero(new_w if flat else new_w.any(axis=1))
        if len(fresh) == 0:
            converged = True
            break
        fresh_words = new_w[fresh]
        np.bitwise_or.at(visited_w, fresh, fresh_words)
        # unpack only the freshly discovered rows into lane columns;
        # the fill goes through a flat 1-D index (2-D fancy assignment
        # pays a slow pair-iteration path)
        unpacked = np.unpackbits(
            (fresh_words[:, None] if flat else fresh_words).view(np.uint8),
            axis=1, bitorder="little",
        )[:, :num_lanes]
        rows, cols = np.nonzero(unpacked)
        values_flat[fresh[rows] * num_lanes + cols] = float(level)
        frontier_w = new_w
        active = fresh.astype(NODE_DTYPE)

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (lanes) did not converge within "
            f"{options.max_iterations} iterations"
        )
    return EngineResult(
        values=values,
        num_iterations=iterations,
        converged=converged,
        metrics=simulator.finish() if simulator is not None else None,
        edges_processed=edges_processed,
        dense_iterations=dense_iterations,
        num_lanes=num_lanes,
        lane_iterations=lane_iterations,
    )


def _popcount(bits: np.ndarray) -> int:
    """Total set bits across a uint64 array (lanes live this level)."""
    if bits.size == 0:
        return 0
    return int(
        np.unpackbits(np.ascontiguousarray(bits).view(np.uint8)).sum()
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
