"""The kernel simulator: traces in, timing/efficiency metrics out.

The warp model observes an engine run through a scheduler:
:meth:`GPUSimulator.attach` wraps the run's scheduler, and every
superstep launch the engine announces (``Scheduler.launched``) reaches
:meth:`GPUSimulator.record_iteration` as a
:class:`~repro.gpu.warp.WorkTrace`.  The simulator converts it to
cycles with the warp/memory model:

* per-warp compute cycles — SIMD steps × issue cost plus per-thread
  setup;
* per-warp memory cycles — coalescing-dependent edge traffic plus
  random value traffic;
* kernel makespan — warps scheduled across the device's warp slots:
  ``max(critical_warp, total / slots)``, which is where inter-warp
  load imbalance (a single monster warp) shows up;
* kernel launch overhead per iteration.

Device memory is checked once per run via :meth:`check_memory`
(Table 4's OOM behaviour).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.engine.schedule import Scheduler, ThreadBatch
from repro.errors import DeviceOutOfMemoryError
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.memory import edge_transactions, total_memory_cycles, value_transactions
from repro.gpu.metrics import IterationMetrics, RunMetrics
from repro.gpu.warp import WorkTrace, warp_statistics


class GPUSimulator:
    """Accumulates simulated cost over an algorithm run.

    One simulator instance models one algorithm execution; create a
    fresh one per run.  Not thread-safe (like the device it models,
    it processes one kernel at a time).
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        profile: Optional[KernelProfile] = None,
    ) -> None:
        self.config = config or GPUConfig()
        self.profile = profile or KernelProfile()
        self.metrics = RunMetrics()

    def attach(self, target: Target) -> Scheduler:
        """``target`` (a graph, virtual graph or scheduler) as a
        scheduler whose launches this simulator costs.

        Run any engine or analytic on the result and read the run
        totals from :attr:`metrics` afterwards.
        """
        return AttachedScheduler(resolve_scheduler(target), self)

    # ------------------------------------------------------------------
    # Memory footprint (OOM modelling)
    # ------------------------------------------------------------------
    def check_memory(self, required_bytes: int, what: str = "") -> None:
        """Raise :class:`DeviceOutOfMemoryError` if the working set
        exceeds the simulated device memory."""
        if required_bytes > self.config.device_memory_bytes:
            raise DeviceOutOfMemoryError(
                required_bytes, self.config.device_memory_bytes, what
            )

    # ------------------------------------------------------------------
    # Kernel cost
    # ------------------------------------------------------------------
    def record_iteration(self, trace: WorkTrace) -> IterationMetrics:
        """Cost one BSP iteration and add it to the run metrics."""
        cfg, prof = self.config, self.profile
        stats = warp_statistics(
            trace,
            warp_size=cfg.warp_size,
            word_bytes=cfg.word_bytes,
            transaction_bytes=cfg.transaction_bytes,
        )

        compute = (
            stats.steps * prof.cycles_per_step
            + stats.launched_lanes * prof.cycles_per_thread / cfg.warp_size
        )
        memory = total_memory_cycles(stats, cfg, prof)
        warp_cycles = compute + memory

        if stats.num_warps:
            critical = float(warp_cycles.max())
            throughput = float(warp_cycles.sum()) / cfg.warp_slots
            makespan = max(critical, throughput)
        else:
            makespan = 0.0
        makespan += cfg.kernel_launch_cycles * prof.launches_per_iteration

        instructions = (
            prof.instructions_per_edge * stats.total_edges
            + prof.instructions_per_thread * trace.num_threads
        )
        iteration = IterationMetrics(
            iteration=self.metrics.num_iterations,
            num_threads=trace.num_threads,
            edges_processed=stats.total_edges,
            simd_steps=stats.total_steps,
            cycles=makespan,
            time_ms=cfg.cycles_to_ms(makespan),
            instructions=instructions,
            edge_transactions=float(edge_transactions(stats, cfg).sum()),
            value_transactions=float(value_transactions(stats, prof).sum()),
            warp_efficiency=stats.warp_efficiency(cfg.warp_size),
        )
        self.metrics.add(iteration)
        return iteration

    def record_uniform_iterations(
        self, trace: WorkTrace, repetitions: int
    ) -> None:
        """Record the same trace ``repetitions`` times cheaply.

        All-active methods (Maximum Warp, CuSha's all-shards pass)
        execute an identical launch every iteration; costing the warp
        statistics once and replaying them avoids re-deriving the same
        numbers per iteration.
        """
        if repetitions <= 0:
            return
        first = self.record_iteration(trace)
        for i in range(1, repetitions):
            self.metrics.add(
                IterationMetrics(
                    iteration=first.iteration + i,
                    num_threads=first.num_threads,
                    edges_processed=first.edges_processed,
                    simd_steps=first.simd_steps,
                    cycles=first.cycles,
                    time_ms=first.time_ms,
                    instructions=first.instructions,
                    edge_transactions=first.edge_transactions,
                    value_transactions=first.value_transactions,
                    warp_efficiency=first.warp_efficiency,
                )
            )

    # ------------------------------------------------------------------
    def finish(self) -> RunMetrics:
        """The accumulated run metrics."""
        return self.metrics


class AttachedScheduler(Scheduler):
    """A scheduler whose every announced launch a simulator costs.

    It hands out its target's thread batches unchanged, so values and
    counters are the target's.  It is not walkable, so every
    compiled superstep declines and the run stays on the synchronous
    numpy bodies, which announce each launch.
    """

    def __init__(self, target: Scheduler, simulator: GPUSimulator) -> None:
        self.target = target
        self.graph = target.graph
        self.simulator = simulator

    def batch(self, active: np.ndarray) -> ThreadBatch:
        return self.target.batch(active)

    def all_nodes(self) -> np.ndarray:
        return self.target.all_nodes()

    def launched(self, batch: ThreadBatch) -> None:
        self.simulator.record_iteration(WorkTrace.of(batch))
