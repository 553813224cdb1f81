"""Gunrock [69] — frontier-centric, load-balanced advance model.

Gunrock's advance operator partitions the frontier's edges evenly over
threads (perfect balance, coalesced-ish access) but pays for it: the
load-balancing search adds per-edge instructions, and each iteration
runs a multi-kernel advance + filter pipeline with compaction.  That
makes it much faster than MW/baseline on frontier analytics, yet
consistently behind Tigr-V+, whose virtual nodes get balance "for
free" from the data layout — the ~1.5–3× gaps of Table 4.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import gunrock_bytes
from repro.engine.push import EngineOptions
from repro.engine.schedule import EdgeParallelScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph


class GunrockMethod(Method):
    """Frontier-driven edge-parallel engine with pipeline overheads."""

    name = "gunrock"

    def __init__(self) -> None:
        self.profile = KernelProfile(
            name=self.name,
            # per-edge binary search / sorted-search load balancing.
            cycles_per_step=11.0,
            # each edge-thread locates its (source, edge) pair with a
            # binary search over the scanned frontier offsets.
            cycles_per_thread=60.0,
            instructions_per_edge=18.0,
            instructions_per_thread=24.0,
            # advance + filter + compaction kernels per iteration.
            launches_per_iteration=3,
        )

    def supports(self, algorithm: str) -> bool:
        # Gunrock ships no SSWP primitive (Table 4).
        return algorithm in ("bfs", "sssp", "cc", "bc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        return gunrock_bytes(graph, algorithm)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(EdgeParallelScheduler(graph)), algorithm, source,
            EngineOptions(worklist=True),
        )
        metrics = sim.metrics
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms, metrics=metrics,
        )
