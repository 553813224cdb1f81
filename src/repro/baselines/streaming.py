"""Out-of-memory streaming execution (GraphReduce/Graphie-class, §7.2).

Table 4's OOM rows assume a framework simply fails when its working
set exceeds device memory.  The §7.2 systems that "target the GPU
memory constraints" instead *stream*: the edge array is split into
partitions that fit, and every iteration ships the needed partitions
over PCIe before their kernel runs.

:class:`StreamingTigrMethod` wraps the Tigr-V+ engine with that
discipline: when the working set fits, it behaves identically to
:class:`~repro.baselines.tigr.TigrVirtualMethod`; when it does not,
the run completes anyway — at a simulated cost dominated by the
host-device transfers, quantifying exactly what the OOMing frameworks
leave on the table and what it would cost to rescue them.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import tigr_virtual_bytes
from repro.core.virtual import virtual_transform
from repro.engine.push import EngineOptions
from repro.engine.schedule import VirtualScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph

#: sustained host->device copy bandwidth, bytes per ms (PCIe 3.0 x16,
#: same scaling convention as repro.multigpu.InterconnectConfig).
STREAM_BANDWIDTH_BYTES_PER_MS = 1.2e7
#: fixed per-partition copy launch latency (ms, scaled).
STREAM_LATENCY_MS = 0.002


class StreamingTigrMethod(Method):
    """Tigr-V+ with GraphReduce-style partition streaming.

    The footprint check always passes (that is the point); the cost
    model adds, per iteration, the transfer time of every edge
    partition that does not fit resident.
    """

    name = "tigr-stream"

    def __init__(self, degree_bound: int = 10) -> None:
        self.degree_bound = int(degree_bound)
        self.profile = KernelProfile(name=self.name)

    def supports(self, algorithm: str) -> bool:
        return algorithm in ("bfs", "sssp", "sswp", "cc", "bc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        """Only the resident slice must fit: value arrays + one
        partition's edges.  Reported as the value arrays (the
        irreducible residency)."""
        return 4 * graph.num_nodes * 8

    def plan_streaming(self, graph: CSRGraph, config: GPUConfig):
        """``(num_partitions, bytes_streamed_per_full_sweep)``.

        The value arrays and virtual node array stay resident; the
        edge array is divided into equal partitions sized to the
        remaining memory.  One full sweep streams every partition once.
        """
        total = tigr_virtual_bytes(graph, "any", self.degree_bound)
        resident = self.footprint(graph, "any")
        edge_bytes = total - resident
        budget = max(config.device_memory_bytes - resident, 1)
        partitions = max(1, math.ceil(edge_bytes / budget))
        if partitions == 1:
            return 1, 0  # fits: nothing streams
        return partitions, edge_bytes

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        start = time.perf_counter()
        virtual = virtual_transform(graph, self.degree_bound, coalesced=True)
        transform_seconds = time.perf_counter() - start

        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(VirtualScheduler(virtual)), algorithm, source,
            EngineOptions(worklist=True),
        )
        metrics = sim.metrics
        partitions, sweep_bytes = self.plan_streaming(graph, config)
        # Frontier iterations touch a subset of partitions; charge
        # proportionally to the fraction of edges actually processed.
        total_edges = max(graph.num_edges, 1)
        streamed_bytes = 0.0
        stream_ms = 0.0
        if partitions > 1:
            for it in metrics.iterations:
                fraction = min(1.0, it.edges_processed / total_edges)
                touched = max(1, math.ceil(fraction * partitions))
                it_bytes = sweep_bytes * touched / partitions
                streamed_bytes += it_bytes
                stream_ms += (
                    STREAM_LATENCY_MS * touched
                    + it_bytes / STREAM_BANDWIDTH_BYTES_PER_MS
                )
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms + stream_ms, metrics=metrics,
            transform_seconds=transform_seconds,
            notes={
                "partitions": float(partitions),
                "stream_ms": stream_ms,
                "streamed_bytes": streamed_bytes,
            },
        )
