"""Subway-style active-subgraph streaming (the notable follow-on).

Subway (Sabet, Zhao & Gupta, EuroSys'20 — the same group's sequel to
Tigr) observed that when a graph exceeds device memory, streaming
*whole partitions* (GraphReduce-class, `repro.baselines.streaming`)
ships mostly-inactive edges: in frontier analytics only a sliver of
the graph is active per iteration.  Subway instead generates, each
iteration, the compact subgraph of the *active* vertices' edges and
transfers exactly that.

:class:`SubwayMethod` models the idea on top of the Tigr-V+ engine:
identical results, never OOMs, and its per-iteration transfer volume
is the active edges (plus a subgraph-generation cost on the host
side), which the comparison test shows undercuts partition streaming
by a wide margin on frontier analytics.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.streaming import (
    STREAM_BANDWIDTH_BYTES_PER_MS,
    STREAM_LATENCY_MS,
    StreamingTigrMethod,
)
from repro.core.virtual import virtual_transform
from repro.engine.push import EngineOptions
from repro.engine.schedule import VirtualScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph

#: bytes per transferred edge record of the generated subgraph
#: (target + weight, like the resident layout).
SUBGRAPH_EDGE_BYTES = 16
#: host-side subgraph generation throughput, edges per ms (SIMD scan
#: over the offsets + gather; scaled like the other host constants).
GENERATION_EDGES_PER_MS = 5.0e5


class SubwayMethod(Method):
    """Tigr-V+ with per-iteration active-subgraph transfers.

    Only charged when the full working set exceeds device memory —
    when everything fits, the graph loads once and Subway degenerates
    to plain Tigr-V+ (as the real system does).
    """

    name = "tigr-subway"

    def __init__(self, degree_bound: int = 10) -> None:
        self.degree_bound = int(degree_bound)
        self.profile = KernelProfile(name=self.name)
        self._fits_helper = StreamingTigrMethod(degree_bound)

    def supports(self, algorithm: str) -> bool:
        return algorithm in ("bfs", "sssp", "sswp", "cc", "bc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        """Resident set: value arrays plus the largest per-iteration
        active subgraph is bounded by the budget by construction."""
        return 4 * graph.num_nodes * 8

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

        partitions, _ = self._fits_helper.plan_streaming(graph, config)
        stream_ms = 0.0
        streamed_bytes = 0.0
        generation_ms = 0.0
        if partitions > 1:  # oversubscribed: Subway kicks in
            for it in metrics.iterations:
                it_bytes = it.edges_processed * SUBGRAPH_EDGE_BYTES
                streamed_bytes += it_bytes
                stream_ms += STREAM_LATENCY_MS + it_bytes / STREAM_BANDWIDTH_BYTES_PER_MS
                generation_ms += it.edges_processed / GENERATION_EDGES_PER_MS
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms + stream_ms + generation_ms,
            metrics=metrics,
            transform_seconds=transform_seconds,
            notes={
                "oversubscribed": float(partitions > 1),
                "stream_ms": stream_ms,
                "generation_ms": generation_ms,
                "streamed_bytes": streamed_bytes,
            },
        )
