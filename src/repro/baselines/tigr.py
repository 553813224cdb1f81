"""Tigr methods: physical UDT and virtual (± coalescing) scheduling."""

from __future__ import annotations

import time
from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import baseline_bytes, tigr_virtual_bytes
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.core.weights import DumbWeight
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph


class TigrUDTMethod(Method):
    """``Tigr-UDT``: physically transform with Algorithm 1, then run
    the baseline engine on the transformed graph.

    Correct for the path/connectivity analytics via dumb weights
    (Corollaries 1–3).  PR and BC are not supported on physically
    transformed graphs: PR's push step would divide by the transformed
    outdegree, and level-synchronous BC cannot traverse 0-weight tree
    edges — the paper evaluates Tigr-UDT on SSSP only (Figure 13).
    """

    name = "tigr-udt"

    def __init__(self, degree_bound: int = 64) -> None:
        self.degree_bound = int(degree_bound)
        self.profile = KernelProfile(name=self.name)

    def supports(self, algorithm: str) -> bool:
        return algorithm in ("bfs", "sssp", "sswp", "cc")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        # The transformed graph is marginally larger (Table 5); the
        # worst observed growth at practical K is ~1.4%.
        return int(baseline_bytes(graph, algorithm) * 1.02)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        start = time.perf_counter()
        transformed = udt_transform(
            graph, self.degree_bound,
            dumb_weight=DumbWeight.for_algorithm(algorithm),
        )
        transform_seconds = time.perf_counter() - start

        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(NodeScheduler(transformed.graph)), algorithm, source,
            EngineOptions(worklist=True),
        )
        metrics = sim.metrics
        return MethodResult(
            method=self.name, algorithm=algorithm,
            values=transformed.read_values(values),
            time_ms=metrics.total_time_ms, metrics=metrics,
            transform_seconds=transform_seconds,
        )


class TigrVirtualMethod(Method):
    """``Tigr-V`` / ``Tigr-V+``: virtual node array scheduling.

    ``coalesced=True`` selects the edge-array-coalesced layout of
    Figure 12 (Tigr-V+, Algorithm 3).  Values stay per physical node
    — implicit value synchronization — so every analytic is supported
    and iteration counts match the untransformed graph (Theorem 2).
    """

    def __init__(self, degree_bound: int = 10, *, coalesced: bool = True) -> None:
        self.degree_bound = int(degree_bound)
        self.coalesced = bool(coalesced)
        self.name = "tigr-v+" if coalesced else "tigr-v"
        self.profile = KernelProfile(name=self.name)

    def supports(self, algorithm: str) -> bool:
        return algorithm in ("bfs", "sssp", "sswp", "cc", "bc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        return tigr_virtual_bytes(graph, algorithm, self.degree_bound)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        start = time.perf_counter()
        virtual = virtual_transform(graph, self.degree_bound, coalesced=self.coalesced)
        transform_seconds = time.perf_counter() - start

        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(VirtualScheduler(virtual)), algorithm, source,
            EngineOptions(worklist=True),
        )
        metrics = sim.metrics
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms, metrics=metrics,
            transform_seconds=transform_seconds,
        )
