"""The paper's lightweight GPU engine with Tigr disabled (``baseline``).

One thread per node over plain CSR, worklist enabled — the reference
point for Figure 13's speedups.  Its inefficiency on power-law graphs
is the intra/inter-warp load imbalance of §2.3: a warp containing one
hub node idles 31 lanes for thousands of SIMD steps.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import baseline_bytes
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph


class BaselineMethod(Method):
    """Node-scheduled engine on the untransformed graph."""

    name = "baseline"

    def __init__(self, *, worklist: bool = True) -> None:
        self.worklist = worklist
        self.profile = KernelProfile(name=self.name)

    def supports(self, algorithm: str) -> bool:
        return algorithm in ("bfs", "sssp", "sswp", "cc", "bc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        return baseline_bytes(graph, algorithm)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(NodeScheduler(graph)), algorithm, source,
            EngineOptions(worklist=self.worklist),
        )
        metrics = sim.metrics
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms, metrics=metrics,
        )
