"""Maximum Warp [23] — sub-warp decomposition, modelled faithfully.

MW splits each 32-lane warp into virtual warps of ``w`` lanes and
gives each node ``w`` lanes to process its edges in parallel.  No
single ``w`` fits a power-law graph: small ``w`` leaves hub nodes with
thousands of sequential steps, large ``w`` wastes lanes on the
low-degree majority — the tension Tigr's splitting removes.  Following
the paper's methodology ("for MW with varying virtual warp sizes, the
best performance is chosen"), :class:`MaxWarpMethod` costs every
``w`` in {2,4,8,16,32} and reports the fastest.

The MW harness (from the CuSha repository) processes every node each
iteration — no worklist — so each iteration's launch is identical and
is costed once then replayed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import maxwarp_bytes
from repro.engine.push import EngineOptions
from repro.engine.schedule import MaxWarpScheduler, NodeScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.gpu.warp import WorkTrace
from repro.graph.csr import CSRGraph

#: virtual warp sizes evaluated, as in [23].
VIRTUAL_WARP_SIZES: Tuple[int, ...] = (2, 4, 8, 16, 32)


class MaxWarpMethod(Method):
    """Best-of-``w`` virtual warp execution, all nodes every iteration."""

    name = "mw"

    def __init__(self) -> None:
        self.profile = KernelProfile(name=self.name)

    def supports(self, algorithm: str) -> bool:
        # the MW implementation used in the paper lacks BC (Table 4).
        return algorithm in ("bfs", "sssp", "sswp", "cc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        return maxwarp_bytes(graph, algorithm)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        # Semantics once (results and iteration count are independent
        # of w — MW only changes the thread execution model).
        values, iterations = run_algorithm(
            NodeScheduler(graph), algorithm, source,
            EngineOptions(worklist=False),
        )

        best_metrics = None
        best_w = None
        all_nodes = None
        for w in VIRTUAL_WARP_SIZES:
            scheduler = MaxWarpScheduler(graph, w)
            if all_nodes is None:
                all_nodes = scheduler.all_nodes()
            trace = WorkTrace.of(scheduler.batch(all_nodes))
            simulator = GPUSimulator(config, self.profile)
            simulator.record_uniform_iterations(trace, iterations)
            metrics = simulator.finish()
            if best_metrics is None or metrics.total_time_ms < best_metrics.total_time_ms:
                best_metrics, best_w = metrics, w

        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=best_metrics.total_time_ms, metrics=best_metrics,
            notes={"virtual_warp_size": float(best_w)},
        )
