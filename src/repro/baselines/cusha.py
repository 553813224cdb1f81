"""CuSha [32] — shard-based processing model.

CuSha reorganises the graph into G-Shards (or Concatenated Windows):
edges grouped by destination shard, processed edge-parallel with fully
coalesced loads and privatised (shared-memory) value accumulation.
Two things follow, both visible in Table 4:

* superb per-edge efficiency — CuSha wins PR (all nodes active every
  iteration is exactly the workload shards are built for) and is
  competitive on early-dense analytics like CC;
* the whole edge array streams through every iteration regardless of
  frontier size, so sparse-frontier analytics (BFS, SSSP) pay for
  every edge each round — and the edge-replicated representation
  OOMs first on the largest graphs.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines._run import run_algorithm
from repro.baselines.base import Method, MethodResult
from repro.baselines.memory import cusha_bytes
from repro.engine.push import EngineOptions
from repro.engine.schedule import EdgeParallelScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph


class CuShaMethod(Method):
    """Edge-parallel all-active processing with shard-privatised values."""

    name = "cusha"

    def __init__(self) -> None:
        self.profile = KernelProfile(
            name=self.name,
            # shards privatise value updates into shared memory and
            # write back once per shard: far fewer random transactions.
            value_access_factor=0.3,
            cycles_per_step=5.0,
            # compute+writeback kernel pair per iteration.
            launches_per_iteration=2,
        )

    def supports(self, algorithm: str) -> bool:
        # the public CuSha repository lacks BC (Table 4).
        return algorithm in ("bfs", "sssp", "sswp", "cc", "pr")

    def footprint(self, graph: CSRGraph, algorithm: str) -> int:
        return cusha_bytes(graph, algorithm)

    def _execute(
        self, graph: CSRGraph, algorithm: str, source: Optional[int], config: GPUConfig
    ) -> MethodResult:
        sim = GPUSimulator(config, self.profile)
        values, _ = run_algorithm(
            sim.attach(EdgeParallelScheduler(graph)), algorithm, source,
            EngineOptions(worklist=False),
        )
        metrics = sim.metrics
        return MethodResult(
            method=self.name, algorithm=algorithm, values=values,
            time_ms=metrics.total_time_ms, metrics=metrics,
        )
