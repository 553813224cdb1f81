"""Sharded serving tier scaling: shard count vs throughput, with parity.

Not a paper table — the companion experiment to ``docs/sharding.md``:
it drives one synthetic workload through
:class:`~repro.service.AnalyticsService` at increasing ``shards=``
counts and reports queries/sec, latency percentiles, and the
scatter-gather accounting (supersteps, exchanged bytes).  The
``shards=1`` row is the honest baseline: a single-shard tier passes on
every batch, which then runs the plain single-engine pipeline, so the remaining rows price
exactly the scatter-gather machinery.

Every row also *proves* the digest-parity contract as it measures: the
values of each query are compared bitwise against the single-engine
answers, and a mismatch fails the experiment — the benchmark cannot
report a speedup for a tier that changed the answers.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from repro.bench.report import ExperimentReport
from repro.bench.service import _make_requests
from repro.graph.datasets import load_dataset
from repro.service import AnalyticsService, GraphCatalog, percentile


def sharded_scaling(
    scale: float = 1.0,
    *,
    dataset: str = "pokec",
    num_queries: int = 32,
    shard_counts: Sequence[int] = (1, 2, 3, 4),
    workers: int = 2,
    algorithms: List[str] = ("bfs", "sssp", "pr"),
    seed: int = 7,
) -> ExperimentReport:
    """One row per shard count over an identical query stream.

    Uses ``transform="none"`` so every algorithm (PageRank included)
    is eligible for the scatter-gather path — the point is to scale
    the superstep fan-out, not the transform planner.
    """
    report = ExperimentReport(
        "Sharded scaling",
        f"{num_queries} untransformed queries on {dataset}, {workers} "
        f"workers, shards {'/'.join(str(s) for s in shard_counts)}; "
        f"every row digest-checked against the single-engine answers",
    )
    graph = load_dataset(dataset, scale=scale)
    algorithms = list(algorithms)
    requests = _make_requests(
        dataset, graph.num_nodes, num_queries, algorithms, seed, "none"
    )

    baseline_values = None
    baseline_qps = None
    for shards in shard_counts:
        with AnalyticsService(
            GraphCatalog(), shards=shards, workers=workers,
            queue_size=max(128, num_queries),
        ) as service:
            service.register(dataset, graph)
            # warm the prepared-graph cache and the shard slices so the
            # timed pass measures steady-state serving, not partitioning
            for algorithm in algorithms:
                warmup = _make_requests(
                    dataset, graph.num_nodes, 1, [algorithm], 0, "none"
                )[0]
                assert service.run(warmup).ok
            start = time.perf_counter()
            tickets = service.submit_batch(requests)
            results = [t.result() for t in tickets]
            elapsed = time.perf_counter() - start
            assert all(r.ok for r in results)
            values = [r.values for r in results]
            if baseline_values is None:
                baseline_values = values
            else:
                for got, want in zip(values, baseline_values):
                    assert got.keys() == want.keys() and all(
                        np.array_equal(got[key], want[key]) for key in want
                    ), f"digest parity violated at shards={shards}"
            latencies = [r.timings.total_s for r in results]
            summary = service.metrics.summary()
            qps = num_queries / elapsed if elapsed > 0 else float("inf")
            if baseline_qps is None:
                baseline_qps = qps
            report.add_row(
                shards=shards,
                queries=num_queries,
                seconds=elapsed,
                qps=qps,
                p50_ms=percentile(latencies, 0.5) * 1e3,
                p95_ms=percentile(latencies, 0.95) * 1e3,
                sharded_batches=summary["sharded_batches"],
                supersteps=summary["shard_supersteps"],
                exchange_mb=summary["shard_exchange_bytes"] / 1e6,
            )
            report.extras[f"speedup_x{shards}"] = qps / baseline_qps
    report.extras["parity"] = "bitwise (all rows vs shards=1)"
    return report
