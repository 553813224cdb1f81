"""Serving-layer throughput: cold vs warm cache, single vs batched.

Not a paper table — this experiment prices the serving layer.  No
analytic builds anything (each reads the CSR or its one memoised
unweighted view; cc is a union-find over it), so the layer must show
(a) every query building nothing, and (b) batched multi-source traffic
beating the same queries issued one-by-one against a cold service.
Three phases over one dataset stand-in, which price a service start
per query and batching:

``cold-single``
    A fresh service per query.
``warm-single``
    One service, sequential queries.
``warm-batched``
    One service, requests submitted in batches: source dedup and
    shared fan-out.
"""

from __future__ import annotations

import io
import os
import random
import threading
import time
from typing import List

from repro.baselines.base import ALGORITHMS
from repro.bench.report import ExperimentReport
from repro.graph.datasets import load_dataset
from repro.service import AnalyticsService, GraphCatalog, QueryRequest


def _make_requests(
    name: str,
    num_nodes: int,
    count: int,
    algorithms: List[str],
    seed: int,
    transform: str,
) -> List[QueryRequest]:
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        algorithm = rng.choice(algorithms)
        if ALGORITHMS[algorithm].needs_source:
            requests.append(
                QueryRequest.single(
                    algorithm, name, rng.randrange(num_nodes), transform=transform
                )
            )
        else:
            requests.append(QueryRequest(algorithm, name, transform=transform))
    return requests


def service_throughput(
    scale: float = 1.0,
    *,
    dataset: str = "pokec",
    num_queries: int = 48,
    workers: int = 4,
    algorithms: List[str] = ("bfs", "sssp"),
    transform: str = "auto",
    seed: int = 7,
) -> ExperimentReport:
    """Queries/sec and latency percentiles across the three phases.

    ``transform`` names the requests' transform; every plan serves
    the CSR, so it changes what the requests say, not what they build.
    """
    report = ExperimentReport(
        "Service throughput",
        f"{num_queries} {transform} queries on {dataset}, {workers} workers, "
        f"algorithms {'/'.join(algorithms)}",
    )
    graph = load_dataset(dataset, scale=scale)
    algorithms = list(algorithms)

    def requests_for(name: str) -> List[QueryRequest]:
        return _make_requests(
            name, graph.num_nodes, num_queries, algorithms, seed, transform
        )

    # -- cold-single: a fresh catalog per query, no reuse at all -------
    start = time.perf_counter()
    latencies = []
    hits = 0
    for request in requests_for(dataset):
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            service.register(dataset, graph)
            t0 = time.perf_counter()
            result = service.run(request)
            latencies.append(time.perf_counter() - t0)
            assert result.ok and result.cache_hit  # nothing is built
            hits += result.cache_hit
    cold_elapsed = time.perf_counter() - start
    _add_phase(report, "cold-single", num_queries, cold_elapsed, latencies, hits / num_queries)

    # -- warm-single: shared catalog, sequential submission ------------
    with AnalyticsService(GraphCatalog(), workers=workers) as service:
        service.register(dataset, graph)
        for algorithm in algorithms:  # each analytic's first call (kernel compiles)
            service.run(_make_requests(
                dataset, graph.num_nodes, 1, [algorithm], 0, transform)[0])
        start = time.perf_counter()
        latencies = []
        for request in requests_for(dataset):
            t0 = time.perf_counter()
            result = service.run(request)
            latencies.append(time.perf_counter() - t0)
            assert result.ok and result.cache_hit
        warm_elapsed = time.perf_counter() - start
        _add_phase(
            report, "warm-single", num_queries, warm_elapsed, latencies,
            service.metrics.cache_hit_rate,
        )

    # -- warm-batched: shared catalog + coalesced submission -----------
    with AnalyticsService(GraphCatalog(), workers=workers) as service:
        service.register(dataset, graph)
        for algorithm in algorithms:
            service.run(_make_requests(
                dataset, graph.num_nodes, 1, [algorithm], 0, transform)[0])
        start = time.perf_counter()
        tickets = service.submit_batch(requests_for(dataset))
        results = [t.result() for t in tickets]
        batched_elapsed = time.perf_counter() - start
        assert all(r.ok and r.cache_hit for r in results)
        latencies = [r.timings.total_s for r in results]
        _add_phase(
            report, "warm-batched", num_queries, batched_elapsed, latencies,
            service.metrics.cache_hit_rate,
        )

    cold_qps = report.rows[0]["qps"]
    report.extras["warm_single_speedup"] = report.rows[1]["qps"] / cold_qps
    report.extras["warm_batched_speedup"] = report.rows[2]["qps"] / cold_qps
    return report


def service_backend_sweep(
    scale: float = 1.0,
    *,
    dataset: str = "pokec",
    num_queries: int = 48,
    workers_list: List[int] = (1, 2, 4),
    clients: int = 4,
    algorithms: List[str] = ("bfs", "sssp"),
    transform: str = "auto",
    seed: int = 7,
) -> ExperimentReport:
    """Threads vs processes on a warm multi-client workload.

    One row per ``(backend, workers)`` cell: ``clients`` concurrent
    client threads drain ``num_queries`` warm-cache queries through a
    shared service.  Warm is the honest comparison — a cold sweep
    measures graph preparation (identical work on both backends),
    not execution concurrency.  The process rows additionally pay
    graph export, spec/reply framing, and result IPC; whether that
    overhead is bought back depends on hardware parallelism, so the
    report records ``cpu_count`` and per-``workers`` speedup ratios in
    ``extras`` and leaves the verdict to the caller (the benchmark
    asserts processes win at >= 4 workers only on multi-core hosts;
    see ``docs/operations.md``).
    """
    report = ExperimentReport(
        "Service backend sweep",
        f"{num_queries} warm {transform} queries on {dataset}, "
        f"{clients} client threads, backends threads/processes, "
        f"workers {'/'.join(str(w) for w in workers_list)}",
    )
    graph = load_dataset(dataset, scale=scale)
    algorithms = list(algorithms)
    requests = _make_requests(
        dataset, graph.num_nodes, num_queries, algorithms, seed, transform
    )
    qps: dict = {}
    for backend in ("threads", "processes"):
        for workers in workers_list:
            with AnalyticsService(
                GraphCatalog(), workers=workers, backend=backend,
                queue_size=max(128, num_queries),
            ) as service:
                service.register(dataset, graph)
                for algorithm in algorithms:  # warm each preparation
                    warmup = _make_requests(
                        dataset, graph.num_nodes, 1, [algorithm], 0, transform
                    )[0]
                    assert service.run(warmup).ok
                if backend == "processes":
                    # every worker must have hydrated before timing:
                    # run one query per worker so no timed request
                    # pays a worker's first graph load
                    for _ in range(workers):
                        assert service.run(requests[0]).ok

                latencies: List[float] = []
                lock = threading.Lock()

                def client(shard: List[QueryRequest]) -> None:
                    mine = []
                    for request in shard:
                        t0 = time.perf_counter()
                        result = service.run(request)
                        mine.append(time.perf_counter() - t0)
                        assert result.ok
                    with lock:
                        latencies.extend(mine)

                shards = [requests[i::clients] for i in range(clients)]
                threads = [
                    threading.Thread(target=client, args=(shard,))
                    for shard in shards if shard
                ]
                start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                elapsed = time.perf_counter() - start
                qps[(backend, workers)] = num_queries / elapsed
                from repro.service import percentile

                report.add_row(
                    backend=backend,
                    workers=workers,
                    queries=num_queries,
                    seconds=elapsed,
                    qps=qps[(backend, workers)],
                    p50_ms=percentile(latencies, 0.5) * 1e3,
                    p95_ms=percentile(latencies, 0.95) * 1e3,
                    cache_hit_rate=service.metrics.cache_hit_rate,
                    ipc_mb=service.metrics.summary()["ipc_bytes"] / 1e6,
                )
    report.extras["cpu_count"] = os.cpu_count() or 1
    for workers in workers_list:
        report.extras[f"processes_vs_threads_x{workers}"] = (
            qps[("processes", workers)] / qps[("threads", workers)]
        )
    return report


def service_trace_replay(
    scale: float = 1.0,
    *,
    dataset: str = "pokec",
    num_queries: int = 48,
    workers: int = 4,
    algorithms: List[str] = ("bfs", "sssp"),
    transform: str = "auto",
    seed: int = 7,
    batch: int = 8,
) -> ExperimentReport:
    """Record a synthetic stream once, replay it on both backends.

    The trace-driven counterpart of :func:`service_throughput`: the
    record phase captures ``num_queries`` requests plus their result
    digests into an in-memory JSONL trace, then each replay phase
    re-drives a fresh service from that trace and diffs every digest
    (:func:`repro.service.replay_trace`).  One row per phase; the
    digest columns are the point — a throughput number from a replay
    whose answers drifted is not a benchmark, it is a bug report.
    """
    from repro.service import TraceRecorder, dataset_graph_entry, replay_trace

    report = ExperimentReport(
        "Service trace replay",
        f"{num_queries} {transform} queries on {dataset} recorded once, "
        f"replayed on threads and processes ({workers} workers, "
        f"submit window {batch})",
    )
    graph = load_dataset(dataset, scale=scale)
    algorithms = list(algorithms)
    requests = _make_requests(
        dataset, graph.num_nodes, num_queries, algorithms, seed, transform
    )
    recipes = {
        dataset: dataset_graph_entry(
            dataset, scale=scale, fingerprint=graph.fingerprint()
        )
    }

    # -- record: drive the stream once, capturing requests + digests ---
    sink = io.StringIO()
    recorder = TraceRecorder(sink, graphs=recipes)
    with AnalyticsService(
        GraphCatalog(), workers=workers, recorder=recorder,
        queue_size=max(128, num_queries),
    ) as service:
        service.register(dataset, graph)
        start = time.perf_counter()
        tickets = service.submit_batch(requests)
        results = [t.result() for t in tickets]
        record_elapsed = time.perf_counter() - start
        assert all(r.ok for r in results)
    recorder.close()
    trace_text = sink.getvalue()
    report.add_row(
        phase="record",
        backend="threads",
        queries=num_queries,
        seconds=record_elapsed,
        qps=num_queries / record_elapsed if record_elapsed > 0 else float("inf"),
        digests_checked=0,
        digests_matched=0,
    )
    report.extras["trace_lines"] = trace_text.count("\n")
    report.extras["trace_bytes"] = len(trace_text)

    # -- replay: same trace, fresh service per backend -----------------
    for backend in ("threads", "processes"):
        from repro.service import load_trace

        trace = load_trace(io.StringIO(trace_text))
        replay = replay_trace(
            trace,
            backend=backend,
            workers=workers,
            queue_size=max(128, num_queries),
            batch=batch,
            graphs={dataset: graph},
        )
        summary = replay.summary()
        assert replay.ok, "\n".join(str(m) for m in replay.mismatches)
        report.add_row(
            phase=f"replay-{backend}",
            backend=backend,
            queries=replay.requests_submitted,
            seconds=replay.elapsed_s,
            qps=replay.qps,
            digests_checked=summary["digests_checked"],
            digests_matched=summary["digests_matched"],
        )
    # -- replay-http: same trace again, through the network edge -------
    from repro.service import load_trace
    from repro.service.api import ThreadedApiServer, replay_trace_http

    trace = load_trace(io.StringIO(trace_text))
    with AnalyticsService(
        GraphCatalog(), workers=workers, queue_size=max(128, num_queries),
    ) as service:
        service.register(dataset, graph)
        with ThreadedApiServer(service) as handle:
            replay = replay_trace_http(
                trace, handle.address, batch=batch, check_graphs=True,
            )
        summary = replay.summary()
        assert replay.ok, "\n".join(str(m) for m in replay.mismatches)
        metrics = service.metrics.summary()
        report.add_row(
            phase="replay-http",
            backend="threads",
            queries=replay.requests_submitted,
            seconds=replay.elapsed_s,
            qps=replay.qps,
            digests_checked=summary["digests_checked"],
            digests_matched=summary["digests_matched"],
            http_p50_ms=metrics["http_p50_ms"],
            http_p95_ms=metrics["http_p95_ms"],
            http_rate_limited=metrics["http_rate_limited"],
        )

    report.extras["replay_threads_vs_record"] = (
        report.rows[1]["qps"] / report.rows[0]["qps"]
    )
    report.extras["replay_http_vs_threads"] = (
        report.rows[3]["qps"] / report.rows[1]["qps"]
    )
    return report


def _add_phase(
    report: ExperimentReport,
    phase: str,
    count: int,
    elapsed: float,
    latencies: List[float],
    hit_rate: float,
) -> None:
    from repro.service import percentile

    report.add_row(
        phase=phase,
        queries=count,
        seconds=elapsed,
        qps=count / elapsed if elapsed > 0 else float("inf"),
        p50_ms=percentile(latencies, 0.5) * 1e3,
        p95_ms=percentile(latencies, 0.95) * 1e3,
        cache_hit_rate=hit_rate,
    )
