"""Serving-layer throughput: warm cache must beat cold single-shot.

The acceptance bar for the serving layer mirrors §6.5's argument for
the transformations themselves: the transform is a one-time cost, so
a query stream that reuses it (warm catalog, batched fan-out) has to
outrun the same stream paying it per query.  The default mix (bfs,
sssp) builds nothing — only cc's symmetrised graph is a catalog
artifact — so its warm speedups price a service start per query and
batching, not a build.  The JSON artifact lands in ``results/``
alongside the regenerated paper tables.
"""

import os

from repro.bench import service_backend_sweep, service_throughput
from repro.bench.export import save_report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def test_service_throughput(run_once, bench_scale):
    report = run_once(service_throughput, scale=bench_scale)
    print()
    print(report.to_text())
    save_report(report, os.path.join(RESULTS_DIR, "service-throughput.json"))

    by_phase = {row["phase"]: row for row in report.rows}
    # a warm catalog serves every query without transform work...
    assert by_phase["warm-single"]["cache_hit_rate"] > 0.9
    assert by_phase["warm-batched"]["cache_hit_rate"] > 0.9
    # ...and beats cold single-shot on throughput, batched most of all
    assert report.extras["warm_single_speedup"] > 1.0
    assert report.extras["warm_batched_speedup"] > 1.0
    assert (
        by_phase["warm-batched"]["qps"] >= by_phase["cold-single"]["qps"]
    )


def test_service_backend_sweep(run_once, bench_scale):
    report = run_once(service_backend_sweep, scale=bench_scale)
    print()
    print(report.to_text())
    save_report(
        report, os.path.join(RESULTS_DIR, "service-backend-sweep.json")
    )

    cells = {(row["backend"], row["workers"]): row for row in report.rows}
    # both backends serve the whole warm workload from cache
    for row in report.rows:
        assert row["cache_hit_rate"] > 0.9
    # the thread backend never pays IPC; the process backend always does
    for (backend, _workers), row in cells.items():
        if backend == "threads":
            assert row["ipc_mb"] == 0.0
        else:
            assert row["ipc_mb"] > 0.0
    # The headline claim — processes beat threads on a warm
    # multi-client workload at >= 4 workers — needs hardware
    # parallelism to be true: with a single CPU the process backend
    # pays IPC for concurrency the machine cannot deliver.  The
    # recorded extras keep the numbers honest either way.
    if report.extras["cpu_count"] >= 2:
        assert report.extras["processes_vs_threads_x4"] > 1.0
