"""Process backend: backend parity, crash recovery, shared disk tier."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ServiceError, WorkerLost
from repro.graph.generators import rmat
from repro.service import AnalyticsService, QueryRequest, resolve_backend
from repro.service.executor import BACKEND_ENV
from repro.service.workers import (
    CRASH_SOURCE_ENV,
    BatchSpec,
    export_graph,
    spec_nbytes,
)


@pytest.fixture
def graph():
    return rmat(150, 1100, seed=9, weight_range=(1, 8))


def _values_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestBackendResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert resolve_backend("threads") == "threads"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert resolve_backend(None) == "processes"
        monkeypatch.delenv(BACKEND_ENV)
        assert resolve_backend(None) == "threads"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError, match="unknown worker backend"):
            resolve_backend("fibers")

    def test_service_reports_backend(self, graph):
        with AnalyticsService(workers=1, backend="threads") as svc:
            assert svc.backend == "threads"
            assert svc.metrics.backend == "threads"


class TestBackendParity:
    """Identical QueryResult values from both backends, per algorithm."""

    @pytest.mark.parametrize(
        "algorithm,sources",
        [
            ("bfs", (0, 3, 7)),
            ("sssp", (2, 5)),
            ("cc", ()),
            ("pr", ()),
        ],
    )
    def test_values_match_threads(self, graph, algorithm, sources):
        request = QueryRequest(algorithm, "g", sources=sources)
        with AnalyticsService(workers=2, backend="threads") as svc:
            svc.register("g", graph)
            via_threads = svc.run(request)
        with AnalyticsService(workers=2, backend="processes") as svc:
            svc.register("g", graph)
            via_processes = svc.run(request)
        assert via_threads.ok and via_processes.ok
        assert via_threads.transform == via_processes.transform
        assert via_threads.degree_bound == via_processes.degree_bound
        assert _values_equal(via_threads.values, via_processes.values)

    def test_udt_projection_parity(self, graph):
        # UDT results are projected back to original ids worker-side;
        # the reply must already be in the original node space.
        request = QueryRequest.single(
            "sssp", "g", 2, transform="udt", degree_bound=6
        )
        with AnalyticsService(workers=2, backend="threads") as svc:
            svc.register("g", graph)
            via_threads = svc.run(request)
        with AnalyticsService(workers=2, backend="processes") as svc:
            svc.register("g", graph)
            via_processes = svc.run(request)
        assert len(via_processes.value(2)) == graph.num_nodes
        assert np.array_equal(via_threads.value(2), via_processes.value(2))

    def test_batch_stays_intact_across_ipc(self, graph):
        # a coalesced batch crosses as ONE spec: every member shares
        # one plan and lane-parallel traversals still collapse
        requests = [
            QueryRequest.single("bfs", "g", s, request_id=100 + s)
            for s in (0, 1, 2, 0)  # duplicate source: dedup survives IPC
        ]
        with AnalyticsService(workers=2, backend="processes") as svc:
            svc.register("g", graph)
            tickets = svc.submit_batch(requests)
            results = [t.result(60) for t in tickets]
        assert all(r.ok for r in results)
        assert all(r.batched_with == 3 for r in results)
        assert np.array_equal(results[0].value(0), results[3].value(0))
        summary = svc.metrics.summary()
        assert summary["sources_deduped"] == 1
        assert summary["lanes_per_traversal"] == 3.0
        assert summary["traversals_saved"] == 2
        assert summary["ipc_bytes"] > 0

    def test_typed_library_errors_cross_ipc(self, graph):
        # SplitSafetyError is not picklable with its constructor args;
        # the message must still reach the caller verbatim.
        with AnalyticsService(workers=1, backend="processes") as svc:
            svc.register("g", graph)
            result = svc.run(QueryRequest("pr", "g", transform="udt"))
            assert not result.ok and "udt cannot serve pr" in result.error


class TestGraphStore:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_hosts_share_one_graph_export(self, graph, shards):
        # bfs, pr, bc and cc on a weighted graph read it or its unweighted
        # view: the hosts' one shared file is the graph's export
        with AnalyticsService(workers=1, backend="processes", shards=shards) as svc:
            svc.register("g", graph)
            for algorithm, sources in (("bfs", (0,)), ("pr", ()), ("bc", (0,)),
                                       ("cc", ())):
                result = svc.run(QueryRequest(algorithm, "g", sources=sources))
                # sharded, the first (bfs) request builds the shard set
                assert result.ok and result.cache_hit is (
                    shards == 0 or algorithm != "bfs")
            # one graph export, whichever requests reached the hosts
            store = svc._process.graphs_dir
            assert len([n for n in os.listdir(store) if n.endswith(".npz")]) == 1

    def test_graph_export_is_content_addressed(self, graph, tmp_path):
        first = export_graph(graph, str(tmp_path))
        second = export_graph(graph, str(tmp_path))
        assert first == second
        assert len([n for n in os.listdir(tmp_path) if n.endswith(".npz")]) == 1

    def test_spec_accounting_is_positive(self, graph, tmp_path):
        path = export_graph(graph, str(tmp_path))
        from repro.engine.push import EngineOptions

        spec = BatchSpec(
            graph_fingerprint=graph.fingerprint(),
            graph_path=path,
            algorithm="bfs",
            options=EngineOptions(),
            sources=(0, 1),
        )
        assert spec_nbytes(spec) > 0


class TestCrashRecovery:
    def test_crash_degrades_and_service_survives(self, graph, monkeypatch):
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        with AnalyticsService(workers=2, backend="processes") as svc:
            svc.register("g", graph)
            result = svc.run(QueryRequest.single("bfs", "g", 7))
            # typed degradation, not a hang: inline retry produced a
            # correct-but-degraded answer and the pool was replaced
            assert result.ok and result.degraded
            assert svc.metrics.summary()["worker_restarts"] >= 1
            monkeypatch.delenv(CRASH_SOURCE_ENV)
            healthy = svc.run(QueryRequest.single("bfs", "g", 7))
            assert healthy.ok and not healthy.degraded

    def test_one_crash_costs_one_batch(self, monkeypatch):
        # a 40-source bc is in flight on one host when the other host
        # crashes: only the crashing batch degrades, one host restarts
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        big = rmat(60000, 600000, seed=3, weight_range=(1, 8))
        with AnalyticsService(workers=2, backend="processes") as svc:
            svc.register("big", big)
            running = svc.submit(QueryRequest("bc", "big", sources=tuple(range(10, 50))))
            time.sleep(0.3)
            crashing = svc.submit(QueryRequest.single("bfs", "big", 7))
            survivor, crashed = running.result(120), crashing.result(120)
            summary = svc.metrics.summary()
        assert crashed.ok and crashed.degraded
        assert survivor.ok and not survivor.degraded
        assert summary["worker_restarts"] == 1

    def test_crash_without_fallback_fails_typed(self, graph, monkeypatch):
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        with AnalyticsService(
            workers=1, backend="processes", fallback=False
        ) as svc:
            svc.register("g", graph)
            result = svc.run(QueryRequest.single("bfs", "g", 7))
            assert not result.ok
            assert "worker lost" in result.error

    def test_worker_lost_is_a_service_error(self):
        error = WorkerLost("worker process died mid-batch", batch_size=3)
        assert isinstance(error, ServiceError)
        assert error.batch_size == 3
        assert "3 request(s) affected" in str(error)


def test_a_threads_boot_loads_no_process_machinery():
    code = (
        "import sys\n"
        "import repro.service.api\n"
        "from repro.service import AnalyticsService\n"
        "AnalyticsService(backend='threads', shards=2).close()\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src, "REPRO_SERVICE_WORKERS": "threads"},
    ).stdout
    assert out.strip() == "[]"
