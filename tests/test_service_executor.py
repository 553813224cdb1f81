"""AnalyticsService: concurrency, timeouts, cancellation, planning."""

import functools
import threading
import time

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS, connected_components, pagerank, sssp
from repro.algorithms.reference import reference_bfs
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.core.weights import DumbWeight
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.errors import ServiceError
from repro.graph.builder import to_undirected
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    TransformArtifact,
)
from repro.service.batching import group_requests
from repro.service.planner import UDT_EXECUTABLE
from tests.catalog_cells import get


@pytest.fixture
def graph():
    return rmat(150, 1100, seed=9, weight_range=(1, 8))


@pytest.fixture
def service(graph):
    with AnalyticsService(workers=2, queue_size=32) as svc:
        svc.register("g", graph)
        yield svc


class TestRequestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ServiceError):
            QueryRequest("dijkstra", "g", sources=(0,))

    def test_source_required(self):
        with pytest.raises(ServiceError):
            QueryRequest("sssp", "g")

    def test_sourceless_rejects_sources(self):
        with pytest.raises(ServiceError):
            QueryRequest("pr", "g", sources=(0,))

    def test_unknown_transform(self):
        with pytest.raises(ServiceError):
            QueryRequest("sssp", "g", sources=(0,), transform="cliq")

    def test_bad_timeout(self):
        with pytest.raises(ServiceError):
            QueryRequest("sssp", "g", sources=(0,), timeout_s=0.0)

    def test_unknown_registered_graph(self, service):
        with pytest.raises(ServiceError, match="unknown graph"):
            service.run(QueryRequest.single("sssp", "nope", 0))


class TestResultsMatchDirectCalls:
    """The serving layer must be a pure optimisation, never a semantic."""

    def test_warm_query_zero_transform_work_on_standin(self):
        # Acceptance criterion: warm-cache query on a Table 3 stand-in
        # does zero transform work and matches repro.algorithms exactly.
        graph = load_dataset("pokec", scale=0.2)
        # (cc builds nothing: a union-find over the CSR as it is; a
        # named udt plans `none`)
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=2) as service:
            service.register("pokec", graph)
            cold = service.run(QueryRequest(
                "cc", "pokec", transform="udt", degree_bound=8
            ))
            warm = service.run(QueryRequest(
                "cc", "pokec", transform="udt", degree_bound=8
            ))
            assert cold.cache_hit and warm.cache_hit
            # zero build work on either path, per cache counters (the
            # process backend's hosts keep catalogs of their own; its
            # paths are pinned by cache_hit above)
            assert catalog.stats.builds == catalog.stats.misses == 0
            assert np.array_equal(
                warm.value(), connected_components(
                    to_undirected(graph.without_weights())).values
            )

    def test_auto_plan_serves_the_csr(self, graph):
        # auto builds nothing: an unweighted graph needs no preparation
        # and the plan reads no transform; a named virtual+ plans the same
        unweighted = graph.without_weights()
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1) as service:
            service.register("uw", unweighted)
            result = service.run(QueryRequest.single("bfs", "uw", 0))
            vplus = service.run(
                QueryRequest.single("bfs", "uw", 0, transform="virtual+")
            )
            assert catalog.stats.builds == 0 and len(catalog) == 0
        assert result.transform == "none" and result.degree_bound == 0
        assert result.cache_hit and vplus.transform == "none"
        assert np.array_equal(result.value(0), vplus.value(0))
        assert np.array_equal(result.value(0), reference_bfs(unweighted, 0))

    def test_udt_plan_projects_back(self, service, graph):
        result = service.run(
            QueryRequest.single("sssp", "g", 2, transform="udt", degree_bound=6)
        )
        transformed = udt_transform(graph, 6, dumb_weight=DumbWeight.ZERO)
        direct = sssp(transformed.graph, 2)
        assert np.array_equal(
            result.value(2), transformed.read_values(direct.values)
        )
        assert len(result.value(2)) == graph.num_nodes

    def test_none_plan_runs_raw_csr(self, service, graph):
        result = service.run(QueryRequest.single("sssp", "g", 0, transform="none"))
        assert result.transform == "none"
        assert np.array_equal(result.value(0), sssp(graph, 0).values)

    def test_cc_symmetrized(self, service, graph):
        result = service.run(QueryRequest("cc", "g", transform="none"))
        direct = connected_components(to_undirected(graph.without_weights()))
        assert np.array_equal(result.value(), direct.values)

    def test_pr_on_virtual(self, service, graph):
        result = service.run(QueryRequest("pr", "g", transform="virtual+"))
        direct = pagerank(
            virtual_transform(graph.without_weights(), 10, coalesced=True)
        )
        assert np.allclose(result.value(), direct.values)

    def test_inline_graph_without_registration(self, graph):
        with AnalyticsService(workers=1) as service:
            result = service.run(QueryRequest.single("bfs", graph, 0))
            assert result.ok

    def test_udt_rejected_for_pr(self, service):
        result = service.run(QueryRequest("pr", "g", transform="udt"))
        assert not result.ok and "udt cannot serve pr" in result.error


class TestConcurrency:
    def test_contended_submissions_all_complete(self, graph):
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=4, queue_size=128) as service:
            service.register("g", graph)
            tickets = [
                service.submit(QueryRequest(
                    "cc", "g", transform="udt", degree_bound=6,
                ))
                for _ in range(40)
            ]
            results = [t.result(60) for t in tickets]
            assert all(r.ok for r in results)
            # 40 cold queries build nothing (cc reads the CSR as it is)
            assert catalog.stats.builds == 0
            reference = connected_components(
                to_undirected(graph.without_weights())).values
            assert np.array_equal(results[5].value(), reference)

    def test_concurrent_submitters(self, graph):
        with AnalyticsService(workers=4, queue_size=256) as service:
            service.register("g", graph)
            results = []
            lock = threading.Lock()

            def client(base):
                mine = [
                    service.run(QueryRequest.single("bfs", "g", (base + i) % 50))
                    for i in range(5)
                ]
                with lock:
                    results.extend(mine)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 30 and all(r.ok for r in results)

    def test_backpressure_nonblocking_submit(self, graph):
        # one worker stuck on a slow item + queue of 1 -> third submit
        # fails.  Thread backend pinned: the stall comes from
        # monkeypatching _prepare, which process workers never call.
        with AnalyticsService(workers=1, queue_size=1, backend="threads") as service:
            service.register("g", graph)
            blocker = threading.Event()
            original = service._prepare

            def slow_prepare(g, algorithm):
                blocker.wait(5)
                return original(g, algorithm)

            service._prepare = slow_prepare
            first = service.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)  # let the worker claim it and block
            second = service.submit(
                QueryRequest.single("bfs", "g", 1), block=False
            )
            with pytest.raises(ServiceError, match="queue full"):
                service.submit(QueryRequest.single("bfs", "g", 2), block=False)
            blocker.set()
            assert first.result(10).ok and second.result(10).ok

    def test_queue_depth_tracked(self, service):
        service.run(QueryRequest.single("bfs", "g", 0))
        summary = service.metrics.summary()
        assert summary["max_queue_depth"] >= 1
        assert summary["queue_depth"] == 0

    def test_submit_after_close_rejected(self, graph):
        service = AnalyticsService(workers=1)
        service.register("g", graph)
        service.close()
        with pytest.raises(ServiceError, match="stopped"):
            service.submit(QueryRequest.single("bfs", "g", 0))

    def test_close_drains_queued_work(self, graph):
        service = AnalyticsService(workers=1, queue_size=64)
        service.register("g", graph)
        tickets = [
            service.submit(QueryRequest.single("bfs", "g", s)) for s in range(8)
        ]
        service.close(wait=True)
        assert all(t.result(0.1).ok for t in tickets)


class TestTimeouts:
    def test_expired_in_queue_fails_fast(self, graph):
        # thread backend pinned: the stall monkeypatches _prepare
        with AnalyticsService(workers=1, queue_size=16, backend="threads") as service:
            service.register("g", graph)
            blocker = threading.Event()
            original = service._prepare

            def slow_prepare(g, algorithm):
                blocker.wait(5)
                return original(g, algorithm)

            service._prepare = slow_prepare
            service.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)
            doomed = service.submit(
                QueryRequest.single("bfs", "g", 1, timeout_s=0.01)
            )
            time.sleep(0.1)  # deadline passes while queued
            blocker.set()
            result = doomed.result(10)
            assert not result.ok and "timed out" in result.error
            assert service.metrics.summary()["queries_timed_out"] >= 1

    def test_default_timeout_applied(self, graph):
        with AnalyticsService(workers=1, default_timeout_s=30.0) as service:
            service.register("g", graph)
            ticket = service.submit(QueryRequest.single("bfs", "g", 0))
            assert ticket.request.timeout_s == 30.0
            assert ticket.result(10).ok


    def test_no_timeout_is_an_infinite_deadline(self, graph):
        with AnalyticsService(workers=1) as service:
            service.register("g", graph)
            ticket = service.submit(QueryRequest.single("bfs", "g", 0))
            assert ticket.deadline == float("inf")
            assert ticket.result(10).ok

    def test_warm_cache_never_degrades(self, graph):
        # a spent deadline neither degrades nor builds a batch
        with AnalyticsService(GraphCatalog(), workers=1, backend="threads") as service:
            service.register("g", graph)
            request = QueryRequest("cc", "g", transform="udt")
            assert service.run(request).cache_hit
            (batch,) = group_requests([request], lambda _: graph)
            rushed = service._run_batch(batch, remaining_s=0.0)
            assert rushed.cache_hit and not rushed.degraded
            assert service.catalog.stats.builds == 0

    def test_tight_deadline_cold_cache_serves_the_csr(self):
        # weighted sssp reads no catalog artifact: a udt request under a
        # deadline shorter than any build is answered exactly, undegraded
        big = rmat(4000, 60000, seed=2, weight_range=(1, 5))
        with AnalyticsService(GraphCatalog(), workers=1, backend="threads") as service:
            request = QueryRequest.single("sssp", "big", 0, transform="udt")
            (batch,) = group_requests([request], lambda _: big)
            rushed = service._run_batch(batch, remaining_s=1e-4)
            assert service.catalog.stats.builds == 0
        assert rushed.cache_hit and not rushed.degraded
        assert np.array_equal(rushed.per_source[0], sssp(big, 0).values)


class TestCancellation:
    def test_cancel_while_queued(self, graph):
        # thread backend pinned: the stall monkeypatches _prepare
        with AnalyticsService(workers=1, queue_size=16, backend="threads") as service:
            service.register("g", graph)
            blocker = threading.Event()
            original = service._prepare

            def slow_prepare(g, algorithm):
                blocker.wait(5)
                return original(g, algorithm)

            service._prepare = slow_prepare
            service.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)
            victim = service.submit(QueryRequest.single("bfs", "g", 1))
            assert victim.cancel() is True
            blocker.set()
            result = victim.result(10)
            assert not result.ok and result.error == "cancelled"
        # the cancelled claim is recorded when the worker drains the
        # item; close() above joined the workers, so it has happened.
        assert service.metrics.summary()["queries_cancelled"] == 1

    def test_cancel_after_completion_refused(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        ticket.result(30)
        assert ticket.cancel() is False

    def test_result_wait_timeout(self, graph):
        # thread backend pinned: the stall monkeypatches _prepare
        with AnalyticsService(workers=1, backend="threads") as service:
            service.register("g", graph)
            blocker = threading.Event()
            original = service._prepare

            def slow_prepare(g, algorithm):
                blocker.wait(5)
                return original(g, algorithm)

            service._prepare = slow_prepare
            ticket = service.submit(QueryRequest.single("bfs", "g", 0))
            with pytest.raises(ServiceError, match="not finished"):
                ticket.result(0.05)
            blocker.set()
            assert ticket.result(10).ok


class TestErrorsAndMetrics:
    def test_weighted_algorithm_on_unweighted_graph(self, graph):
        with AnalyticsService(workers=1) as service:
            service.register("uw", graph.without_weights())
            result = service.run(QueryRequest.single("sssp", "uw", 0))
            assert not result.ok and "requires a weighted graph" in result.error
            assert service.metrics.summary()["queries_failed"] == 1

    def test_rejected_udt_request_builds_nothing(self, graph):
        # the plan is checked before the graph is prepared
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1, backend="threads") as service:
            service.register("g", graph)
            result = service.run(QueryRequest("pr", "g", transform="udt"))
            assert not result.ok and "udt cannot serve pr" in result.error
        assert catalog.stats.builds == 0 and not catalog.keys()

    @pytest.mark.parametrize("shards", [0, 2])
    def test_rejected_member_fails_alone(self, graph, shards):
        # the transform name is checked per member: the udt member
        # fails with the planner's message and the rest of its batch runs
        requests = [QueryRequest("pr", "g", transform="udt"), QueryRequest("pr", "g")]
        with AnalyticsService(GraphCatalog(), workers=1, shards=shards) as service:
            service.register("g", graph)
            rejected, admitted = [t.result(60) for t in service.submit_batch(requests)]
            summary = service.metrics.summary()
        assert rejected.error == (
            "udt cannot serve pr: the push engine does not execute it on "
            "physically transformed graphs (supported: bfs, sssp, sswp, cc)"
        )
        assert admitted.ok and admitted.batched_with == 0
        assert (summary["queries_total"], summary["queries_failed"]) == (2, 1)
        assert summary["sharded_batches"] == (1 if shards else 0)

    def test_metrics_summary_shape(self, service):
        # cc builds nothing, cold or warm
        service.run(QueryRequest("cc", "g", transform="udt"))
        service.run(QueryRequest("cc", "g", transform="udt"))
        summary = service.metrics.summary()
        assert summary["queries_total"] == 2
        assert summary["cache_hit_rate"] == 1.0
        assert summary["catalog_builds"] == 0
        for key in ("worker_restarts", "ipc_bytes", "hydrate_hits"):
            assert key in summary
        for stage in ("queue", "plan", "execute", "total"):
            assert f"{stage}_p50_ms" in summary
            assert f"{stage}_p95_ms" in summary
        assert "transform_p50_ms" not in summary

    def test_stage_timings_populated(self, service):
        result = service.run(QueryRequest.single("sssp", "g", 0))
        timings = result.timings.as_dict()
        assert timings["total_s"] > 0
        assert timings["execute_s"] > 0
        assert result.timings.total_s == pytest.approx(
            timings["queue_s"] + timings["plan_s"] + timings["execute_s"]
        )

    def test_custom_engine_options_respected(self, service, graph):
        options = EngineOptions(worklist=False)
        result = service.run(
            QueryRequest.single("sssp", "g", 0, options=options)
        )
        direct = sssp(
            virtual_transform(graph, 10, coalesced=True), 0, options=options
        )
        assert np.array_equal(result.value(0), direct.values)


@pytest.mark.parametrize("shards", [0, 2])
class TestCacheHitMeansNothingBuilt:
    """``cache_hit``: every catalog artifact the request read (prepared
    graph, transform, shard set) came from memory or disk; a request
    that read none is a hit."""

    @pytest.fixture
    def served(self, graph, shards):
        with AnalyticsService(GraphCatalog(), workers=1, shards=shards) as svc:
            svc.register("g", graph)
            yield svc

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_cc_builds_nothing(self, graph, shards, backend):
        with AnalyticsService(
            GraphCatalog(), workers=1, shards=shards, backend=backend
        ) as served:
            served.register("g", graph)
            cold = served.run(QueryRequest("cc", "g", transform="none"))
            warm = served.run(QueryRequest("cc", "g", transform="none"))
            summary = served.metrics.summary()
        # sharded, the first request builds the graph's shard set only
        assert (cold.cache_hit, warm.cache_hit) == (shards == 0, True)
        assert summary["catalog_builds"] == summary["hydrate_hits"] == 0

    def test_weighted_sssp_reads_no_artifact(self, served, shards):
        request = functools.partial(
            QueryRequest.single, "sssp", "g", transform="none"
        )
        first, again = served.run(request(0)), served.run(request(3))
        # sharded, the first request builds the graph's shard set
        assert first.cache_hit is (shards == 0) and again.cache_hit

    @pytest.mark.parametrize("algorithm", ["pr", "bfs"])
    def test_warm_none_plans_hit(self, served, algorithm, shards):
        request = functools.partial(
            QueryRequest, algorithm, "g", transform="none",
            sources=(0,) if algorithm == "bfs" else (),
        )
        first, again = served.run(request()), served.run(request())
        # a weighted graph's unweighted view is no artifact: only the
        # sharded tier's first request builds (the shard set)
        assert first.cache_hit is (shards == 0) and again.cache_hit

    def test_auto_traffic_caches_no_overlay(self, served, graph):
        for algorithm in ("bfs", "sssp", "sswp", "bc"):
            for source in (0, 7):
                request = QueryRequest.single(algorithm, "g", source)
                assert served.run(request).ok
        for algorithm in ("cc", "pr"):
            assert served.run(QueryRequest(algorithm, "g")).ok
        # (shards hold no catalog: they step the raw slice; cc builds
        # no symmetrised graph)
        assert not served.catalog.keys()
        assert served.catalog.stats.builds == 0


def test_concurrent_dispatchers_count_only_their_own_hydrations(
    graph, tmp_path
):
    # each dispatcher hydrates one spilled prepared graph while the other
    # is inside its pipeline too; the summed hydrate_hits are the disk
    # loads.  Serving's own preparation reads no catalog, so the service's
    # preparation step is one that does.
    catalog = GraphCatalog(spill_dir=str(tmp_path), write_through=True)
    unweighted = graph.without_weights()
    for g in (graph, unweighted):
        get(catalog, g)
    catalog.clear()  # memory tier only: both artifacts stay spilled
    overlap = threading.Barrier(2, timeout=30)
    lookup = catalog.get_for_key

    def gated(*args, **kwargs):
        overlap.wait()  # both dispatchers are inside their pipelines
        found = lookup(*args, **kwargs)
        overlap.wait()  # both have hydrated
        return found

    def prepare(g, algorithm):
        artifact, origin = get(catalog, g)
        return artifact.payload, origin

    catalog.get_for_key = gated
    with AnalyticsService(catalog, workers=2, backend="threads") as service:
        service._prepare = prepare
        service.register("g", graph)
        service.register("uw", unweighted)
        tickets = [
            service.submit(QueryRequest("cc", "g")),
            service.submit(QueryRequest("cc", "uw")),
        ]
        assert all(ticket.result(60).cache_hit for ticket in tickets)
        assert catalog.stats.disk_hits == 2
        assert service.metrics.summary()["hydrate_hits"] == 2


@pytest.mark.parametrize("kernel_backend", [
    "numpy",
    pytest.param("cjit", marks=pytest.mark.skipif(
        not kernels.get_backend("cjit").is_available(), reason="no C compiler"
    )),
])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_named_overlays_serve_the_csr(graph, algorithm, kernel_backend):
    # virtual, virtual+ and (where it may serve) udt plan `none`, as auto
    # does: the same builds and the same bytes, and no build for a
    # deadline to degrade from
    options = EngineOptions(kernel_backend=kernel_backend)
    sources = (0, 5) if ALGORITHMS[algorithm].needs_source else ()
    transforms = ("none", "virtual", "virtual+") + (
        ("udt",) if algorithm in UDT_EXECUTABLE else ())
    served = {}
    for transform in transforms:
        request = functools.partial(
            QueryRequest, algorithm, "g", sources=sources,
            transform=transform, options=options,
        )
        with AnalyticsService(GraphCatalog(), workers=1, backend="threads") as service:
            service.register("g", graph)
            result = service.run(request())
            builds = service.metrics.summary()["catalog_builds"]
        with AnalyticsService(GraphCatalog(), workers=1, backend="threads") as service:
            (batch,) = group_requests([request()], lambda _: graph)
            rushed = service._run_batch(batch, remaining_s=1e-9)
        assert result.ok, result.error
        assert (result.transform, result.degree_bound) == ("none", 0)
        assert not rushed.degraded
        served[transform] = (
            builds,
            {key: values.tobytes() for key, values in result.values.items()},
            {key: values.tobytes() for key, values in rushed.per_source.items()},
        )
    assert all(served[transform] == served["none"] for transform in transforms)
