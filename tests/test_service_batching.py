"""Batching: grouping rules, source dedup, result equivalence."""

import random

import numpy as np
import pytest

from repro.algorithms import bfs, pagerank, sssp, sswp
from repro.core.virtual import virtual_transform
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    QueryRequest,
    group_requests,
)
from repro.service.batching import fan_out_per_request, run_sources_on_target


@pytest.fixture
def graph():
    return rmat(140, 1000, seed=11, weight_range=(1, 9))


def resolve_with(graph):
    def resolver(request):
        assert isinstance(request.graph, str)
        return graph

    return resolver


class TestGrouping:
    def test_same_plan_coalesces(self, graph):
        requests = [QueryRequest.single("sssp", "g", s) for s in (0, 1, 2)]
        batches = group_requests(requests, resolve_with(graph))
        assert len(batches) == 1
        assert batches[0].sources == (0, 1, 2)

    def test_different_algorithms_split(self, graph):
        requests = [
            QueryRequest.single("sssp", "g", 0),
            QueryRequest.single("bfs", "g", 0),
        ]
        assert len(group_requests(requests, resolve_with(graph))) == 2

    def test_transform_and_k_do_not_split(self, graph):
        # every request serves the CSR: the names are checked per
        # member when a dispatcher claims the batch, not grouped on
        requests = [
            QueryRequest.single("sssp", "g", 0, transform="virtual+"),
            QueryRequest.single("sssp", "g", 0, transform="none"),
            QueryRequest.single("sssp", "g", 0, transform="virtual+", degree_bound=4),
        ]
        (batch,) = group_requests(requests, resolve_with(graph))
        assert batch.sources_deduped == 2

    def test_different_options_split(self, graph):
        requests = [
            QueryRequest.single("sssp", "g", 0),
            QueryRequest.single(
                "sssp", "g", 0, options=EngineOptions(worklist=False)
            ),
        ]
        assert len(group_requests(requests, resolve_with(graph))) == 2

    def test_content_twins_coalesce_across_names(self, graph):
        twin = rmat(140, 1000, seed=11, weight_range=(1, 9))
        graphs = {"a": graph, "b": twin}
        requests = [
            QueryRequest.single("sssp", "a", 0),
            QueryRequest.single("sssp", "b", 1),
        ]
        batches = group_requests(requests, lambda r: graphs[r.graph])
        assert len(batches) == 1

    def test_source_dedup_counted(self, graph):
        requests = [
            QueryRequest("sssp", "g", sources=(0, 1)),
            QueryRequest("sssp", "g", sources=(1, 2)),
            QueryRequest.single("sssp", "g", 2),
        ]
        (batch,) = group_requests(requests, resolve_with(graph))
        assert batch.sources == (0, 1, 2)
        assert batch.sources_deduped == 2

    def test_timeouts_do_not_split_a_batch(self, graph):
        # each member keeps its own deadline; the dispatcher expires
        # members one by one and runs the rest together
        requests = [
            QueryRequest.single("sssp", "g", 0, timeout_s=5.0),
            QueryRequest.single("sssp", "g", 1, timeout_s=1.0),
            QueryRequest.single("sssp", "g", 2),
        ]
        (batch,) = group_requests(requests, resolve_with(graph))
        assert [r.timeout_s for r in batch.requests] == [5.0, 1.0, None]

    def test_out_of_range_source_rejected_at_submit(self, graph):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="out of range"):
            group_requests(
                [QueryRequest.single("sssp", "g", graph.num_nodes)],
                resolve_with(graph),
            )


class TestFanOutEquivalence:
    """Batched execution must be bit-identical to per-source runs."""

    def test_sssp_batch_matches_per_source(self, graph):
        target = virtual_transform(graph, 10, coalesced=True)
        requests = [QueryRequest.single("sssp", "g", s) for s in (3, 7, 3, 12)]
        (batch,) = group_requests(requests, resolve_with(graph))
        per_source, _ = run_sources_on_target(
            batch.algorithm, batch.sources, batch.options, target
        )
        out = fan_out_per_request(batch.requests, per_source)
        for request in requests:
            (source,) = request.sources
            expected = sssp(target, source).values
            np.testing.assert_array_equal(
                out[request.request_id][source], expected
            )

    def test_bfs_batch_matches_per_source(self, graph):
        unweighted = graph.without_weights()
        target = virtual_transform(unweighted, 10, coalesced=True)
        requests = [QueryRequest.single("bfs", "g", s) for s in (0, 5, 9)]
        (batch,) = group_requests(requests, resolve_with(unweighted))
        per_source, _ = run_sources_on_target(
            batch.algorithm, batch.sources, batch.options, target
        )
        out = fan_out_per_request(batch.requests, per_source)
        for request in requests:
            (source,) = request.sources
            np.testing.assert_array_equal(
                out[request.request_id][source], bfs(target, source).values
            )

    def test_sswp_per_source_path(self, graph):
        target = virtual_transform(graph, 10, coalesced=True)
        requests = [QueryRequest.single("sswp", "g", s) for s in (1, 4)]
        (batch,) = group_requests(requests, resolve_with(graph))
        per_source, _ = run_sources_on_target(
            batch.algorithm, batch.sources, batch.options, target
        )
        out = fan_out_per_request(batch.requests, per_source)
        for request in requests:
            (source,) = request.sources
            np.testing.assert_array_equal(
                out[request.request_id][source], sswp(target, source).values
            )

    def test_sourceless_shared_run(self, graph):
        unweighted = graph.without_weights()
        target = virtual_transform(unweighted, 10, coalesced=True)
        requests = [QueryRequest("pr", "g"), QueryRequest("pr", "g")]
        (batch,) = group_requests(requests, resolve_with(unweighted))
        per_source, _ = run_sources_on_target(
            batch.algorithm, batch.sources, batch.options, target
        )
        out = fan_out_per_request(batch.requests, per_source)
        expected = pagerank(target).values
        first, second = (out[r.request_id][-1] for r in requests)
        np.testing.assert_allclose(first, expected)
        assert first is second  # one run, shared by both members

    def test_duplicate_sources_share_one_row(self, graph):
        target = virtual_transform(graph, 10, coalesced=True)
        requests = [QueryRequest.single("sssp", "g", 6) for _ in range(3)]
        (batch,) = group_requests(requests, resolve_with(graph))
        assert batch.sources == (6,)
        per_source, _ = run_sources_on_target(
            batch.algorithm, batch.sources, batch.options, target
        )
        out = fan_out_per_request(batch.requests, per_source)
        rows = [out[r.request_id][6] for r in requests]
        assert rows[0] is rows[1] is rows[2]


class TestEndToEndBatchedService:
    def test_batched_results_match_individual_runs(self, graph):
        """The ISSUE's satellite: batched == per-source, exactly."""
        sources = (2, 9, 2, 17, 33)
        requests = [QueryRequest.single("sssp", "g", s) for s in sources]
        with AnalyticsService(workers=2) as service:
            service.register("g", graph)
            batched = [t.result(60) for t in service.submit_batch(requests)]
        individual = {}
        for source in set(sources):
            with AnalyticsService(workers=1) as service:
                service.register("g", graph)
                individual[source] = service.run(
                    QueryRequest.single("sssp", "g", source)
                )
        for source, result in zip(sources, batched):
            assert result.ok
            assert result.batched_with == len(sources) - 1
            np.testing.assert_array_equal(
                result.value(source), individual[source].value(source)
            )

    def test_batch_metrics_attribution(self, graph):
        requests = [
            QueryRequest("sssp", "g", sources=(0, 1)),
            QueryRequest("sssp", "g", sources=(1, 2)),
        ]
        with AnalyticsService(workers=1) as service:
            service.register("g", graph)
            results = [t.result(60) for t in service.submit_batch(requests)]
            assert all(r.ok for r in results)
            # batch-level quantities counted once, not per member
            summary = service.metrics.summary()
            assert summary["batches_merged"] == 1
            assert summary["sources_deduped"] == 1

    @pytest.mark.skipif(not kernels.get_backend("cjit").is_available(),
                        reason="no C compiler")
    def test_sssp_fan_out_is_one_compiled_call_per_lane_block(self, graph):
        # 70 distinct sources ride two lane blocks (64 + 6): each block's
        # whole fixpoint is one push_lanes_run, and nothing declines
        options = EngineOptions(kernel_backend="cjit")
        requests = [QueryRequest.single("sssp", "g", s, options=options)
                    for s in range(70)]
        cjit = kernels.get_backend("cjit")
        # the counters are this process's, so the batch must run here:
        # pinned to threads, whatever REPRO_SERVICE_WORKERS says
        with AnalyticsService(workers=1,
                              backend="threads") as service:
            service.register("g", graph)
            engaged, declined = cjit.engaged, cjit.declined
            results = [t.result(60) for t in service.submit_batch(requests)]
            assert service.metrics.summary()["strategy_lanes"] == 1
        assert all(r.ok for r in results)
        assert (cjit.engaged - engaged, cjit.declined - declined) == (2, 0)

    def test_transform_labels_coalesce(self, graph):
        labels = ("auto", "udt", "virtual", "none")
        requests = [QueryRequest.single("bfs", "g", 5, transform=t) for t in labels]
        with AnalyticsService(workers=1) as service:
            service.register("g", graph)
            results = [t.result(60) for t in service.submit_batch(requests)]
            summary = service.metrics.summary()
        assert [r.batched_with for r in results] == [3, 3, 3, 3]
        assert summary["sources_deduped"] == 3
        # one batch, one lane, one traversal
        assert sum(v for k, v in summary.items() if k.startswith("strategy_")) == 1
        assert summary["lanes_per_traversal"] == 1.0
        expected = bfs(graph.without_weights(), 5).values
        for result in results:
            assert result.ok and result.transform == "none"
            assert np.array_equal(result.value(5), expected)

    def test_mixed_algorithms_in_one_submit(self, graph):
        requests = [
            QueryRequest.single("sssp", "g", 0),
            QueryRequest.single("bfs", "g", 0),
            QueryRequest("pr", "g"),
        ]
        with AnalyticsService(workers=2) as service:
            service.register("g", graph)
            results = [t.result(60) for t in service.submit_batch(requests)]
        assert [r.algorithm for r in results] == ["sssp", "bfs", "pr"]
        assert all(r.ok for r in results)

    def test_fuzz_batched_equals_scalar_path(self, graph):
        """Property test: any random request mix, batched == scalar.

        A seeded RNG builds mixes across algorithms, transforms, K
        values, and single/multi-source shapes; the whole mix goes
        through ``submit_batch`` (coalescing, dedup, lane fan-out) on
        both backends and every value array must be *bitwise* equal to
        the same request served alone by a scalar one-worker service.
        """
        unweighted = graph.without_weights()
        graphs = {"w": graph, "uw": unweighted}

        def random_mix(rng):
            requests = []
            for _ in range(rng.randrange(4, 10)):
                algorithm = rng.choice(("bfs", "sssp", "sswp", "pr", "cc"))
                name = "w" if algorithm in ("sssp", "sswp") else rng.choice(
                    ("w", "uw")
                )
                transform = (
                    rng.choice(("auto", "virtual", "virtual+"))
                    if algorithm in ("pr", "bc")
                    else rng.choice(("auto", "udt", "virtual", "none"))
                )
                k = rng.choice((None, 4, 12))
                if algorithm in ("pr", "cc"):
                    requests.append(
                        QueryRequest(
                            algorithm, name,
                            transform=transform, degree_bound=k,
                        )
                    )
                else:
                    count = rng.choice((1, 1, 1, 3))
                    sources = tuple(
                        rng.randrange(graph.num_nodes) for _ in range(count)
                    )
                    requests.append(
                        QueryRequest(
                            algorithm, name, sources=sources,
                            transform=transform, degree_bound=k,
                        )
                    )
            return requests

        # scalar reference: one request at a time, no coalescing
        def scalar(request):
            clone = QueryRequest(
                request.algorithm, request.graph, sources=request.sources,
                transform=request.transform, degree_bound=request.degree_bound,
            )
            with AnalyticsService(workers=1) as solo:
                for name, g in graphs.items():
                    solo.register(name, g)
                return solo.run(clone)

        for backend in ("threads", "processes"):
            rng = random.Random(20180324)  # same mixes on both backends
            for round_index in range(3):
                requests = random_mix(rng)
                with AnalyticsService(
                    workers=2, backend=backend
                ) as service:
                    for name, g in graphs.items():
                        service.register(name, g)
                    batched = [
                        t.result(120) for t in service.submit_batch(requests)
                    ]
                for request, result in zip(requests, batched):
                    assert result.ok, (backend, round_index, result.error)
                    reference = scalar(request)
                    assert reference.ok
                    assert set(result.values) == set(reference.values)
                    for source in result.values:
                        np.testing.assert_array_equal(
                            result.values[source],
                            reference.values[source],
                            err_msg=(
                                f"{backend} round {round_index}: "
                                f"{request.algorithm} on {request.graph} "
                                f"source {source} diverged from scalar path"
                            ),
                        )

    def test_multi_source_request_values_keyed_by_source(self, graph):
        request = QueryRequest("sssp", "g", sources=(4, 8))
        with AnalyticsService(workers=1) as service:
            service.register("g", graph)
            result = service.run(request)
        assert set(result.values) == {4, 8}
        direct_target = virtual_transform(graph, 10, coalesced=True)
        np.testing.assert_array_equal(
            result.value(4), sssp(direct_target, 4).values
        )
        np.testing.assert_array_equal(
            result.value(8), sssp(direct_target, 8).values
        )
