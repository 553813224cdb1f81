"""Where a batch runs: the place list, its one fallback rule, and the
admission policy every service applies.

``AnalyticsService`` tries its places in order — shard tier, process
pool, the dispatcher thread — and a *lost* place (``ShardLost`` /
``WorkerLost``) moves the batch to the next with ``degraded=True``.
These tests pin the walk itself: composition of two losses, the
``fallback=False`` switch, FIFO under the default policy, quotas and
priorities without ``--shards``, and that ``ShardedAnalyticsService``
is the same class with a different default.
"""

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.__main__ import _make_service, build_parser
from repro.errors import QuotaExhaustedError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    RoutingPolicy,
    ShardedAnalyticsService,
    TenantQuota,
)
from repro.service.api import (
    HttpReplayClient,
    ThreadedApiServer,
)
from repro.service.workers import CRASH_SOURCE_ENV


@pytest.fixture(scope="module")
def graph():
    return rmat(256, 2048, seed=7, weight_range=(0.5, 2.0))


def _dead_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def _spy_on_place(service, index=-1):
    """Count batches reaching one place (default: the dispatcher thread)."""
    calls = []
    place = service._places[index]

    def spied(batch, remaining_s):
        calls.append(batch)
        return place(batch, remaining_s)

    service._places[index] = spied
    return calls


def _spy_on_submissions(service):
    """Record the size of every ``submit_batch`` attempt."""
    sizes = []
    submit_batch = service.submit_batch

    def spied(requests, **kwargs):
        sizes.append(len(requests))
        return submit_batch(requests, **kwargs)

    service.submit_batch = spied
    return sizes


class TestTheChain:
    def test_places_are_built_once_in_order(self):
        with AnalyticsService(workers=1, backend="threads") as service:
            assert service._places == [service._run_here]
        with AnalyticsService(workers=1, backend="threads", shards=2) as service:
            assert service._places == [service._shards.run, service._run_here]
        with AnalyticsService(workers=1, backend="processes", shards=2) as service:
            assert service._places == [
                service._shards.run, service._process.run, service._run_here,
            ]

    def test_two_losses_compose_into_one_degraded_answer(self, graph, monkeypatch):
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        with AnalyticsService(workers=1) as reference:
            reference.register("g", graph)
            want = reference.run(QueryRequest.single("bfs", "g", 7))
        with AnalyticsService(
            workers=2, backend="processes",
            shards=2, shard_remotes=[_dead_address()],
        ) as service:
            service.register("g", graph)
            here = _spy_on_place(service)
            requests = [
                QueryRequest.single("bfs", "g", 7),
                QueryRequest.single("bfs", "g", 7),
                QueryRequest.single("bfs", "g", 9),
            ]
            tickets = service.submit_batch(requests)
            results = [ticket.result(timeout=120) for ticket in tickets]
            summary = service.metrics.summary()
        # shard tier lost, then the pool lost, then this thread answered
        assert len(here) == 1
        assert [r.request_id for r in results] == [r.request_id for r in requests]
        assert all(r.ok and r.degraded for r in results)
        assert np.array_equal(results[0].values[7], want.values[7])
        assert summary["shard_fallbacks"] == 1
        assert summary["worker_restarts"] >= 1
        assert summary["queries_total"] == 3 and summary["queries_degraded"] == 3

    def test_fallback_off_surfaces_the_first_loss_shard(self, graph, monkeypatch):
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        with AnalyticsService(
            workers=1, backend="processes", fallback=False,
            shards=2, shard_remotes=[_dead_address()],
        ) as service:
            service.register("g", graph)
            here = _spy_on_place(service)
            result = service.run(QueryRequest.single("bfs", "g", 7))
            summary = service.metrics.summary()
        assert not result.ok
        assert "shard" in result.error and "unreachable" in result.error
        # no later place ran: the pool never saw the poisoned source
        assert summary["shard_fallbacks"] == 1
        assert summary["worker_restarts"] == 0 and here == []

    def test_fallback_off_surfaces_the_first_loss_worker(self, graph, monkeypatch):
        monkeypatch.setenv(CRASH_SOURCE_ENV, "7")
        with AnalyticsService(
            workers=1, backend="processes", fallback=False, shards=1,
        ) as service:
            service.register("g", graph)
            here = _spy_on_place(service)
            result = service.run(QueryRequest.single("bfs", "g", 7))
            summary = service.metrics.summary()
        assert not result.ok and "worker lost" in result.error
        assert summary["worker_restarts"] >= 1
        assert summary["shard_fallbacks"] == 0 and here == []

    def test_a_pass_is_not_a_loss(self, graph):
        """bc passes the shard tier: answered clean, nothing counted."""
        with AnalyticsService(workers=1, shards=2) as service:
            service.register("g", graph)
            result = service.run(QueryRequest.single("bc", "g", 0))
            summary = service.metrics.summary()
        assert result.ok and not result.degraded
        assert summary["sharded_batches"] == 0 and summary["shard_fallbacks"] == 0


class TestShardedIsTheSameService:
    def test_subclass_defines_nothing_but_its_default(self):
        defined = {
            name for name in vars(ShardedAnalyticsService)
            if name not in ("__module__", "__doc__", "__qualname__")
        }
        assert defined == {"__init__"}
        with ShardedAnalyticsService(workers=1) as service:
            assert service.metrics.summary()["shards"] == 2
            assert type(service)._run_batch is AnalyticsService._run_batch
            assert type(service).submit_batch is AnalyticsService.submit_batch

    def test_single_shard_routes_everything_to_the_next_place(self, graph):
        with ShardedAnalyticsService(shards=1, workers=1) as service:
            service.register("g", graph)
            here = _spy_on_place(service, 1)  # whatever follows the tier
            for algorithm in ("bfs", "sssp", "cc", "pr"):
                source = None if algorithm in ("cc", "pr") else 0
                assert service.run(QueryRequest.single(algorithm, "g", source)).ok
            summary = service.metrics.summary()
        assert len(here) == 4
        assert summary["shards"] == 1 and summary["sharded_batches"] == 0


class TestAdmissionWithoutShards:
    """Quotas and priorities belong to the service, not the shard tier."""

    def test_default_policy_is_strict_fifo(self, graph):
        """The always-priority queue with one class is a FIFO."""
        order = []
        gate = threading.Event()
        # thread backend pinned: the stall monkeypatches _prepare
        with AnalyticsService(
            workers=1, queue_size=64, backend="threads"
        ) as service:
            service.register("g", graph)
            original = service._prepare

            def recording(g, algorithm):
                gate.wait(30)  # hold the one dispatcher while the rest queue
                return original(g, algorithm)

            service._prepare = recording
            run_batch = service._run_batch

            def spy(batch, remaining_s):
                order.append(tuple(r.request_id for r in batch.requests))
                return run_batch(batch, remaining_s)

            service._run_batch = spy
            submitted, tickets = [], []
            for index in range(12):
                if index % 3 == 2:  # a coalescing multi-request submission
                    requests = [
                        QueryRequest.single("sssp", "g", index, tenant="b"),
                        QueryRequest.single("sssp", "g", index + 1),
                    ]
                else:
                    algorithm = ("bfs", "sswp")[index % 2]
                    tenant = ("", "a")[index % 2]
                    requests = [
                        QueryRequest.single(algorithm, "g", index, tenant=tenant)
                    ]
                submitted.append(tuple(r.request_id for r in requests))
                tickets.extend(service.submit_batch(requests))
            gate.set()
            assert all(ticket.result(timeout=60).ok for ticket in tickets)
        assert order == submitted

    def test_quota_is_charged_at_submission(self, graph):
        policy = RoutingPolicy(quotas={"a": TenantQuota(rate=0.001, burst=1.0)})
        with AnalyticsService(workers=2, policy=policy) as service:
            service.register("g", graph)
            assert service.run(QueryRequest.single("bfs", "g", 0, tenant="a")).ok
            with pytest.raises(QuotaExhaustedError) as info:
                service.submit(QueryRequest.single("bfs", "g", 1, tenant="a"))
            assert info.value.retry_after_s > 0
            summary = service.metrics.summary()
            assert summary["quota_rejected"] == 1 and summary["shards"] == 0
            # other tenants are unaffected
            assert service.run(QueryRequest.single("bfs", "g", 2)).ok

    def test_priorities_reorder_a_held_queue(self, graph, monkeypatch):
        """test_service_serves_interactive_before_batch, minus the shards."""
        policy = RoutingPolicy(priorities={"vip": 0, "bulk": 20})
        order = []
        gate = threading.Event()
        original = AnalyticsService._run_batch

        def recording(self, batch, remaining_s):
            tenant = batch.requests[0].tenant
            if tenant == "":
                gate.wait(30)  # hold the dispatcher while others queue
            else:
                order.append(tenant)
            return original(self, batch, remaining_s)

        monkeypatch.setattr(AnalyticsService, "_run_batch", recording)
        with AnalyticsService(workers=1, policy=policy) as service:
            service.register("g", graph)
            blocker = service.submit(QueryRequest.single("bfs", "g", 0))
            bulk = [
                service.submit(QueryRequest.single("bfs", "g", i, tenant="bulk"))
                for i in range(1, 4)
            ]
            vip = service.submit(QueryRequest.single("bfs", "g", 9, tenant="vip"))
            gate.set()
            for ticket in [blocker, vip, *bulk]:
                assert ticket.result(timeout=60).ok
        assert order == ["vip", "bulk", "bulk", "bulk"]

    def test_serve_flags_enforce_quota_at_shards_zero(self, graph):
        """``serve --http --quota t=1:1`` without ``--shards``: 429."""
        args = build_parser().parse_args([
            "serve", "g", "--http", "127.0.0.1:0", "--workers", "1",
            "--quota", "t=0.001:1", "--priority", "t=interactive",
        ])
        assert args.shards == 0
        with _make_service(args, GraphCatalog()) as service:
            assert type(service) is AnalyticsService
            assert service.policy.priorities == {"t": 0}
            service.register("g", graph)
            with ThreadedApiServer(service) as server:
                first, _ = self._post_query(server.address)
                second, headers = self._post_query(server.address)
                with HttpReplayClient(server.address) as client:
                    metrics = client.metrics()
        assert first.status == 200
        assert second.status == 429 and int(headers["retry-after"]) >= 1
        assert metrics["quota_rejected"] == 1 and metrics["shards"] == 0

    def test_quota_refusal_is_answered_at_once(self, graph):
        """``--quota t=1:1``: the refill is not waited out at the edge."""
        args = build_parser().parse_args([
            "serve", "g", "--http", "127.0.0.1:0", "--workers", "1",
            "--quota", "t=1:1",
        ])
        with _make_service(args, GraphCatalog()) as service:
            service.register("g", graph)
            probes = _spy_on_submissions(service)
            with ThreadedApiServer(service) as server:
                first, _ = self._post_query(server.address)
                started = time.monotonic()
                second, headers = self._post_query(server.address)
                elapsed = time.monotonic() - started
                with HttpReplayClient(server.address) as client:
                    metrics = client.metrics()
        assert first.status == 200
        assert second.status == 429 and int(headers["retry-after"]) >= 1
        assert elapsed < 1.0, elapsed  # under the refill, far under the 2 s wait
        assert metrics["quota_rejected"] == 1
        assert probes == [1, 1]

    def test_a_refused_submission_is_probed_once(self, graph):
        """A quota refusal at the front door is answered, not retried:
        earlier members are not charged again."""
        policy = RoutingPolicy(quotas={"t": TenantQuota(rate=1.0, burst=2.0)})
        with AnalyticsService(workers=1, policy=policy) as service:
            service.register("g", graph)
            probes = _spy_on_submissions(service)
            body = "".join(
                json.dumps({"type": "request", "id": source, "algorithm": "bfs",
                            "graph": "g", "sources": [source], "tenant": "t"}) + "\n"
                for source in range(3)
            )
            with ThreadedApiServer(service) as server:
                host, _, port = server.address.rpartition(":")
                conn = http.client.HTTPConnection(host, int(port), timeout=60)
                try:
                    conn.request("POST", "/v1/batch", body=body,
                                 headers={"Content-Type": "application/x-ndjson"})
                    status = conn.getresponse().status
                finally:
                    conn.close()
            summary = service.metrics.summary()
        assert status == 429
        assert probes == [3]
        assert summary["quota_rejected"] == 1

    @staticmethod
    def _post_query(address):
        host, _, port = address.rpartition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=60)
        try:
            conn.request(
                "POST", "/v1/query",
                body=json.dumps({
                    "algorithm": "bfs", "graph": "g", "sources": [0],
                    "tenant": "t",
                }),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
            return response, {k.lower(): v for k, v in response.getheaders()}
        finally:
            conn.close()
