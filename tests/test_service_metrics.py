"""``ServiceMetrics``: the counter table ``/v1/metrics`` reports.

A scripted run drives every recorder the service has — lanes, loop,
shared and per-source batches, a cancellation, a queue timeout, a
failing request, a quota refusal, trace capture, a replay and the
HTTP edge — and pins every non-latency value of ``summary()``.
"""

from __future__ import annotations

import functools
import http.client
import io
import os
import sys
import threading
import time

import pytest

from repro.errors import QuotaExhaustedError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    QueryRequest,
    RoutingPolicy,
    TenantQuota,
    TraceRecorder,
    load_trace,
    replay_trace,
)
from repro.service.api import ThreadedApiServer
from repro.service.workers import prepare
from repro.service.metrics import (
    COUNTERS,
    LATENCY_WINDOW,
    STAGES,
    ServiceMetrics,
)


def _http(address: str, method: str, path: str, body: bytes = b"") -> int:
    host, _, port = address.rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request(method, path, body=body or None,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


def scripted_summary(shards: int, patch_prepare) -> dict:
    """``summary()`` after one fixed sequence of service traffic."""
    graph = rmat(200, 1500, seed=11, weight_range=(1, 10))
    policy = RoutingPolicy(quotas={"q": TenantQuota(rate=1e-3, burst=1.0)})
    with AnalyticsService(
        workers=1, backend="threads", shards=shards,
        policy=policy, recorder=TraceRecorder(io.StringIO()),
    ) as service:
        service.register("g", graph)
        service.register("uw", graph.without_weights())

        # stall the one dispatcher so the next two wait in the queue
        blocker = threading.Event()

        def stalled(g, algorithm):
            blocker.wait(10)  # at once, once set
            return prepare(g, algorithm)

        patch_prepare(stalled)
        first = service.submit(QueryRequest.single("bfs", "g", 0))
        time.sleep(0.05)
        victim = service.submit(QueryRequest.single("bfs", "g", 1))
        doomed = service.submit(
            QueryRequest.single("bfs", "g", 2, timeout_s=0.01)
        )
        assert victim.cancel()
        time.sleep(0.1)  # the deadline passes while queued
        blocker.set()
        assert first.result(30).ok
        assert not doomed.result(30).ok and not victim.result(30).ok

        fan_out = service.submit_batch([
            QueryRequest.single("sssp", "g", s) for s in (0, 3, 3, 9)
        ])
        assert all(t.result(30).ok for t in fan_out)
        assert service.run(QueryRequest.single("bc", "g", 4)).ok
        assert service.run(QueryRequest("cc", "g")).ok
        assert not service.run(QueryRequest.single("sssp", "uw", 0)).ok
        assert service.run(QueryRequest.single("bfs", "g", 5, tenant="q")).ok
        with pytest.raises(QuotaExhaustedError):
            service.submit(QueryRequest.single("bfs", "g", 6, tenant="q"))
        service.detach_recorder()

        sink = io.StringIO()
        service.attach_recorder(TraceRecorder(sink))
        assert service.run(QueryRequest.single("sssp", "g", 7)).ok
        assert service.run(QueryRequest("pr", "g")).ok
        service.detach_recorder()
        report = replay_trace(
            load_trace(io.StringIO(sink.getvalue())), service=service
        )
        assert report.ok and report.digests_checked == 2

        with ThreadedApiServer(service) as server:
            assert _http(server.address, "GET", "/v1/healthz") == 200
            assert _http(server.address, "POST", "/v1/query", b"[1]") == 400
        return service.metrics.summary()


#: ``summary()`` of the scripted run, minus latencies and the
#: process-global ``kernel_*`` counters, as the per-attribute
#: implementation (one hand-kept attribute per counter) reported it —
#: but for the sharded run's two pr requests, which that implementation
#: passed to the single engine (its planner picks a virtual plan) and
#: the shard tier now answers: two more sharded batches and their
#: supersteps, two shared runs fewer, and four catalog hits fewer —
#: the single engine's second prepare lookup and its virtual+ overlay
#: lookup per request, which the shard tier never makes (misses and
#: builds are unchanged).  Both requests still count as cache hits:
#: their shard set was cached.
#:
#: Then ``auto`` began to serve the CSR: every request here is ``auto``,
#: so no virtual+ overlay is built or looked up (at 0 shards three
#: builds, six hits and three misses fewer; at 2 shards one build and
#: one miss fewer, bc's overlay on the single engine), and ``cache_hit`` became
#: "this request built nothing".  At 0 shards only the first bfs and
#: the cc build (their prepared graphs), so 10 of 15 requests hit where
#: 6 did; at 2 shards the four sssp fan-out requests build the weighted
#: graph's shard set too, so 6 of 15 hit where 5 did.
#:
#: Then the weight-stripped view left the catalog: bfs, bc and pr on
#: ``g`` read its memoised unweighted view, uncached, so cc's
#: symmetrised graph is the one build and nothing hits the catalog
#: (one build, one miss and four hits fewer; 17 536 bytes held, not
#: 28 400).  At 0 shards the first bfs now builds nothing, so 11 of 15
#: requests hit; at 2 shards it still builds its shard set, so 6 of 15.
#:
#: Then cc became a union-find over the CSR as it is: it builds nothing
#: (no build, no miss, no bytes held), so 12 of 15 requests hit at 0
#: shards; at 2 shards it reads bfs's shard set, so 7 of 15, and its
#: sharded run is one superstep exchanging two 200-label arrays (three
#: supersteps and 14 384 exchange bytes fewer than propagation took).
#:
#: Then the catalog stack went: ``hydrate_hits``, ``evictions_lru`` and
#: every ``catalog_*`` key but the six ``benchmarks/ledger/run.py``
#: subtracts left the summary (all read 0 or 0.0 here), and those six
#: are constant zeros.  Every other value is unchanged.
PARENT_COMMON = {
    "queries_total": 15, "queries_failed": 2, "queries_degraded": 0,
    "queries_timed_out": 1, "queries_cancelled": 1, "batches_merged": 3,
    "sources_deduped": 1, "strategy_per_source": 1, "max_queue_depth": 2,
    "worker_restarts": 0, "ipc_bytes": 0,
    "http_requests": 2, "http_2xx": 1, "http_4xx": 1, "http_5xx": 0,
    "http_rate_limited": 0, "http_bytes_sent": 335, "trace_requests": 13,
    "trace_results": 13, "replay_digests_checked": 2,
    "replay_digest_mismatches": 0, "shard_fallbacks": 0, "quota_rejected": 1,
    "catalog_disk_hits": 0, "catalog_evictions": 0,
}
PARENT_SUMMARY = {
    0: {
        **PARENT_COMMON,
        "cache_hit_rate": 0.8,
        "lanes_per_traversal": 1.2222222222222223,
        "traversals_saved": 2, "strategy_lanes": 1, "strategy_loop": 4,
        "strategy_shared": 3, "shards": 0, "sharded_batches": 0,
        "shard_supersteps": 0, "shard_exchange_bytes": 0,
        "catalog_hits": 0, "catalog_misses": 0, "catalog_builds": 0,
        "catalog_bytes_in_memory": 0,
    },
    2: {
        **PARENT_COMMON,
        "cache_hit_rate": 0.4666666666666667, "lanes_per_traversal": 1.0,
        "traversals_saved": 0, "strategy_lanes": 0, "strategy_loop": 0,
        "strategy_shared": 0, "shards": 2, "sharded_batches": 8,
        "shard_supersteps": 81, "shard_exchange_bytes": 262912,
        "catalog_hits": 0, "catalog_misses": 0, "catalog_builds": 0,
        "catalog_bytes_in_memory": 0,
    },
}

#: the key set that implementation reported at ``shards=0``, which the
#: sharded run reports too (its per-shard ``shard{i}_steps`` rows, each
#: always equal to ``shard_supersteps``, are retired, and so are the
#: ``transform`` stage's latency rows: that stage read 0 once no plan
#: built a transform, and the shard-set build it also timed is ``plan``'s).
PARENT_KEYS = {
    "batches_merged", "cache_hit_rate", "catalog_builds",
    "catalog_bytes_in_memory", "catalog_disk_hits", "catalog_evictions",
    "catalog_hits", "catalog_misses", "execute_p50_ms", "execute_p95_ms",
    "http_2xx", "http_4xx", "http_5xx", "http_bytes_sent", "http_p50_ms",
    "http_p95_ms", "http_rate_limited", "http_requests", "ipc_bytes",
    "kernel_backend", "kernel_declined", "kernel_engaged",
    "lanes_per_traversal", "max_queue_depth", "plan_p50_ms", "plan_p95_ms",
    "queries_cancelled", "queries_degraded",
    "queries_failed", "queries_timed_out", "queries_total", "queue_depth",
    "queue_p50_ms", "queue_p95_ms", "quota_rejected",
    "replay_digest_mismatches", "replay_digests_checked",
    "shard_exchange_bytes", "shard_fallbacks", "shard_supersteps",
    "sharded_batches", "shards", "sources_deduped", "strategy_lanes",
    "strategy_loop", "strategy_per_source", "strategy_shared",
    "total_p50_ms", "total_p95_ms", "trace_requests", "trace_results",
    "traversals_saved",
    "worker_restarts",
}


def _pinned(summary: dict) -> dict:
    """Every value a fixed script fixes: not latencies, not the
    process-wide ``kernel_*`` counters other tests also move, and not
    ``queue_depth`` (a gauge the submitter and the dispatcher race on)."""
    return {
        key: value for key, value in summary.items()
        if not key.endswith("_ms") and not key.startswith("kernel_")
        and key != "queue_depth"
    }


@pytest.fixture
def pinned_engine(monkeypatch):
    """numpy kernels (synchronous supersteps), whatever the environment
    says."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")


@pytest.mark.parametrize("shards", [0, 2])
def test_scripted_run_matches_the_per_attribute_summary(
    pinned_engine, patch_prepare, shards
):
    summary = scripted_summary(shards, patch_prepare)
    assert set(summary) == PARENT_KEYS | {"strategy_sharded"}
    pinned = _pinned(summary)
    # the one new key: the shard tier's batches, counted but unreported
    assert pinned.pop("strategy_sharded") == pinned["sharded_batches"]
    assert pinned == PARENT_SUMMARY[shards]


class TestCounterTable:
    def test_every_counter_but_the_ratio_terms_is_reported(self):
        summary = ServiceMetrics().summary()
        hidden = {"cache_hits", "traversals_total", "lanes_total"}
        assert [k for k in COUNTERS if k in summary] == [
            k for k in COUNTERS if k not in hidden
        ]

    def test_unknown_counter_is_a_key_error(self):
        metrics = ServiceMetrics()
        with pytest.raises(KeyError):
            metrics.count(queries_totl=1)
        with pytest.raises(KeyError):
            ServiceMetrics(shards=2).count(shard0_steps=1)  # a retired row
        assert metrics.summary()["queries_total"] == 0

    def test_the_shard_tier_reports_router_supersteps_only(self):
        metrics = ServiceMetrics(shards=3)
        metrics.count(shard_supersteps=4)
        summary = metrics.summary()
        assert summary["shard_supersteps"] == 4 and summary["shards"] == 3
        assert not [key for key in summary if key.endswith("_steps")]


class TestConcurrentRecording:
    def test_no_update_is_lost_across_threads(self):
        metrics = ServiceMetrics(shards=2)
        threads_n, rounds = (os.cpu_count() or 2) + 2, 2000
        start = threading.Barrier(threads_n)

        def record() -> None:
            start.wait(10)
            for _ in range(rounds):
                metrics.count(queries_total=1, cache_hits=1, shard_supersteps=2)
                metrics.observe("total", 0.001)

        threads = [threading.Thread(target=record) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        summary = metrics.summary()
        assert summary["queries_total"] == threads_n * rounds
        assert summary["cache_hit_rate"] == 1.0
        assert summary["shard_supersteps"] == 2 * threads_n * rounds
        assert len(metrics._series["total"]) == min(
            threads_n * rounds, LATENCY_WINDOW
        )


class TestLatencySeries:
    def test_percentiles_cover_the_most_recent_window(self):
        # an unbounded series would still report the old 1 s samples:
        # 5 000 of them against 4 096 newer ones put p95 at 1000.0
        metrics = ServiceMetrics()
        for _ in range(5000):
            metrics.observe("total", 1.0)
        for _ in range(LATENCY_WINDOW):
            metrics.observe("total", 0.001)
        assert metrics.summary()["total_p95_ms"] == 1.0
        assert metrics.stage_percentile("total", 0.95) == 0.001

    def test_a_million_samples_stay_bounded_and_summarise_fast(self):
        metrics = ServiceMetrics()
        for name in STAGES + ("http",):
            observe = functools.partial(metrics.observe, name)
            for i in range(1_000_000):
                observe((i % 997) * 1e-4)
        assert all(
            len(series) == LATENCY_WINDOW
            for series in metrics._series.values()
        )
        elapsed = min(_timed(metrics.summary) for _ in range(3))
        assert elapsed < 0.05, elapsed

    def test_unknown_series_is_a_key_error(self):
        with pytest.raises(KeyError):
            ServiceMetrics().observe("kernel", 0.1)


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
