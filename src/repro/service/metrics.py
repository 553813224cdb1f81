"""Serving metrics: one table of named counters plus latency series.

Every monotone count the service keeps is a name in :data:`COUNTERS`,
and every recorder — executor, local hosts, shard tier, HTTP edge,
trace capture, replay — bumps it through :meth:`ServiceMetrics.count`.
Latencies land through :meth:`ServiceMetrics.observe` in bounded
series holding the most recent :data:`LATENCY_WINDOW` samples.
:meth:`ServiceMetrics.summary` is the flat dict ``GET /v1/metrics``
returns: the table plus the values derived from it.  Thread-safe, and
cheap enough to stay on by default (a lock and a few integer adds per
batch, a deque append per sample).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List

from repro.engine import kernels

#: serving stages with recorded latencies, in pipeline order.
STAGES = ("queue", "plan", "execute", "total")

#: latency samples kept per series; percentiles cover the most recent.
LATENCY_WINDOW = 4096

#: every monotone count, in ``summary()`` order.  ``cache_hits``,
#: ``traversals_total`` and ``lanes_total`` are not reported themselves:
#: they are the numerators and denominators of ``cache_hit_rate`` and
#: ``lanes_per_traversal``.
COUNTERS = (
    "queries_total", "queries_failed", "queries_degraded",
    "queries_timed_out", "queries_cancelled", "cache_hits",
    # batching: merged requests, deduplicated sources, engine passes,
    # the lanes they carried and the scalar passes lanes replaced
    "batches_merged", "sources_deduped", "traversals_total",
    "lanes_total", "traversals_saved",
    # batches per planner strategy (distance fan-outs report
    # lanes/loop, fixed shapes per-source/shared, the shard tier sharded)
    "strategy_lanes", "strategy_loop", "strategy_per_source",
    "strategy_shared", "strategy_sharded",
    # process backend (zero on threads: nothing crosses IPC)
    "worker_restarts", "ipc_bytes",
    # HTTP front door (zero without a ThreadedApiServer)
    "http_requests", "http_2xx", "http_4xx", "http_5xx",
    "http_rate_limited", "http_bytes_sent",
    # trace capture and replay verification
    "trace_requests", "trace_results",
    "replay_digests_checked", "replay_digest_mismatches",
    # shard tier (zero unless built with ``shards``)
    "sharded_batches", "shard_supersteps", "shard_fallbacks",
    "shard_exchange_bytes",
    # admission policy (zero with no quotas configured)
    "quota_rejected",
)

_RATIO_TERMS = ("cache_hits", "traversals_total", "lanes_total")

#: reported as constant zeros, which they are (serving caches nothing):
#: kept while ``benchmarks/ledger/run.py`` subtracts them.
CATALOG_KEYS = tuple(f"catalog_{name}" for name in (
    "hits", "misses", "disk_hits", "builds", "evictions", "bytes_in_memory"))


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set).

    Nearest-rank (not interpolated) so reported p95s are latencies
    that actually happened, which is what an operator pages on.
    """
    return _nearest_rank(sorted(samples), fraction)


def _nearest_rank(ordered: List[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class ServiceMetrics:
    """Aggregate serving telemetry for one :class:`AnalyticsService`:
    the :data:`COUNTERS` table, latency series, and the queue gauges."""

    def __init__(self, *, backend: str = "threads", shards: int = 0) -> None:
        self._lock = threading.Lock()
        self.backend = backend
        self.shards = int(shards)
        self._counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._series: Dict[str, Deque[float]] = {
            name: deque(maxlen=LATENCY_WINDOW) for name in STAGES + ("http",)
        }
        self._queue_depth = 0
        self._max_queue_depth = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, **increments: int) -> None:
        """Add to named counters; a name outside the table is a KeyError."""
        with self._lock:
            for name, amount in increments.items():
                self._counts[name] += int(amount)

    def observe(self, series: str, seconds: float) -> None:
        """Append one latency sample to a stage series or ``http``."""
        with self._lock:
            self._series[series].append(seconds)

    def queue_depth_changed(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._max_queue_depth = max(self._max_queue_depth, depth)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def ipc_bytes_snapshot(self) -> int:
        """Current IPC byte total (for per-batch deltas)."""
        with self._lock:
            return self._counts["ipc_bytes"]

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served queries whose batch built nothing."""
        with self._lock:
            return _ratio(self._counts["cache_hits"], self._counts["queries_total"])

    def stage_percentile(self, stage: str, fraction: float) -> float:
        """Latency percentile (seconds) of one serving stage."""
        with self._lock:
            samples = list(self._series[stage])
        return percentile(samples, fraction)

    def summary(self) -> Dict[str, object]:
        """Flat dict for table formatting, like ``RunMetrics.summary``.

        Copies the table and every series under one lock acquisition,
        so the reported fields are mutually consistent, and sorts each
        copy once after releasing it.  The ``kernel_*`` fields are this
        process's kernel-backend counters (shard threads included;
        local hosts and remote shard hosts keep their own).
        """
        kernel_backend, kernel_engaged, kernel_declined = kernels.engagement()
        with self._lock:
            counts = dict(self._counts)
            queue_depth, max_queue_depth = self._queue_depth, self._max_queue_depth
            series = {name: list(samples) for name, samples in self._series.items()}
        out: Dict[str, object] = {
            "kernel_backend": kernel_backend,
            "kernel_engaged": kernel_engaged,
            "kernel_declined": kernel_declined,
        }
        out.update(
            (name, counts[name]) for name in COUNTERS if name not in _RATIO_TERMS
        )
        out["cache_hit_rate"] = _ratio(counts["cache_hits"], counts["queries_total"])
        out["lanes_per_traversal"] = _ratio(
            counts["lanes_total"], counts["traversals_total"]
        )
        out["queue_depth"] = queue_depth
        out["max_queue_depth"] = max_queue_depth
        out["shards"] = self.shards
        for name, samples in series.items():
            samples.sort()
            out[f"{name}_p50_ms"] = _nearest_rank(samples, 0.5) * 1e3
            out[f"{name}_p95_ms"] = _nearest_rank(samples, 0.95) * 1e3
        out.update(dict.fromkeys(CATALOG_KEYS, 0))
        return out


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
