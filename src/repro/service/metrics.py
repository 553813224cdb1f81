"""Serving metrics: cache hit rate, queue depth, stage latencies.

Mirrors the conventions of :mod:`repro.gpu.metrics`: small dataclass
records accumulated into an aggregate with derived properties and a
flat ``summary()`` dict for table/JSON formatting.  Everything is
thread-safe — workers record concurrently — and cheap enough to stay
on by default (a lock and a list append per stage).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine import kernels
from repro.service.catalog import CatalogStats

#: serving stages with recorded latencies, in pipeline order.
STAGES = ("queue", "plan", "transform", "execute", "total")


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for an empty sample set).

    Nearest-rank (not interpolated) so reported p95s are latencies
    that actually happened, which is what an operator pages on.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class QueryRecord:
    """Per-query observation the aggregate consumes."""

    stage_seconds: Dict[str, float]
    cache_hit: bool
    degraded: bool
    timed_out: bool
    cancelled: bool
    failed: bool
    batched_with: int = 0
    sources_deduped: int = 0
    #: engine passes the batch launched (attributed once per batch).
    traversals: int = 0
    #: per-source lanes those passes carried in total.
    lanes: int = 0
    #: scalar passes avoided by lane-parallel batching.
    traversals_saved: int = 0
    #: bytes shipped across the process-backend IPC boundary for this
    #: batch (spec down + reply up; 0 on the thread backend).
    ipc_bytes: int = 0
    #: worker-side cache fills served from the shared disk tier
    #: instead of a rebuild (0 on the thread backend).
    hydrate_hits: int = 0
    #: execution strategy the batch planner chose ("lanes", "loop",
    #: "per-source", "shared"; attributed once per batch, "" otherwise).
    strategy: str = ""


class ServiceMetrics:
    """Aggregate serving telemetry for one :class:`AnalyticsService`."""

    def __init__(
        self,
        catalog_stats: Optional[CatalogStats] = None,
        *,
        backend: str = "threads",
        catalog_policy: str = "lru",
    ) -> None:
        self._lock = threading.Lock()
        self._stage_samples: Dict[str, List[float]] = {s: [] for s in STAGES}
        self._catalog_stats = catalog_stats
        self.backend = backend
        #: eviction policy of the attached catalog (labels evictions).
        self.catalog_policy = catalog_policy
        self.queries_total = 0
        self.queries_failed = 0
        self.queries_degraded = 0
        self.queries_timed_out = 0
        self.queries_cancelled = 0
        self.cache_hits = 0
        self.batches_merged = 0
        self.sources_deduped = 0
        self.traversals_total = 0
        self.lanes_total = 0
        self.traversals_saved = 0
        #: batches per planner strategy (the cost model's choices).
        self.strategy_counts: Dict[str, int] = {}
        #: high-water mark of the submission queue.
        self.max_queue_depth = 0
        self._queue_depth = 0
        #: process-backend counters (all zero on the thread backend).
        self.worker_restarts = 0
        self.ipc_bytes = 0
        self.hydrate_hits = 0
        #: HTTP front-door counters (all zero without an attached
        #: :class:`~repro.service.api.server.ApiServer`).
        self.http_requests = 0
        self.http_2xx = 0
        self.http_4xx = 0
        self.http_5xx = 0
        self.http_rate_limited = 0
        self.http_bytes_sent = 0
        self._http_seconds: List[float] = []
        #: trace-capture counters (zero unless a recorder is attached).
        self.trace_requests = 0
        self.trace_results = 0
        #: replay verification counters (zero outside replay runs).
        self.replay_digests_checked = 0
        self.replay_digest_mismatches = 0
        #: sharded-tier counters (all zero on unsharded services).
        self.shards = 0
        self.sharded_batches = 0
        self.shard_supersteps = 0
        self.shard_fallbacks = 0
        self.shard_exchange_bytes = 0
        #: supersteps executed per shard id (the shard tag).
        self.shard_steps: Dict[int, int] = {}
        #: admission-policy counters (zero with no quotas configured).
        self.quota_rejected = 0

    # ------------------------------------------------------------------
    # Recording (called by the executor)
    # ------------------------------------------------------------------
    def record(self, record: QueryRecord) -> None:
        with self._lock:
            self.queries_total += 1
            self.queries_failed += int(record.failed)
            self.queries_degraded += int(record.degraded)
            self.queries_timed_out += int(record.timed_out)
            self.queries_cancelled += int(record.cancelled)
            self.cache_hits += int(record.cache_hit)
            self.batches_merged += record.batched_with
            self.sources_deduped += record.sources_deduped
            self.traversals_total += record.traversals
            self.lanes_total += record.lanes
            self.traversals_saved += record.traversals_saved
            self.hydrate_hits += record.hydrate_hits
            if record.strategy:
                self.strategy_counts[record.strategy] = (
                    self.strategy_counts.get(record.strategy, 0) + 1
                )
            for stage, seconds in record.stage_seconds.items():
                if stage in self._stage_samples:
                    self._stage_samples[stage].append(seconds)

    def queue_depth_changed(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)

    def worker_restarted(self) -> None:
        """A pool worker died and the pool was replaced."""
        with self._lock:
            self.worker_restarts += 1

    def ipc_observed(self, nbytes: int) -> None:
        """Account bytes crossing the process-backend IPC boundary."""
        with self._lock:
            self.ipc_bytes += int(nbytes)

    def ipc_bytes_snapshot(self) -> int:
        """Current IPC byte total (for per-batch deltas)."""
        with self._lock:
            return self.ipc_bytes

    def http_observed(
        self, status: int, seconds: float, *, bytes_sent: int = 0
    ) -> None:
        """Account one served HTTP request (any route, any status)."""
        with self._lock:
            self.http_requests += 1
            if 200 <= status < 300:
                self.http_2xx += 1
            elif 400 <= status < 500:
                self.http_4xx += 1
            elif status >= 500:
                self.http_5xx += 1
            self.http_bytes_sent += int(bytes_sent)
            self._http_seconds.append(seconds)

    def http_rate_limit_rejected(self) -> None:
        """A request bounced off the token-bucket rate limiter."""
        with self._lock:
            self.http_rate_limited += 1

    def trace_observed(self, *, requests: int = 0, results: int = 0) -> None:
        """Account trace-capture activity (attached recorder)."""
        with self._lock:
            self.trace_requests += int(requests)
            self.trace_results += int(results)

    def replay_observed(self, *, checked: int = 0, mismatched: int = 0) -> None:
        """Account replay digest verification against this service."""
        with self._lock:
            self.replay_digests_checked += int(checked)
            self.replay_digest_mismatches += int(mismatched)

    def sharded_observed(
        self,
        *,
        supersteps: int = 0,
        exchange_bytes: int = 0,
        per_shard_steps: Optional[Dict[int, int]] = None,
    ) -> None:
        """Account one batch executed through the scatter-gather router."""
        with self._lock:
            self.sharded_batches += 1
            self.shard_supersteps += int(supersteps)
            self.shard_exchange_bytes += int(exchange_bytes)
            for shard, steps in (per_shard_steps or {}).items():
                self.shard_steps[int(shard)] = (
                    self.shard_steps.get(int(shard), 0) + int(steps)
                )

    def shards_configured(self, shards: int) -> None:
        """Record the sharded tier's topology (called once at startup)."""
        with self._lock:
            self.shards = int(shards)

    def shard_fallback_observed(self) -> None:
        """Account one :class:`ShardLost` degradation to the single path."""
        with self._lock:
            self.shard_fallbacks += 1

    def quota_rejected_observed(self) -> None:
        """Account one tenant-quota admission refusal."""
        with self._lock:
            self.quota_rejected += 1

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently queued (a gauge, not a counter)."""
        with self._lock:
            return self._queue_depth

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of served queries whose artifact was already cached."""
        with self._lock:
            if self.queries_total == 0:
                return 0.0
            return self.cache_hits / self.queries_total

    def evictions_by_policy(self) -> Dict[str, int]:
        """Catalog evictions attributed to the active eviction policy.

        One catalog runs one policy, so the dict has one entry — keyed
        by policy name so dashboards comparing deployments (or the
        cache-policy bench sweeping both) aggregate without relabeling.
        Empty when no catalog stats are attached.
        """
        if self._catalog_stats is None:
            return {}
        return {self.catalog_policy: self._catalog_stats.evictions}

    def stage_percentile(self, stage: str, fraction: float) -> float:
        """Latency percentile (seconds) of one serving stage."""
        with self._lock:
            return percentile(self._stage_samples[stage], fraction)

    def summary(self) -> Dict[str, object]:
        """Flat dict for table formatting, like ``RunMetrics.summary``.

        Snapshots every counter under one lock acquisition so the
        reported fields are mutually consistent even while workers
        record concurrently.  The ``kernel_*`` fields are this
        process's kernel-backend counters (shard threads included;
        process-pool workers and remote shard hosts keep their own).
        """
        kernel_backend, kernel_engaged, kernel_declined = kernels.engagement()
        with self._lock:
            out: Dict[str, object] = {
                "kernel_backend": kernel_backend,
                "kernel_engaged": kernel_engaged,
                "kernel_declined": kernel_declined,
                "queries_total": self.queries_total,
                "queries_failed": self.queries_failed,
                "queries_degraded": self.queries_degraded,
                "queries_timed_out": self.queries_timed_out,
                "queries_cancelled": self.queries_cancelled,
                "cache_hit_rate": (
                    self.cache_hits / self.queries_total
                    if self.queries_total else 0.0
                ),
                "batches_merged": self.batches_merged,
                "sources_deduped": self.sources_deduped,
                # the batching win: mean lane occupancy per engine
                # pass, and how many scalar passes lanes replaced.
                "lanes_per_traversal": (
                    self.lanes_total / self.traversals_total
                    if self.traversals_total else 0.0
                ),
                "traversals_saved": self.traversals_saved,
                # batches per cost-model strategy choice (distance
                # fan-outs report "lanes"/"loop"; fixed shapes report
                # "per-source"/"shared").
                "strategy_lanes": self.strategy_counts.get("lanes", 0),
                "strategy_loop": self.strategy_counts.get("loop", 0),
                "strategy_per_source": self.strategy_counts.get(
                    "per-source", 0
                ),
                "strategy_shared": self.strategy_counts.get("shared", 0),
                "queue_depth": self._queue_depth,
                "max_queue_depth": self.max_queue_depth,
                # process-backend telemetry; identically zero when
                # ``backend == "threads"`` (nothing crosses IPC).
                "worker_restarts": self.worker_restarts,
                "ipc_bytes": self.ipc_bytes,
                "hydrate_hits": self.hydrate_hits,
                # HTTP front-door telemetry; identically zero when no
                # ApiServer fronts this service.
                "http_requests": self.http_requests,
                "http_2xx": self.http_2xx,
                "http_4xx": self.http_4xx,
                "http_5xx": self.http_5xx,
                "http_rate_limited": self.http_rate_limited,
                "http_bytes_sent": self.http_bytes_sent,
                "http_p50_ms": percentile(self._http_seconds, 0.5) * 1e3,
                "http_p95_ms": percentile(self._http_seconds, 0.95) * 1e3,
                # trace/replay telemetry; zero unless a recorder is
                # attached or a replay verified against this service.
                "trace_requests": self.trace_requests,
                "trace_results": self.trace_results,
                "replay_digests_checked": self.replay_digests_checked,
                "replay_digest_mismatches": self.replay_digest_mismatches,
                # shard-tier telemetry; identically zero unless the
                # service was built with ``shards``.
                "shards": self.shards,
                "sharded_batches": self.sharded_batches,
                "shard_supersteps": self.shard_supersteps,
                "shard_fallbacks": self.shard_fallbacks,
                "shard_exchange_bytes": self.shard_exchange_bytes,
                "quota_rejected": self.quota_rejected,
            }
            for shard in sorted(self.shard_steps):
                out[f"shard{shard}_steps"] = self.shard_steps[shard]
            percentiles = {
                stage: {
                    f"p{int(f * 100)}": percentile(samples, f)
                    for f in (0.5, 0.95)
                }
                for stage, samples in self._stage_samples.items()
            }
        for stage, values in percentiles.items():
            for name, seconds in values.items():
                out[f"{stage}_{name}_ms"] = seconds * 1e3
        if self._catalog_stats is not None:
            for key, value in self._catalog_stats.as_dict().items():
                out[f"catalog_{key}"] = value
            # pre-warm and policy telemetry at top level too: these are
            # the knobs docs/cache-economics.md tells operators to watch.
            out["prewarm_built"] = self._catalog_stats.prewarm_built
            out["prewarm_hits"] = self._catalog_stats.prewarm_hits
            for policy, evictions in self.evictions_by_policy().items():
                out[f"evictions_{policy}"] = evictions
        return out
