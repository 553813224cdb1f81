"""Analytics serving layer: cache, batch, and multiplex queries.

Everything below :mod:`repro.algorithms` computes one analytic on one
graph, preparing its input each call.  This package is the layer
a production deployment actually talks to (the Gunrock lesson: a GPU
graph library's value is its reusable runtime, not its kernels alone):

* :class:`GraphCatalog` — a content-addressed cache of prepared
  graphs (LRU memory tier + optional ``.npz`` disk spill) amortising
  per-algorithm input preparation across queries;
* :class:`AnalyticsService` — typed :class:`QueryRequest` /
  :class:`QueryResult` envelopes, a per-request check that rejects
  what :mod:`repro.core.applicability` rules out (every request is
  served from the CSR), same-graph request batching with source
  dedup, and a bounded-queue dispatcher pool with tenant quotas and
  priority classes at admission, backpressure, per-request timeouts,
  and cancellation.  Where a batch runs is an ordered
  list of places — shard tier (``shards=N``), local host processes
  that hydrate graphs and artifacts from a shared disk tier
  (``backend="processes"``, :mod:`repro.service.workers`), the
  dispatcher thread — with one rule for a lost place: the next one
  answers, ``degraded``;
* :class:`ServiceMetrics` — cache hit rate, queue depth, and
  per-stage latency percentiles in the same reporting style as
  :mod:`repro.gpu.metrics`;
* :mod:`repro.service.ingest` / :mod:`repro.service.replay` — a
  versioned JSONL trace format with a :class:`TraceReader`
  (file/stdin/socket sources, strict/skip malformed-line policies)
  and a :class:`TraceRecorder` the service wraps around live traffic;
  :func:`replay_trace` re-submits a recorded stream and verifies
  per-request result digests, making every captured trace a
  deterministic regression test that runs identically under both
  backends (see ``docs/testing.md``);
* :mod:`repro.service.api` — the HTTP/JSON front door (a stdlib
  HTTP server, one thread per connection, with token auth and rate
  limiting, and a trace-replaying client), speaking the same trace-v1 wire schema;
  see ``docs/http-api.md``.  Imported lazily — ``import
  repro.service.api`` — so non-network users pay nothing for it;
* :mod:`repro.service.sharding` — the shard tier: destination-
  partitioned shard executors (in-process or remote over ``tcp://``)
  and a scatter-gather router whose per-algorithm reduces keep result
  digests bitwise-identical to the single-engine path
  (``serve --shards N``); see ``docs/sharding.md``;
* :mod:`repro.service.routing` — the policy every service applies:
  per-tenant token quotas, priority classes, and cost-model-aware
  shard route selection.

CLI: ``python -m repro query`` (one-shot), ``python -m repro serve``
(synthetic workload driver, trace-driven via ``--trace``/``--record``,
or the network front door via ``--http HOST:PORT``).
"""

from repro.errors import (
    QuotaExhaustedError,
    ServiceOverloadError,
    ShardLost,
    UnknownGraphError,
    WorkerLost,
)
from repro.service.artifacts import ArtifactKey, TransformArtifact, load_artifact
from repro.service.batching import QueryBatch, group_requests
from repro.service.catalog import CatalogStats, GraphCatalog
from repro.service.economics import (
    CATALOG_POLICIES,
    CATALOG_POLICY_ENV,
    EvictionPolicy,
    GdsfPolicy,
    LruPolicy,
    make_policy,
    resolve_policy,
)
from repro.service.executor import (
    BACKENDS,
    AnalyticsService,
    QueryTicket,
    ShardedAnalyticsService,
    resolve_backend,
)
from repro.service.ingest import (
    TRACE_VERSION,
    Trace,
    TraceHeader,
    TraceReader,
    TraceRecorder,
    TraceRequest,
    TraceResult,
    dataset_graph_entry,
    load_trace,
    parse_request_payload,
    result_digest,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.planner import QueryPlan, plan_query
from repro.service.query import QueryRequest, QueryResult, StageTimings
from repro.service.replay import (
    DigestMismatch,
    ReplayReport,
    record_trace,
    replay_trace,
    resolve_trace_graphs,
)
from repro.service.routing import (
    PRIORITY_CLASSES,
    RouteDecision,
    RoutingPolicy,
    TenantQuota,
    parse_priority_arg,
    parse_quota_arg,
)
from repro.service.sharding import (
    LocalShard,
    RemoteShardHandle,
    ShardHostServer,
    ShardSet,
    parse_host_port,
)
from repro.service.workers import BatchOutcome, BatchSpec, execute_pipeline

__all__ = [
    "AnalyticsService",
    "ArtifactKey",
    "BACKENDS",
    "BatchOutcome",
    "BatchSpec",
    "CATALOG_POLICIES",
    "CATALOG_POLICY_ENV",
    "CatalogStats",
    "dataset_graph_entry",
    "DigestMismatch",
    "EvictionPolicy",
    "execute_pipeline",
    "GdsfPolicy",
    "GraphCatalog",
    "group_requests",
    "load_artifact",
    "load_trace",
    "LocalShard",
    "LruPolicy",
    "make_policy",
    "parse_host_port",
    "parse_priority_arg",
    "parse_quota_arg",
    "parse_request_payload",
    "percentile",
    "plan_query",
    "PRIORITY_CLASSES",
    "QueryBatch",
    "QueryPlan",
    "QueryRequest",
    "QueryResult",
    "QueryTicket",
    "QuotaExhaustedError",
    "record_trace",
    "RemoteShardHandle",
    "replay_trace",
    "ReplayReport",
    "resolve_backend",
    "resolve_policy",
    "resolve_trace_graphs",
    "result_digest",
    "RouteDecision",
    "RoutingPolicy",
    "ServiceMetrics",
    "ServiceOverloadError",
    "ShardedAnalyticsService",
    "ShardHostServer",
    "ShardLost",
    "ShardSet",
    "StageTimings",
    "TenantQuota",
    "Trace",
    "TRACE_VERSION",
    "TraceHeader",
    "TraceReader",
    "TraceRecorder",
    "TraceRequest",
    "TraceResult",
    "TransformArtifact",
    "UnknownGraphError",
    "WorkerLost",
]
