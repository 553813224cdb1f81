"""Cache economics: cost-aware eviction, trace mining, pre-warming.

Tigr's speedups come from transform artifacts that are expensive to
build and cheap to reuse (§6.5, Table 7) — but a plain LRU treats an
artifact that took 40 s to build and occupies 2 MB the same as a 50 ms
throwaway, so one burst of large one-shot requests flushes exactly the
artifacts that make warm serving fast.  This module gives the catalog
an economic memory:

* **eviction policies** — a pluggable victim-selection layer for
  :class:`~repro.service.catalog.GraphCatalog`.  ``"lru"`` preserves
  the original recency order; ``"gdsf"`` is Greedy-Dual-Size-Frequency
  (Cherkasova '98), whose priority per entry is::

      priority = clock + frequency * build_seconds / nbytes

  The inflation ``clock`` rises to each victim's priority on eviction,
  so long-idle entries age out while small, expensive, frequently hit
  artifacts stay resident.  Policy state is guarded by the catalog's
  own lock (every callback runs under it), and its inputs —
  ``build_seconds`` and ``nbytes()`` — travel inside the spilled
  ``.npz`` archive, so a process worker hydrating from the shared disk
  tier recomputes the same base priority the parent computed.

* **a trace-mining forecaster** — parses recorded trace-v1 streams
  (:mod:`repro.service.ingest`) into per-(graph fingerprint, kind, K)
  arrival histograms, resolving each recorded request through the real
  planner so ``k=0`` requests forecast the artifact they would actually
  demand (``transform="auto"`` serves the CSR and warms nothing).  The
  result is a :class:`WarmPlan`: warm-set entries ranked by expected
  build seconds saved (``requests × est_build_s``), serialisable to JSON
  (``python -m repro forecast TRACE... --out PLAN``).

* **a pre-warmer** — :class:`Prewarmer` replays a plan's entries
  through the normal prepare/plan/build pipeline on a background
  thread before traffic lands (``serve --prewarm PLAN`` or
  ``--prewarm-from-trace TRACE``), reporting progress through the
  catalog stats the service metrics already surface
  (``prewarm_built``, ``prewarm_hits``, ``evictions_<policy>``).

See ``docs/cache-economics.md`` for the policy math, the plan file
format, and when LRU remains the right choice.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError, TigrError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.csr import CSRGraph
    from repro.service.artifacts import ArtifactKey, TransformArtifact
    from repro.service.executor import AnalyticsService
    from repro.service.ingest import Trace

#: environment fallback for the catalog eviction policy, mirroring
#: REPRO_SERVICE_WORKERS / REPRO_KERNEL_BACKEND: process workers
#: inherit it at spawn, so one variable pins the whole process tree.
CATALOG_POLICY_ENV = "REPRO_CATALOG_POLICY"

#: eviction policies the catalog understands.
CATALOG_POLICIES = ("lru", "gdsf")

#: current warm-set plan schema version.
WARM_PLAN_VERSION = 1


def resolve_policy(policy: Optional[str]) -> str:
    """Resolve an eviction-policy choice: explicit arg > env > LRU."""
    choice = policy or os.environ.get(CATALOG_POLICY_ENV) or "lru"
    choice = choice.strip().lower()
    if choice not in CATALOG_POLICIES:
        raise ServiceError(
            f"unknown catalog policy {choice!r}; "
            f"known: {', '.join(CATALOG_POLICIES)}"
        )
    return choice


# ----------------------------------------------------------------------
# Eviction policies
# ----------------------------------------------------------------------
class EvictionPolicy:
    """Victim selection for the catalog's memory tier.

    Every method is invoked by :class:`GraphCatalog` *while holding its
    lock*, so implementations keep plain dicts and no locking of their
    own.  ``entries`` arguments are the catalog's live ``OrderedDict``
    in recency order (oldest first) — policies must not mutate it.
    """

    name = "base"

    def record_insert(self, key: "ArtifactKey", artifact: "TransformArtifact") -> None:
        """A fresh artifact entered the memory tier under ``key``."""

    def record_access(self, key: "ArtifactKey", artifact: "TransformArtifact") -> None:
        """A resident entry was served (a memory hit)."""

    def record_evict(self, key: "ArtifactKey") -> None:
        """``key`` was chosen as a victim and left the memory tier."""

    def forget(self, key: "ArtifactKey") -> None:
        """``key`` left the tier for a non-eviction reason (replace/clear)."""

    def select_victim(self, entries) -> "ArtifactKey":
        """The key to evict next; ``entries`` is non-empty."""
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all per-key state (the catalog was cleared)."""


class LruPolicy(EvictionPolicy):
    """Least-recently-used: the catalog's original behaviour.

    Recency lives in the catalog's ``OrderedDict`` itself (hits
    ``move_to_end``), so this policy is stateless: the victim is
    always the front of the order.
    """

    name = "lru"

    def select_victim(self, entries) -> "ArtifactKey":
        return next(iter(entries))


class GdsfPolicy(EvictionPolicy):
    """Greedy-Dual-Size-Frequency: cost-per-byte-aware eviction.

    ``priority(key) = clock + frequency[key] * build_seconds / nbytes``
    — an entry's priority is what keeping it is worth (expected build
    seconds saved per byte of budget, scaled by how often it is hit),
    inflated by a clock that rises to each victim's priority so stale
    popularity decays.  Frequencies survive eviction: a key that
    returns via the disk tier resumes its hit count instead of
    restarting at one, which is what lets a spill/hydrate round-trip
    (including a process worker hydrating the parent's write-through
    artifact) agree with the parent's accounting.
    """

    name = "gdsf"

    def __init__(self) -> None:
        self._clock = 0.0
        self._frequency: Dict["ArtifactKey", int] = {}
        self._priority: Dict["ArtifactKey", float] = {}

    @property
    def clock(self) -> float:
        """Current inflation clock (rises to each victim's priority)."""
        return self._clock

    def frequency_of(self, key: "ArtifactKey") -> int:
        """Accumulated hit count for ``key`` (survives eviction)."""
        return self._frequency.get(key, 0)

    def priority_of(self, key: "ArtifactKey") -> float:
        """Current priority of a resident key (0.0 when absent)."""
        return self._priority.get(key, 0.0)

    def _reprice(self, key: "ArtifactKey", artifact: "TransformArtifact") -> None:
        value = (
            self._frequency.get(key, 1)
            * float(artifact.build_seconds)
            / max(1, artifact.nbytes())
        )
        self._priority[key] = self._clock + value

    def record_insert(self, key, artifact) -> None:
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._reprice(key, artifact)

    def record_access(self, key, artifact) -> None:
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._reprice(key, artifact)

    def record_evict(self, key) -> None:
        # Classic GDSF aging: the clock rises to the evicted priority,
        # so future inserts outrank entries that stopped earning hits.
        self._clock = max(self._clock, self._priority.pop(key, self._clock))

    def forget(self, key) -> None:
        self._priority.pop(key, None)

    def select_victim(self, entries) -> "ArtifactKey":
        # Minimum priority loses; ties break towards the LRU front
        # (iteration order), matching the plain-LRU behaviour exactly
        # when every entry prices the same.
        victim = None
        victim_priority = float("inf")
        for key in entries:
            priority = self._priority.get(key, 0.0)
            if priority < victim_priority:
                victim, victim_priority = key, priority
        assert victim is not None
        return victim

    def reset(self) -> None:
        self._clock = 0.0
        self._frequency.clear()
        self._priority.clear()


def make_policy(name: Optional[str]) -> EvictionPolicy:
    """Instantiate the eviction policy ``name`` resolves to."""
    resolved = resolve_policy(name)
    if resolved == "gdsf":
        return GdsfPolicy()
    return LruPolicy()


# ----------------------------------------------------------------------
# Trace mining: demand forecast -> warm-set plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WarmEntry:
    """One forecast artifact: identity, demand, and how to rebuild it.

    Identity is the resolved artifact — ``(fingerprint, kind, k,
    dumb_weight)`` of the *prepared* graph the planner would key it
    under — while ``graph``/``algorithm``/``transform``/
    ``degree_bound`` keep the recorded request signature the
    pre-warmer replays through the real pipeline to rebuild it.
    """

    #: trace graph name (key into the plan's recipe dict).
    graph: str
    #: prepared-graph fingerprint the artifact is keyed under.
    fingerprint: str
    #: resolved transform kind ("udt" | "virtual" | "virtual+").
    kind: str
    #: resolved degree bound (the planner's K when the trace said 0).
    k: int
    dumb_weight: str
    #: representative request signature for the pre-warmer.
    algorithm: str
    transform: str
    degree_bound: int
    #: demand mined from the trace.
    requests: int
    first_arrival_s: float
    #: arrival histogram: request count per plan-wide time bucket.
    histogram: Tuple[int, ...]
    #: predicted cold build cost (planner model, seconds).
    est_build_s: float
    #: expected build seconds saved by keeping this warm.
    score: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "graph": self.graph,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "k": self.k,
            "dumb_weight": self.dumb_weight,
            "algorithm": self.algorithm,
            "transform": self.transform,
            "degree_bound": self.degree_bound,
            "requests": self.requests,
            "first_arrival_s": round(self.first_arrival_s, 6),
            "histogram": list(self.histogram),
            "est_build_s": round(self.est_build_s, 6),
            "score": round(self.score, 6),
        }


@dataclass
class WarmPlan:
    """A ranked warm set plus the graph recipes needed to build it."""

    #: trace-header graph recipes, name -> recipe dict.
    graphs: Dict[str, dict] = field(default_factory=dict)
    #: entries ranked by score (descending), first arrival breaking ties.
    entries: List[WarmEntry] = field(default_factory=list)
    #: width of one histogram bucket, seconds.
    bucket_s: float = 1.0
    #: recorded span of the mined trace(s), seconds.
    trace_seconds: float = 0.0
    #: total requests mined (including uncacheable "none" plans).
    requests_total: int = 0
    #: requests whose plan produces no cacheable artifact.
    uncacheable: int = 0
    #: where the plan came from (trace paths; informational).
    sources: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": WARM_PLAN_VERSION,
            "kind": "repro-warm-plan",
            "graphs": self.graphs,
            "bucket_s": self.bucket_s,
            "trace_seconds": round(self.trace_seconds, 6),
            "requests_total": self.requests_total,
            "uncacheable": self.uncacheable,
            "sources": list(self.sources),
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def top(self, count: int) -> "WarmPlan":
        """A copy keeping only the ``count`` highest-ranked entries."""
        if count <= 0 or count >= len(self.entries):
            return self
        return WarmPlan(
            graphs=dict(self.graphs),
            entries=list(self.entries[:count]),
            bucket_s=self.bucket_s,
            trace_seconds=self.trace_seconds,
            requests_total=self.requests_total,
            uncacheable=self.uncacheable,
            sources=self.sources,
        )


def save_plan(plan: WarmPlan, path: str) -> None:
    """Write a warm-set plan as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(plan.as_dict(), handle, indent=2)
        handle.write("\n")


def load_plan(path: str) -> WarmPlan:
    """Read a plan written by :func:`save_plan` (version-checked)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ServiceError(f"cannot read warm-set plan {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "repro-warm-plan":
        raise ServiceError(
            f"{path!r} is not a warm-set plan (expected a JSON object "
            f"with kind='repro-warm-plan'; build one with "
            f"'python -m repro forecast TRACE --out PLAN')"
        )
    version = payload.get("version")
    if version != WARM_PLAN_VERSION:
        raise ServiceError(
            f"warm-set plan {path!r} has version {version!r}; "
            f"this build reads version {WARM_PLAN_VERSION}"
        )
    entries = []
    try:
        for raw in payload.get("entries", ()):
            entries.append(WarmEntry(
                graph=str(raw["graph"]),
                fingerprint=str(raw["fingerprint"]),
                kind=str(raw["kind"]),
                k=int(raw["k"]),
                dumb_weight=str(raw.get("dumb_weight", "none")),
                algorithm=str(raw["algorithm"]),
                transform=str(raw["transform"]),
                degree_bound=int(raw.get("degree_bound", 0)),
                requests=int(raw["requests"]),
                first_arrival_s=float(raw.get("first_arrival_s", 0.0)),
                histogram=tuple(int(v) for v in raw.get("histogram", ())),
                est_build_s=float(raw.get("est_build_s", 0.0)),
                score=float(raw.get("score", 0.0)),
            ))
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            f"malformed warm-set plan entry in {path!r}: {exc}"
        ) from exc
    return WarmPlan(
        graphs=dict(payload.get("graphs", {})),
        entries=entries,
        bucket_s=float(payload.get("bucket_s", 1.0)),
        trace_seconds=float(payload.get("trace_seconds", 0.0)),
        requests_total=int(payload.get("requests_total", 0)),
        uncacheable=int(payload.get("uncacheable", 0)),
        sources=tuple(payload.get("sources", ())),
    )


def forecast_trace(
    trace: "Trace",
    *,
    graphs: Optional[Dict[str, "CSRGraph"]] = None,
    buckets: int = 16,
    source: str = "",
) -> WarmPlan:
    """Mine one loaded trace into a :class:`WarmPlan`.

    Each recorded request is resolved through the *real* planner
    against the prepared form of its graph, so ``k=0`` forecasts the
    concrete ``(kind, K)`` the serving layer would actually build — a
    warm entry is an artifact identity, not a request string.  Plans
    that read no transform (``"none"``, and ``"auto"``, which serves the
    CSR) count as ``uncacheable``.  Demand per artifact is an arrival
    histogram over ``buckets`` equal time buckets of the recorded span;
    entries are ranked by ``requests × est_build_s`` (expected build
    seconds saved by keeping the artifact resident).
    """
    # Imported here, not at module top: the catalog imports this
    # module for its policy layer, and these pull the catalog back in.
    from repro.service.catalog import GraphCatalog
    from repro.service.planner import estimate_build_seconds
    from repro.service.replay import resolve_trace_graphs
    from repro.service.workers import plan_batch

    resolved = resolve_trace_graphs(trace, overrides=graphs)
    scratch = GraphCatalog()  # caches prepared graphs across requests
    span = sum(request.delta_s for request in trace.requests)
    bucket_s = max(span / buckets, 1e-9)

    @dataclass
    class _Demand:
        entry_kwargs: dict
        requests: int = 0
        first_arrival_s: float = float("inf")
        histogram: List[int] = field(default_factory=lambda: [0] * buckets)

    demand: Dict[tuple, _Demand] = {}
    plans: Dict[tuple, tuple] = {}
    uncacheable = 0
    clock = 0.0
    for request in trace.requests:
        clock += request.delta_s
        signature = (
            request.graph, request.algorithm,
            request.transform, request.degree_bound,
        )
        cached_plan = plans.get(signature)
        if cached_plan is None:
            try:
                prepared, plan, _ = plan_batch(
                    scratch, resolved[request.graph], request.algorithm,
                    request.sources, transform=request.transform,
                    degree_bound=request.degree_bound,
                )
            except TigrError:
                # A request the planner rejects outright (e.g. udt on
                # an inapplicable analytic) warms nothing.
                plans[signature] = cached_plan = (None, None, 0.0)
                uncacheable += 1
                continue
            if not plan.caches:
                plans[signature] = cached_plan = (None, None, 0.0)
                uncacheable += 1
                continue
            key = (
                prepared.fingerprint(), plan.transform,
                plan.degree_bound, plan.dumb_weight.value,
            )
            plans[signature] = cached_plan = (
                key, signature, estimate_build_seconds(prepared, plan)
            )
        artifact_key, rep_signature, est_build_s = cached_plan
        if artifact_key is None:
            uncacheable += 1
            continue
        record = demand.get(artifact_key)
        if record is None:
            fingerprint, kind, k, dumb_weight = artifact_key
            graph_name, algorithm, transform, degree_bound = rep_signature
            record = demand[artifact_key] = _Demand(entry_kwargs=dict(
                graph=graph_name,
                fingerprint=fingerprint,
                kind=kind,
                k=k,
                dumb_weight=dumb_weight,
                algorithm=algorithm,
                transform=transform,
                degree_bound=degree_bound,
                est_build_s=est_build_s,
            ))
        record.requests += 1
        record.first_arrival_s = min(record.first_arrival_s, clock)
        bucket = min(buckets - 1, int(clock / bucket_s)) if span > 0 else 0
        record.histogram[bucket] += 1

    entries = [
        WarmEntry(
            requests=record.requests,
            first_arrival_s=record.first_arrival_s,
            histogram=tuple(record.histogram),
            score=record.requests * record.entry_kwargs["est_build_s"],
            **record.entry_kwargs,
        )
        for record in demand.values()
    ]
    entries.sort(key=lambda e: (-e.score, e.first_arrival_s, e.fingerprint))
    return WarmPlan(
        graphs=dict(trace.header.graphs),
        entries=entries,
        bucket_s=bucket_s,
        trace_seconds=span,
        requests_total=len(trace.requests),
        uncacheable=uncacheable,
        sources=(source,) if source else (),
    )


def forecast_traces(
    sources: Sequence[str],
    *,
    graphs: Optional[Dict[str, "CSRGraph"]] = None,
    buckets: int = 16,
    on_malformed: str = "strict",
) -> WarmPlan:
    """Mine one or more recorded trace files into one merged plan.

    Entries are merged by artifact identity (fingerprint, kind, K,
    dumb weight): request counts and histograms add, first arrivals
    take the minimum.  Graph recipes merge by name; a later trace's
    recipe for the same name wins (content-addressed fingerprints make
    a genuine conflict a replay-time error, not a silent mix-up).
    """
    from repro.service.ingest import load_trace

    if not sources:
        raise ServiceError("forecast needs at least one trace source")
    merged: Optional[WarmPlan] = None
    for path in sources:
        trace = load_trace(path, on_malformed=on_malformed)
        plan = forecast_trace(
            trace, graphs=graphs, buckets=buckets, source=str(path)
        )
        merged = plan if merged is None else _merge_plans(merged, plan)
    assert merged is not None
    return merged


def _merge_plans(base: WarmPlan, extra: WarmPlan) -> WarmPlan:
    by_identity: Dict[tuple, WarmEntry] = {
        (e.fingerprint, e.kind, e.k, e.dumb_weight): e for e in base.entries
    }
    for entry in extra.entries:
        identity = (entry.fingerprint, entry.kind, entry.k, entry.dumb_weight)
        seen = by_identity.get(identity)
        if seen is None:
            by_identity[identity] = entry
            continue
        histogram = tuple(
            a + b for a, b in zip(
                seen.histogram, entry.histogram
            )
        ) if len(seen.histogram) == len(entry.histogram) else seen.histogram
        requests = seen.requests + entry.requests
        by_identity[identity] = replace(
            seen,
            requests=requests,
            first_arrival_s=min(seen.first_arrival_s, entry.first_arrival_s),
            histogram=histogram,
            score=requests * seen.est_build_s,
        )
    entries = sorted(
        by_identity.values(),
        key=lambda e: (-e.score, e.first_arrival_s, e.fingerprint),
    )
    graphs = dict(base.graphs)
    graphs.update(extra.graphs)
    return WarmPlan(
        graphs=graphs,
        entries=entries,
        bucket_s=max(base.bucket_s, extra.bucket_s),
        trace_seconds=max(base.trace_seconds, extra.trace_seconds),
        requests_total=base.requests_total + extra.requests_total,
        uncacheable=base.uncacheable + extra.uncacheable,
        sources=tuple(dict.fromkeys(base.sources + extra.sources)),
    )


def resolve_plan_graphs(
    plan: WarmPlan,
    *,
    overrides: Optional[Dict[str, "CSRGraph"]] = None,
) -> Dict[str, "CSRGraph"]:
    """Reconstruct the graphs a plan's recipes describe.

    Same recipe grammar as a trace header (dataset regeneration or
    ``.npz`` load, fingerprint-verified); recipes that cannot be
    reconstructed are skipped — the pre-warmer reports those entries
    as skipped rather than failing startup.
    """
    from repro.service.ingest import Trace, TraceHeader
    from repro.service.replay import resolve_trace_graphs

    shim = Trace(
        header=TraceHeader(graphs=dict(plan.graphs)), requests=[], results={}
    )
    return resolve_trace_graphs(shim, overrides=overrides)


# ----------------------------------------------------------------------
# Pre-warming
# ----------------------------------------------------------------------
class Prewarmer:
    """Build a warm plan's artifacts on a background thread.

    Wraps one :class:`~repro.service.executor.AnalyticsService`: each
    plan entry is replayed through the same prepare → plan → build
    pipeline live traffic uses, against the service's own catalog, so
    the warmed artifact keys are exactly the keys traffic will ask
    for.  With a write-through catalog the warm set also lands in the
    shared disk tier, which is how process-backend workers inherit it.

    Progress is visible while it runs: every finished build bumps the
    catalog's ``prewarm_built`` stat (surfaced as ``prewarm_built`` in
    ``ServiceMetrics.summary()``), and later hits on warmed keys count
    as ``prewarm_hits``.  Failures never propagate — a plan entry that
    cannot build (missing graph, planner rejection) is recorded in
    :attr:`errors` and skipped; pre-warming is an optimisation, not a
    correctness gate.
    """

    def __init__(
        self,
        service: "AnalyticsService",
        plan: WarmPlan,
        *,
        graphs: Optional[Dict[str, "CSRGraph"]] = None,
        top: int = 0,
    ) -> None:
        self.service = service
        self.plan = plan.top(top) if top else plan
        self._overrides = dict(graphs or {})
        self._thread = threading.Thread(
            target=self._run, name="repro-prewarm", daemon=True
        )
        self._started = False
        self._lock = threading.Lock()
        self._publish: Optional["GraphCatalog"] = None
        self.built = 0
        self.already_warm = 0
        self.skipped = 0
        self.errors: List[str] = []

    def start(self) -> "Prewarmer":
        """Begin warming in the background (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._thread.start()
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for warming to finish; returns True when it has."""
        with self._lock:
            started = self._started
        if not started:
            return False
        self._thread.join(timeout)
        return not self._thread.is_alive()

    @property
    def done(self) -> bool:
        with self._lock:
            started = self._started
        return started and not self._thread.is_alive()

    def run_inline(self) -> "Prewarmer":
        """Warm synchronously on the calling thread (tests, CLI --prewarm-wait)."""
        with self._lock:
            if self._started:
                raise ServiceError("prewarmer already started in background")
            self._started = True
        self._run()
        return self

    # ------------------------------------------------------------------
    def _run(self) -> None:
        from repro.service.catalog import GraphCatalog

        # Process-backend workers hydrate from the shared disk tier and
        # never see the front-end's memory tier.  Unless the service
        # catalog already writes through to that tier, publish every
        # warmed artifact there via a write-through side catalog — the
        # locked, atomic-rename spill path makes concurrent publishers
        # safe and idempotent.
        catalog = self.service.catalog
        shared = getattr(self.service, "shared_artifact_dir", None)
        if shared is not None and not (
            catalog.write_through and catalog.spill_dir == shared
        ):
            self._publish = GraphCatalog(
                spill_dir=shared, write_through=True, policy=catalog.policy
            )

        graphs = dict(self.service.registered())
        graphs.update(self._overrides)
        try:
            graphs = resolve_plan_graphs(self.plan, overrides=graphs)
        except TigrError as exc:
            with self._lock:
                self.errors.append(f"plan graphs: {exc}")
        for entry in self.plan.entries:
            graph = graphs.get(entry.graph)
            if graph is None:
                with self._lock:
                    self.skipped += 1
                    self.errors.append(
                        f"{entry.graph}/{entry.kind}-k{entry.k}: graph not "
                        f"registered and no usable recipe in the plan"
                    )
                continue
            try:
                self._warm_one(graph, entry)
            except TigrError as exc:
                with self._lock:
                    self.skipped += 1
                    self.errors.append(
                        f"{entry.graph}/{entry.kind}-k{entry.k}: {exc}"
                    )

    def _warm_one(self, graph: "CSRGraph", entry: WarmEntry) -> None:
        from repro.algorithms import ALGORITHMS
        from repro.service.workers import plan_batch, transform_key

        catalog = self.service.catalog
        # Only the planner sees the sources — node 0 stands in on
        # source-rooted analytics, which never affects the plan (or
        # therefore the artifact key).
        prepared, plan, _ = plan_batch(
            catalog, graph, entry.algorithm,
            (0,) if ALGORITHMS[entry.algorithm].needs_source else (),
            transform=entry.transform, degree_bound=entry.degree_bound,
        )
        if not plan.caches:
            with self._lock:
                self.skipped += 1
            return
        artifact, origin = catalog.get_or_build_with_origin(
            prepared, plan.transform, plan.degree_bound,
            dumb_weight=plan.dumb_weight,
        )
        key = transform_key(prepared, plan)
        if self._publish is not None:
            self._publish.put(key, artifact)
        catalog.note_prewarm(key, built=origin == "built")
        with self._lock:
            if origin == "built":
                self.built += 1
            else:
                self.already_warm += 1
