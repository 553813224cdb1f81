"""Cache economics: cost-aware eviction and trace-driven pre-warming.

Catalog artifacts (prepared graphs) are built once and reused — but
a plain LRU treats an artifact that took 40 s to build and occupies
2 MB the same as a 50 ms throwaway, so one burst of large one-shot
requests flushes exactly the artifacts that make warm serving fast.
This module gives the catalog an economic memory:

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

* **a pre-warmer** — :class:`Prewarmer` makes one pass over a recorded
  trace-v1 stream (:mod:`repro.service.ingest`) on a background thread
  before traffic lands (``serve --prewarm-from-trace TRACE``): each
  distinct request signature is admitted as live traffic is, and cc's
  prepared graph — the one artifact the catalog builds — is built then
  for every graph an admitted cc request reads.  Progress shows in the
  catalog stats the service metrics already surface
  (``prewarm_built``, ``prewarm_hits``, ``evictions_<policy>``).

See ``docs/cache-economics.md`` for the policy math and when LRU
remains the right choice.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ServiceError, TigrError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.graph.csr import CSRGraph
    from repro.service.artifacts import ArtifactKey, TransformArtifact
    from repro.service.catalog import GraphCatalog
    from repro.service.executor import AnalyticsService
    from repro.service.ingest import Trace

#: environment fallback for the catalog eviction policy, mirroring
#: REPRO_SERVICE_WORKERS / REPRO_KERNEL_BACKEND: process workers
#: inherit it at spawn, so one variable pins the whole process tree.
CATALOG_POLICY_ENV = "REPRO_CATALOG_POLICY"

#: eviction policies the catalog understands.
CATALOG_POLICIES = ("lru", "gdsf")


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
# Pre-warming
# ----------------------------------------------------------------------
class Prewarmer:
    """Warm the catalog artifacts a recorded trace reads, before traffic.

    Wraps one :class:`~repro.service.executor.AnalyticsService` and one
    loaded trace.  Each request passes the check live traffic passes
    (:func:`~repro.service.planner.plan_query`); each graph with an
    admitted symmetrising (cc) request, in first-arrival order, has its
    prepared graph built against the service's own catalog — the one
    catalog artifact traffic reads.  With a write-through catalog the
    warm set also lands in the shared disk tier, which is how
    process-backend workers inherit it.

    Progress is visible while it runs: :attr:`built` and
    :attr:`already_warm` count each warmed artifact once, the catalog's
    ``prewarm_built`` stat counts the fresh builds, and hits on a
    warmed key count as ``prewarm_hits``.  Failures never propagate —
    a rejected ``(graph, algorithm, transform)`` signature and a cc
    graph that is missing are each recorded in :attr:`errors` and
    skipped once; pre-warming is an optimisation, not a correctness
    gate.
    """

    def __init__(
        self,
        service: "AnalyticsService",
        trace: "Trace",
        *,
        graphs: Optional[Dict[str, "CSRGraph"]] = None,
    ) -> None:
        self.service = service
        self.trace = trace
        self._overrides = dict(graphs or {})
        self._thread = threading.Thread(
            target=self._run, name="repro-prewarm", daemon=True
        )
        self._started = False
        self._lock = threading.Lock()
        self._publish: Optional["GraphCatalog"] = None
        #: warmed key -> whether this pass built it.
        self._warmed: Dict["ArtifactKey", bool] = {}
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
        from repro.algorithms import ALGORITHMS
        from repro.service.catalog import GraphCatalog
        from repro.service.planner import plan_query
        from repro.service.replay import resolve_trace_graphs

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
            graphs = resolve_trace_graphs(self.trace, overrides=graphs)
        except TigrError as exc:
            with self._lock:
                self.errors.append(f"trace graphs: {exc}")
        checked, warmed_graphs = set(), set()
        for request in self.trace.requests:
            label = f"{request.graph}/{request.algorithm} {request.transform}"
            if label in checked:
                continue
            checked.add(label)
            graph = graphs.get(request.graph)
            try:
                plan_query(request.to_query_request(), graph)
                if (not ALGORITHMS[request.algorithm].symmetrize
                        or request.graph in warmed_graphs):
                    continue
                warmed_graphs.add(request.graph)
                if graph is None:
                    raise ServiceError(
                        "graph not registered and no usable recipe in the trace")
                self._warm_one(graph, request.algorithm)
            except TigrError as exc:
                with self._lock:
                    self.skipped += 1
                    self.errors.append(f"{label}: {exc}")
        # Marked once the pass ends, so a later signature re-reading an
        # artifact this pass warmed is not counted as a ``prewarm_hits``
        # — those count traffic only.
        with self._lock:
            warmed = list(self._warmed.items())
        for key, built in warmed:
            catalog.note_prewarm(key, built=built)

    def _warm_one(self, graph: "CSRGraph", algorithm: str) -> None:
        from repro.service.workers import prepare_with_origin, prepared_key

        catalog = self.service.catalog
        _, origin = prepare_with_origin(catalog, graph, algorithm)
        key = prepared_key(graph)
        self._mark(key, catalog.peek(key), origin)

    def _mark(
        self, key: "ArtifactKey", artifact: Optional["TransformArtifact"],
        origin: str,
    ) -> None:
        """Count and publish one warmed artifact, once per key."""
        with self._lock:
            if key in self._warmed:
                return
            self._warmed[key] = origin == "built"
            if origin == "built":
                self.built += 1
            else:
                self.already_warm += 1
        if self._publish is not None and artifact is not None:
            self._publish.put(key, artifact)
