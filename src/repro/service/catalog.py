"""GraphCatalog: a content-addressed artifact cache.

Serving builds nothing into it: every analytic reads its input graph
or that graph's memoised unweighted view, and cc is a union-find over
the CSR as it is (:func:`~repro.algorithms.cc.weak_components`).  The
catalog is the cache a caller with an O(|E|) artifact worth amortising
(a symmetrised graph, say) puts it in:

* **memory tier** — an LRU over :class:`TransformArtifact` entries
  with byte-size accounting against a configurable budget;
* **disk tier (optional)** — evicted artifacts spill to ``.npz``
  files in a directory and are reloaded (and re-promoted) on the next
  miss, still cheaper than rebuilding;
* **single-flight builds** — concurrent requests for the same key
  block on one builder instead of duplicating the build, which is
  what makes the cache safe under the concurrent executor.

Keys are content-addressed (:class:`ArtifactKey`): the same graph
loaded twice, or regenerated from the same seed, hits the same entry.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ServiceError
from repro.service.artifacts import ArtifactKey, TransformArtifact, load_artifact
from repro.service.economics import make_policy


@dataclass
class CatalogStats:
    """Counters the serving metrics report (all monotone except bytes)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    spills: int = 0
    builds: int = 0
    #: current bytes held by the memory tier.
    bytes_in_memory: int = 0
    #: build seconds avoided by hits (memory + disk).
    seconds_saved: float = 0.0
    #: build seconds actually spent on misses.
    seconds_building: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Memory+disk hits over all lookups (1.0 on an all-warm run)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "spills": self.spills,
            "builds": self.builds,
            "bytes_in_memory": self.bytes_in_memory,
            "hit_rate": self.hit_rate,
            "seconds_saved": self.seconds_saved,
            "seconds_building": self.seconds_building,
        }


class GraphCatalog:
    """Content-addressed cache of prepared-graph artifacts.

    Parameters
    ----------
    memory_budget_bytes:
        Byte budget of the memory tier.  Inserting past the budget
        evicts artifacts in the eviction policy's order.  An artifact
        larger than the whole budget is still served but never
        retained (degenerate one-entry thrash is pointless).
    spill_dir:
        Directory for the disk tier; ``None`` disables spilling, and
        evicted artifacts are simply dropped.
    max_entries:
        Optional cap on entry *count* in the memory tier, applied on
        top of the byte budget (useful in tests; default unlimited).
    write_through:
        Persist every freshly *built* artifact to the disk tier
        immediately instead of only on eviction.  This is what makes
        the disk tier a process-shared cache: a catalog in one worker
        process builds once, and sibling processes pointed at the same
        ``spill_dir`` hydrate the ``.npz`` instead of rebuilding.
        Content-addressed keys make concurrent writers safe (same key
        = same bytes); a file lock plus atomic rename keeps them from
        duplicating work or tearing files.
    policy:
        Eviction policy of the memory tier: ``"lru"`` (recency order,
        the default) or ``"gdsf"`` (Greedy-Dual-Size-Frequency,
        ``priority = clock + frequency × build_seconds / nbytes`` —
        protects small, expensive, frequently hit artifacts; see
        :mod:`repro.service.economics` and docs/cache-economics.md).
        ``None`` reads ``$REPRO_CATALOG_POLICY`` and falls back to
        LRU; process-backend workers receive the parent's choice.
        Policy state is guarded by the catalog lock, and its pricing
        inputs (``build_seconds``, ``nbytes()``) ride inside spilled
        archives, so a spill/hydrate round-trip reprices identically.
    """

    def __init__(
        self,
        memory_budget_bytes: int = 256 * 1024 * 1024,
        *,
        spill_dir: Optional[str] = None,
        max_entries: Optional[int] = None,
        write_through: bool = False,
        policy: Optional[str] = None,
    ) -> None:
        if memory_budget_bytes < 0:
            raise ServiceError(
                f"memory budget must be >= 0, got {memory_budget_bytes}"
            )
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.spill_dir = spill_dir
        self.max_entries = max_entries
        self.write_through = bool(write_through)
        if write_through and spill_dir is None:
            raise ServiceError("write_through needs a spill_dir to write to")
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self.stats = CatalogStats()
        #: the active eviction policy object; every callback on it runs
        #: under ``self._lock`` (its state shares the catalog's guard).
        self._policy = make_policy(policy)
        self.policy = self._policy.name
        self._entries: "OrderedDict[ArtifactKey, TransformArtifact]" = OrderedDict()
        self._lock = threading.Lock()
        #: per-key build locks for single-flight construction.
        self._building: Dict[ArtifactKey, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        """Memory-tier keys in LRU order (oldest first); a snapshot."""
        with self._lock:
            return list(self._entries)

    def peek(self, key: ArtifactKey) -> Optional[TransformArtifact]:
        """Memory-tier lookup without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def get_for_key(
        self,
        key: ArtifactKey,
        builder: Callable[[], TransformArtifact],
    ) -> "tuple[TransformArtifact, str]":
        """Return the artifact for ``key``, building it at most once.

        Lookup order: memory tier (hit), disk tier (disk hit, promoted
        back to memory), then ``builder()``.  Concurrent callers for
        the same key serialise on a per-key lock so the build runs
        exactly once; callers for *different* keys do not block each
        other.

        The second element is ``"memory"``, ``"disk"``, or ``"built"``
        — the serving layer surfaces it as each request's
        ``cache_hit`` flag and in the metrics.  A caller who waited on
        another caller's in-flight build observes ``"memory"``: from
        its perspective the artifact was served, not built.
        """
        found, origin = self._lookup(key)
        if found is not None:
            return found, origin
        build_lock = self._build_lock(key)
        with build_lock:
            # Someone may have finished building while we waited.
            found, origin = self._lookup(key, recount=False)
            if found is not None:
                return found, origin
            artifact = builder()
            with self._lock:
                self.stats.builds += 1
                self.stats.seconds_building += artifact.build_seconds
            self._insert(key, artifact)
            if self.write_through:
                self._spill(key, artifact)
            return artifact, "built"

    def put(self, key: ArtifactKey, artifact: TransformArtifact) -> None:
        """Insert an externally built artifact under ``key``.

        The direct-insert face of the cache for callers that already
        hold a finished artifact (tests, offline build pipelines): budget enforcement, eviction policy, and
        write-through spill behave exactly as for a built-on-miss
        artifact.  No build is counted — nothing was constructed here.
        """
        self._insert(key, artifact)
        if self.write_through:
            self._spill(key, artifact)

    def eviction_policy(self):
        """The live policy object (read-only introspection; see tests)."""
        return self._policy

    def _lookup(
        self, key: ArtifactKey, *, recount: bool = True
    ) -> "tuple[Optional[TransformArtifact], str]":
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._policy.record_access(key, entry)
                if recount:
                    self.stats.hits += 1
                    self.stats.seconds_saved += entry.build_seconds
                return entry, "memory"
        # Disk tier, outside the memory lock: loads can be slow.
        loaded = self._load_spilled(key)
        if loaded is not None:
            with self._lock:
                if recount:
                    self.stats.misses += 1
                    self.stats.disk_hits += 1
                    self.stats.seconds_saved += loaded.build_seconds
            self._insert(key, loaded)
            return loaded, "disk"
        if recount:
            with self._lock:
                self.stats.misses += 1
        return None, "absent"

    def _insert(self, key: ArtifactKey, artifact: TransformArtifact) -> None:
        size = artifact.nbytes()
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                # Same-key replacement: drop the stale entry *before*
                # any size gate, or an over-budget replacement would
                # leave the old build resident (and its bytes counted)
                # while callers hold the new payload.
                self.stats.bytes_in_memory -= old.nbytes()
                self._policy.forget(key)
            if size > self.memory_budget_bytes:
                return  # larger than the whole tier: serve it, don't retain it
            self._entries[key] = artifact
            self.stats.bytes_in_memory += size
            self._policy.record_insert(key, artifact)
            evicted = []
            while self._entries and (
                self.stats.bytes_in_memory > self.memory_budget_bytes
                or (self.max_entries is not None and len(self._entries) > self.max_entries)
            ):
                victim_key = self._policy.select_victim(self._entries)
                victim = self._entries.pop(victim_key)
                self.stats.bytes_in_memory -= victim.nbytes()
                self.stats.evictions += 1
                self._policy.record_evict(victim_key)
                evicted.append((victim_key, victim))
        for victim_key, victim in evicted:
            self._spill(victim_key, victim)

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _spill_path(self, key: ArtifactKey) -> Optional[str]:
        if self.spill_dir is None:
            return None
        return os.path.join(self.spill_dir, key.filename())

    def _spill(self, key: ArtifactKey, artifact: TransformArtifact) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        if not os.path.exists(path):
            # The disk tier may be shared across processes (the
            # executor's process backend points every worker at one
            # directory).  An advisory file lock serialises writers so
            # the same artifact is serialised once, not N times; the
            # re-check under the lock is what makes the "once" true.
            # Readers never take the lock — `save_npz` publishes via
            # atomic rename, so a concurrent load sees either nothing
            # or a complete archive.
            with _spill_write_lock(path):
                if not os.path.exists(path):
                    artifact.save_npz(path)
        with self._lock:
            self.stats.spills += 1

    def hydrate(self, key: ArtifactKey) -> Optional[TransformArtifact]:
        """Load ``key`` from the disk tier into memory, if spilled.

        Public face of the disk tier for process workers warming up:
        returns the promoted artifact (counted as a disk hit) or
        ``None`` when the tier has nothing for the key.
        """
        found, origin = self._lookup(key)
        return found if origin in ("memory", "disk") else None

    def _load_spilled(self, key: ArtifactKey) -> Optional[TransformArtifact]:
        path = self._spill_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            return load_artifact(path)
        except (OSError, KeyError, ValueError):
            # A corrupt spill file is a miss, not an outage.
            return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self, *, drop_spilled: bool = False) -> None:
        """Empty the memory tier (and optionally the disk tier)."""
        with self._lock:
            self._entries.clear()
            self.stats.bytes_in_memory = 0
            self._policy.reset()
        if drop_spilled and self.spill_dir is not None:
            for name in os.listdir(self.spill_dir):
                if name.endswith(".npz"):
                    os.remove(os.path.join(self.spill_dir, name))

    def _build_lock(self, key: ArtifactKey) -> threading.Lock:
        with self._lock:
            lock = self._building.get(key)
            if lock is None:
                lock = self._building[key] = threading.Lock()
            return lock

    def __repr__(self) -> str:
        with self._lock:
            entries = len(self._entries)
            bytes_in_memory = self.stats.bytes_in_memory
            hit_rate = self.stats.hit_rate
        return (
            f"GraphCatalog(entries={entries}, "
            f"bytes={bytes_in_memory}/{self.memory_budget_bytes}, "
            f"hit_rate={hit_rate:.2f})"
        )


@contextmanager
def _spill_write_lock(path: str):
    """Advisory cross-process lock for one spill file's writers.

    Lives beside the spill file as ``<name>.lock`` (the spill file
    itself cannot be locked — it is replaced by rename, which would
    orphan the lock).  Downgrades to a no-op where ``fcntl`` is
    unavailable; the atomic-rename write path keeps that safe, merely
    allowing duplicate serialisation work.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(path + ".lock", "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
