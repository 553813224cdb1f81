"""Cache economics: cost-aware eviction for the catalog.

Catalog artifacts are built once and reused — but a plain LRU treats
an artifact that took 40 s to build and occupies 2 MB the same as a
50 ms throwaway, so one burst of large one-shot requests flushes
exactly the artifacts that make warm serving fast.  This module gives
the catalog an economic memory: a pluggable victim-selection layer
for :class:`~repro.service.catalog.GraphCatalog`.  ``"lru"``
preserves the original recency order; ``"gdsf"`` is
Greedy-Dual-Size-Frequency (Cherkasova '98), whose priority per entry
is::

    priority = clock + frequency * build_seconds / nbytes

The inflation ``clock`` rises to each victim's priority on eviction,
so long-idle entries age out while small, expensive, frequently hit
artifacts stay resident.  Policy state is guarded by the catalog's own
lock (every callback runs under it), and its inputs —
``build_seconds`` and ``nbytes()`` — travel inside the spilled
``.npz`` archive, so a process worker hydrating from the shared disk
tier recomputes the same base priority the parent computed.

Serving itself builds no artifact (cc reads the CSR as it is), so
these policies act on what callers put in a catalog.  See
``docs/cache-economics.md`` for the policy math and when LRU remains
the right choice.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.artifacts import ArtifactKey, TransformArtifact

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
