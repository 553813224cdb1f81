"""Routing policy for the serving layer: quotas, priorities, routes.

Mechanism and policy are deliberately separate modules, mirroring the
``routing/`` + ``governance/`` split of multi-tenant serving systems:
:mod:`repro.service.executor` knows *how* to queue a batch and walk
its places, :mod:`repro.service.sharding` how to fan it across shard
executors and reduce the answers; this module decides *whether, when
and where* a request runs —

* **tenant token quotas** — each tenant owns a token bucket
  (``rate`` requests/second refill, ``burst`` bucket depth); an empty
  bucket refuses admission with a typed
  :class:`~repro.errors.QuotaExhaustedError` carrying the seconds
  until the next token, which the HTTP tier maps to 429;
* **priority classes** — an integer per tenant (lower runs sooner);
  the service's submission queue is a priority queue ordered by
  these classes, so an interactive tenant's queries overtake a batch
  tenant's backlog instead of waiting behind it;
* **cost-model-aware routing** — ``route="auto"`` compares a batch's
  edge count with a fixed break-even
  (:func:`repro.engine.costmodel.sharded_break_even`): a superstep pays
  one dispatch overhead *per shard* plus a gather, so sharding only
  wins once the per-step edge work dominates — small graphs route to
  the plain single-engine path.

Everything here is pure policy: no sockets, no threads, no numpy —
just decisions the mechanism layer asks for.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import QuotaExhaustedError, ServiceError
from repro.service.query import QueryRequest

#: well-known priority classes (lower = served sooner).  Any integer
#: works; these names give operators a shared vocabulary.
PRIORITY_CLASSES: Dict[str, int] = {
    "interactive": 0,
    "default": 10,
    "batch": 20,
}

#: recognised routing modes.
ROUTES = ("sharded", "single", "auto")


class TokenBuckets:
    """Token buckets by key: tenant quotas here, per-client rate
    limits in the HTTP middleware.

    A bucket is created full on first use, refills at ``rate``
    tokens/second up to ``burst``, and is never dropped: the key space
    is bounded by the configured tenants / tokens (or peer addresses),
    not by request volume.  Tests inject ``clock``.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (tokens, last refill stamp)
        self._buckets: Dict[str, Tuple[float, float]] = {}

    @staticmethod
    def check(rate: float, burst: float) -> None:
        """Refuse a bucket that could never meter: ``nan`` waits pass
        every request, a depth under one token admits none."""
        if not (math.isfinite(rate) and rate > 0
                and math.isfinite(burst) and burst >= 1):
            raise ServiceError(
                f"token bucket needs a finite rate > 0 and a finite "
                f"burst >= 1, got rate={rate}, burst={burst}"
            )

    def take(self, key: str, rate: float, burst: float) -> float:
        """Try to spend one token; 0.0 on success, else seconds to wait."""
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(key, (burst, now))
            tokens = min(burst, tokens + (now - stamp) * rate)
            if tokens >= 1.0:
                self._buckets[key] = (tokens - 1.0, now)
                return 0.0
            self._buckets[key] = (tokens, now)
            return (1.0 - tokens) / rate


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket admission budget for one tenant.

    ``rate`` tokens/second refill a bucket of depth ``burst``; every
    admitted request spends one token.  The same bucket as the HTTP
    middleware's per-client rate limit, but charged at *submission*
    (any entry point: HTTP, trace replay, direct calls), so a tenant
    cannot sidestep its budget by switching transports.
    """

    rate: float
    burst: float

    def __post_init__(self) -> None:
        TokenBuckets.check(self.rate, self.burst)


@dataclass
class RouteDecision:
    """What the policy chose for one batch, and why."""

    route: str  # "sharded" | "single"
    reason: str


class RoutingPolicy:
    """Admission, ordering, and placement decisions for one service.

    Parameters
    ----------
    quotas:
        ``tenant -> TenantQuota``.  Tenants without an entry are
        unmetered (including the default ``""`` tenant), so attaching
        a policy never throttles traffic that predates tenancy.
    priorities:
        ``tenant -> priority class`` (lower runs sooner); tenants
        without an entry get ``default_priority``.
    route:
        ``"sharded"`` always scatter-gathers shardable batches,
        ``"single"`` never does (policy-level kill switch), and
        ``"auto"`` applies the cost model via
        :meth:`min_sharded_edges` when a shard runs on a remote host
        (:meth:`choose_route`).
    min_sharded_edges:
        Explicit edge-count threshold for ``"auto"``; ``None`` uses the
        cost model's break-even.
    clock:
        Injectable time source for the token buckets (tests freeze it).
    """

    def __init__(
        self,
        *,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        priorities: Optional[Mapping[str, int]] = None,
        default_priority: int = PRIORITY_CLASSES["default"],
        route: str = "sharded",
        min_sharded_edges: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if route not in ROUTES:
            raise ServiceError(
                f"unknown route {route!r}; known: {', '.join(ROUTES)}"
            )
        self.quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self.priorities: Dict[str, int] = {
            tenant: int(level) for tenant, level in (priorities or {}).items()
        }
        self.default_priority = int(default_priority)
        self.route = route
        self._min_sharded_edges = min_sharded_edges
        self._buckets = TokenBuckets(clock)

    # ------------------------------------------------------------------
    # Quotas
    # ------------------------------------------------------------------
    def admit(self, request: QueryRequest) -> None:
        """Charge one token to ``request``'s tenant or refuse it.

        Raises :class:`QuotaExhaustedError` (HTTP 429) when the
        tenant's bucket is empty; unmetered tenants always pass.
        """
        wait_s = self.try_admit(request.tenant)
        if wait_s > 0.0:
            raise QuotaExhaustedError(request.tenant, retry_after_s=wait_s)

    def try_admit(self, tenant: str) -> float:
        """Non-raising admit: 0.0 on success, else seconds to wait."""
        quota = self.quotas.get(tenant)
        if quota is None:
            return 0.0
        return self._buckets.take(tenant, quota.rate, quota.burst)

    # ------------------------------------------------------------------
    # Priorities
    # ------------------------------------------------------------------
    def priority_for(self, request: QueryRequest) -> int:
        """The priority class of ``request`` (lower runs sooner)."""
        return self.priorities.get(request.tenant, self.default_priority)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def min_sharded_edges(self, shards: int) -> int:
        """Edge count above which ``"auto"`` routes to the shards: the
        pinned threshold, else the reference break-even (208 208 /
        234 234 / 277 610 edges at 2 / 3 / 4 shards)."""
        if self._min_sharded_edges is not None:
            return self._min_sharded_edges
        from repro.engine.costmodel import sharded_break_even

        return sharded_break_even(shards)

    def choose_route(
        self, *, shardable: bool, num_edges: int, shards: int, remotes: int
    ) -> RouteDecision:
        """Sharded scatter-gather or the single-engine path for a batch.

        ``"auto"`` weighs the break-even only once ``remotes`` of the
        ``shards`` run on shard hosts: in-process shards share this
        host's cores (x1.6-4.3 slower per request, see sharding.md).
        """
        if not shardable:
            return RouteDecision("single", "algorithm/plan is not shardable")
        if shards < 2:
            return RouteDecision("single", "fewer than two shards configured")
        if self.route == "single":
            return RouteDecision("single", "policy pins the single path")
        if self.route == "sharded":
            return RouteDecision("sharded", "policy pins the sharded path")
        if remotes < 1:
            return RouteDecision("single", "no remote shard host configured")
        threshold = self.min_sharded_edges(shards)
        if num_edges >= threshold:
            return RouteDecision(
                "sharded",
                f"{num_edges} edges >= break-even {threshold}",
            )
        return RouteDecision(
            "single",
            f"{num_edges} edges < break-even {threshold}",
        )


def parse_quota_arg(value: str) -> Tuple[str, TenantQuota]:
    """``TENANT=RATE[:BURST]`` -> ``(tenant, TenantQuota)``.

    ``BURST`` defaults to ``max(rate, 1)`` so a plain ``alice=2`` means
    "two requests per second, no extra headroom".
    """
    tenant, sep, spec = value.partition("=")
    if not sep or not tenant or not spec:
        raise ServiceError(
            f"quota must look like TENANT=RATE[:BURST], got {value!r}"
        )
    rate_text, _, burst_text = spec.partition(":")
    try:
        rate = float(rate_text)
        burst = float(burst_text) if burst_text else max(rate, 1.0)
    except ValueError:
        raise ServiceError(
            f"quota must look like TENANT=RATE[:BURST], got {value!r}"
        ) from None
    return tenant, TenantQuota(rate=rate, burst=burst)


def parse_priority_arg(value: str) -> Tuple[str, int]:
    """``TENANT=CLASS`` -> ``(tenant, level)``; CLASS is a name or int."""
    tenant, sep, spec = value.partition("=")
    if not sep or not tenant or not spec:
        raise ServiceError(
            f"priority must look like TENANT=CLASS, got {value!r}"
        )
    if spec in PRIORITY_CLASSES:
        return tenant, PRIORITY_CLASSES[spec]
    try:
        return tenant, int(spec)
    except ValueError:
        raise ServiceError(
            f"priority class must be an integer or one of "
            f"{sorted(PRIORITY_CLASSES)}, got {spec!r}"
        ) from None
