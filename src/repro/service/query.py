"""Typed request/result envelopes of the analytics service.

A :class:`QueryRequest` is everything a caller states about one
analytic run; a :class:`QueryResult` is everything the service states
back — values, the plan it chose, cache behaviour, and a per-stage
latency breakdown.  Both are plain dataclasses so they serialise
trivially and tests can assert on every field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.core.selection import TRANSFORMS
from repro.engine.push import EngineOptions
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph

_request_ids = itertools.count(1)


@dataclass(frozen=True)
class QueryRequest:
    """One analytics query against a registered or inline graph.

    Parameters
    ----------
    algorithm:
        One of the six analytics (``bfs``/``sssp``/``sswp``/``cc``/
        ``bc``/``pr``).
    graph:
        Either the name of a graph registered with
        :meth:`~repro.service.executor.AnalyticsService.register`, or
        a :class:`CSRGraph` passed inline.
    sources:
        Source nodes for source-rooted analytics.  Several sources on
        one request are fanned out through the multi-source helpers;
        the batcher additionally merges and dedups sources *across*
        same-graph requests.
    transform:
        One of :data:`~repro.core.selection.TRANSFORMS`.  ``"udt"``
        forces the physical transform; every other value serves the
        raw CSR (``"none"`` is also what degraded execution falls back
        to).
    degree_bound:
        Explicit K; ``None`` defers to :mod:`repro.core.selection`.
    timeout_s:
        Soft deadline measured from submission.  A cold cache with a
        deadline too tight for transform construction degrades to the
        untransformed CSR instead of blowing the budget; a request
        still queued past its deadline fails with a timeout.
    tenant:
        Who is asking — an opaque accounting label (``""`` = the
        default tenant).  Execution ignores it entirely; the service's
        routing policy (:mod:`repro.service.routing`) charges token
        quotas and assigns priority classes by it.
    """

    algorithm: str
    graph: Union[str, CSRGraph]
    sources: tuple = ()
    transform: str = "auto"
    degree_bound: Optional[int] = None
    timeout_s: Optional[float] = None
    options: EngineOptions = EngineOptions()
    tenant: str = ""
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ServiceError(
                f"unknown algorithm {self.algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
        if self.transform not in TRANSFORMS:
            raise ServiceError(f"unknown transform {self.transform!r}")
        object.__setattr__(self, "sources", tuple(int(s) for s in self.sources))
        spec = ALGORITHMS[self.algorithm]
        if spec.needs_source and not self.sources:
            raise ServiceError(f"{self.algorithm} requires at least one source")
        if not spec.needs_source and self.sources:
            raise ServiceError(f"{self.algorithm} takes no sources")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ServiceError(f"timeout must be positive, got {self.timeout_s}")
        if not isinstance(self.tenant, str):
            raise ServiceError(f"tenant must be a string, got {self.tenant!r}")

    @staticmethod
    def single(
        algorithm: str,
        graph: Union[str, CSRGraph],
        source: Optional[int] = None,
        **kwargs,
    ) -> "QueryRequest":
        """Convenience constructor for the common one-source case."""
        sources: Sequence[int] = () if source is None else (source,)
        return QueryRequest(algorithm=algorithm, graph=graph, sources=sources, **kwargs)


@dataclass
class StageTimings:
    """Wall-clock seconds per serving stage for one request."""

    queue_s: float = 0.0
    plan_s: float = 0.0
    transform_s: float = 0.0
    execute_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.queue_s + self.plan_s + self.transform_s + self.execute_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "queue_s": self.queue_s,
            "plan_s": self.plan_s,
            "transform_s": self.transform_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
        }


@dataclass
class QueryResult:
    """Outcome of one served query.

    ``values`` maps source node -> value array for source-rooted
    analytics, or holds the single array under key ``-1`` for
    sourceless ones (CC/PR).  ``cache_hit`` is True when this request
    built nothing: every catalog artifact it read (prepared graph,
    transform, shard set) came from memory or disk.  A request that
    read none is a hit.
    """

    request_id: int
    algorithm: str
    values: Dict[int, np.ndarray]
    transform: str
    degree_bound: int
    cache_hit: bool = False
    degraded: bool = False
    batched_with: int = 0
    timings: StageTimings = field(default_factory=StageTimings)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def value(self, source: Optional[int] = None) -> np.ndarray:
        """The value array for ``source`` (or the only one)."""
        if source is not None:
            return self.values[int(source)]
        if len(self.values) != 1:
            raise ServiceError(
                f"result holds {len(self.values)} arrays; name a source"
            )
        return next(iter(self.values.values()))
