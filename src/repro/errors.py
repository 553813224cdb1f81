"""Exception hierarchy for the Tigr reproduction.

All library-raised exceptions derive from :class:`TigrError` so callers
can catch the whole family with a single ``except`` clause while still
being able to distinguish graph-construction problems from
transformation problems or simulated out-of-memory conditions.
"""

from __future__ import annotations


class TigrError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(TigrError):
    """A graph is malformed or an operation received an invalid graph.

    Raised for out-of-range endpoints, negative node counts,
    non-monotone CSR offsets, mismatched weight arrays, and similar
    structural problems.
    """


class TransformError(TigrError):
    """A graph transformation was mis-parameterised or failed.

    The most common cause is an invalid degree bound (``K < 1``).
    """


class EngineError(TigrError):
    """A vertex-centric engine was configured inconsistently.

    Examples: running a pull-based program on a push engine, requesting
    an unknown scheduling strategy, or iterating past ``max_iterations``
    without convergence when the caller demanded convergence.
    """


class DeviceOutOfMemoryError(TigrError):
    """The simulated GPU cannot fit a method's working set.

    Mirrors the ``OOM`` entries of Table 4 in the paper: raised when a
    method's modelled memory footprint exceeds
    :attr:`repro.gpu.GPUConfig.device_memory_bytes`.
    """

    def __init__(self, required_bytes: int, available_bytes: int, what: str = "") -> None:
        self.required_bytes = int(required_bytes)
        self.available_bytes = int(available_bytes)
        self.what = what
        detail = f" for {what}" if what else ""
        super().__init__(
            f"simulated device OOM{detail}: requires {required_bytes:,} bytes, "
            f"device has {available_bytes:,} bytes"
        )


class DatasetError(TigrError):
    """A named dataset stand-in does not exist or failed to generate."""


class ServiceError(TigrError):
    """The analytics serving layer rejected or failed a request.

    Raised for unknown registered graphs, malformed query requests,
    submissions against a stopped service, and queue overload when the
    caller asked not to block (backpressure).
    """


class ServiceOverloadError(ServiceError):
    """The service refused admission because it is at capacity.

    Raised for a non-blocking (or timed-out) submission against a full
    queue — the backpressure contract made typed, so network front
    ends can map overload to a retryable status (HTTP 503 with a
    ``Retry-After`` hint) instead of pattern-matching message text.
    ``retry_after_s`` is advisory: roughly how long a caller should
    back off before resubmitting.  Subclasses :class:`ServiceError` so
    existing blanket handlers keep working.
    """

    def __init__(self, reason: str, *, retry_after_s: float = 1.0) -> None:
        self.reason = reason
        self.retry_after_s = float(retry_after_s)
        super().__init__(reason)


class QuotaExhaustedError(ServiceOverloadError):
    """A tenant spent its admission quota; the request was refused.

    Raised at submission by the service's routing policy
    (:class:`repro.service.routing.RoutingPolicy`) when a tenant's
    token bucket is empty.  Per-tenant overload is distinct from
    service-wide overload so front ends can map it to HTTP 429 (the
    *client* must slow down) instead of 503 (the *service* is busy);
    ``retry_after_s`` says when the bucket will hold a token again.
    Subclasses :class:`ServiceOverloadError` so the retry-after
    plumbing and blanket handlers keep working.
    """

    def __init__(self, tenant: str, *, retry_after_s: float = 1.0) -> None:
        self.tenant = tenant
        label = repr(tenant) if tenant else "(default)"
        reason = (
            f"tenant {label} quota exhausted; "
            f"retry in {retry_after_s:.2f}s"
        )
        super().__init__(reason, retry_after_s=retry_after_s)


class UnknownGraphError(ServiceError):
    """A request referenced a graph the service has not registered.

    Carries the offending reference so front ends can map it to a
    "resource not found" status (HTTP 404) with a machine-readable
    body.  Subclasses :class:`ServiceError` so existing blanket
    handlers keep working.
    """

    def __init__(self, name: str, *, registered=()) -> None:
        self.name = name
        self.registered = tuple(registered)
        super().__init__(
            f"unknown graph {name!r}; registered: "
            + (", ".join(sorted(self.registered)) or "(none)")
        )


class WorkerLost(ServiceError):
    """A local host process died or stopped responding mid-batch.

    Raised inside the serving layer's process backend when a host's
    socket closes (crash, OOM kill), a dispatched batch exceeds its
    wait budget, or the host's reply is not a well-formed outcome.  The service catches it and *degrades*:
    the batch moves to its next place (the dispatcher thread), and
    only with ``fallback=False`` do the affected tickets resolve with
    this error's message.  Subclasses :class:`ServiceError` so existing blanket
    handlers keep working.
    """

    def __init__(self, reason: str, *, batch_size: int = 0) -> None:
        self.reason = reason
        self.batch_size = int(batch_size)
        detail = f" ({batch_size} request(s) affected)" if batch_size else ""
        super().__init__(f"worker lost: {reason}{detail}")


class ShardLost(WorkerLost):
    """A shard executor died or became unreachable mid-query.

    The sharded tier's analogue of :class:`WorkerLost`: raised when an
    in-process shard executor errors or a remote shard host drops its
    connection during a scatter-gather superstep.  The service handles
    it by the same rule as any lost place: the batch moves to the next
    one (results then carry ``degraded=True``).  Subclasses
    :class:`WorkerLost` so that rule — and any blanket worker-failure
    handler — is one ``except``.
    """

    def __init__(self, reason: str, *, shard: int = -1, batch_size: int = 0) -> None:
        self.reason = reason
        self.shard = int(shard)
        self.batch_size = int(batch_size)
        where = f"shard {shard}" if shard >= 0 else "shard"
        detail = f" ({batch_size} request(s) affected)" if batch_size else ""
        # Skip WorkerLost.__init__: same attributes, shard-aware message.
        ServiceError.__init__(self, f"{where} lost: {reason}{detail}")


class TraceFormatError(ServiceError):
    """A request trace line could not be parsed or validated.

    Raised by :class:`repro.service.ingest.TraceReader` under the
    ``strict`` malformed-line policy for non-JSON lines, lines missing
    required fields, unknown line types, and field values that fail
    validation (bad algorithm, negative delta, non-integer sources).
    Carries the one-based line number so operators can find the
    offending record in a multi-gigabyte trace.  Subclasses
    :class:`ServiceError` so existing blanket handlers keep working.
    """

    def __init__(self, reason: str, *, line: int = 0, source: str = "") -> None:
        self.reason = reason
        self.line = int(line)
        self.source = source
        where = f"{source or 'trace'}"
        if line:
            where += f":{line}"
        super().__init__(f"{where}: {reason}")


class TraceVersionError(TraceFormatError):
    """A trace declares a format version this reader cannot replay.

    Version checks are structural, not per-line: a future-versioned
    trace is rejected outright even under the ``skip`` policy, because
    silently skipping every line of an incompatible trace would report
    a vacuous zero-mismatch replay.
    """

    def __init__(self, found: int, supported: int, *, source: str = "") -> None:
        self.found = int(found)
        self.supported = int(supported)
        super().__init__(
            f"trace format version {found} not supported "
            f"(this reader replays version {supported})",
            source=source,
        )


class SplitSafetyError(ServiceError):
    """A split transform was requested for a split-unsafe analytic.

    The §3.3 applicability table (:mod:`repro.core.applicability`)
    proves which analytics survive node splitting; requesting a
    physical split for one that does not (or for an analytic the table
    has never classified) is a planning error, rejected before any
    transform work is spent.  Subclasses :class:`ServiceError` so
    existing blanket handlers keep working.
    """

    def __init__(self, algorithm: str, justification: str) -> None:
        self.algorithm = algorithm
        self.justification = justification
        super().__init__(
            f"split transform cannot serve {algorithm!r}: {justification}"
        )
