"""The wire schema: trace-v1 request/result lines over HTTP.

The front door deliberately invents no second serialisation.  A
``POST /v1/query`` body is exactly a trace ``request`` line
(:mod:`repro.service.ingest`, minus the mandatory ``id``); a
``POST /v1/batch`` body is the request lines of a trace, NDJSON; and
every response line is a trace ``result`` line — digest and all.
Consequences that the tests and the ``http-smoke`` CI job pin down:

* ``tools/loadgen.py`` replays any recorded trace over HTTP with no
  translation, and diffs the returned ``digest`` fields against the
  recorded ones — end-to-end parity gating through the network edge;
* traffic captured by an attached recorder *behind* the HTTP server
  replays bit-identically in-process, because both sides of the wire
  already speak the trace schema.

Typed service errors map onto machine-readable HTTP error bodies::

    {"error": {"type": "unknown_graph", "message": "...", "status": 404}}

The mapping (:func:`error_response`) leans on the exception hierarchy
in :mod:`repro.errors` — the planner and executor already raise typed
errors, the API tier only translates.
"""

from __future__ import annotations

import json
import math
from typing import Tuple

import numpy as np

from repro.errors import (
    QuotaExhaustedError,
    ServiceError,
    ServiceOverloadError,
    SplitSafetyError,
    TigrError,
    TraceFormatError,
    UnknownGraphError,
    WorkerLost,
)
from repro.service.api.http import BadRequest, JsonText, Response
from repro.service.ingest import (
    TraceRequest,
    TraceResult,
    _event_payload,
    parse_request_payload,
    result_digest,
)
from repro.service.query import QueryRequest, QueryResult

#: error-body ``type`` slugs, by exception class (order matters:
#: subclasses before bases).
_ERROR_TYPES: Tuple[Tuple[type, str, int], ...] = (
    # per-tenant quota exhaustion is the client's pace problem (429),
    # service-wide overload is ours (503); both carry retry-after
    (QuotaExhaustedError, "quota_exhausted", 429),
    (ServiceOverloadError, "overloaded", 503),
    (UnknownGraphError, "unknown_graph", 404),
    (SplitSafetyError, "split_unsafe", 422),
    (TraceFormatError, "bad_request", 400),
    (WorkerLost, "worker_lost", 500),
    (ServiceError, "bad_request", 400),
    (TigrError, "internal", 500),
)


def parse_wire_request(
    payload: dict, *, line: int = 0, default_id: int = 0
) -> TraceRequest:
    """One decoded JSON body/line -> validated :class:`TraceRequest`.

    Thin veneer over :func:`repro.service.ingest.parse_request_payload`
    (the single validator both the trace reader and the HTTP tier
    use); :class:`BadRequest`-compatible errors stay typed for
    :func:`error_response`.
    """
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"expected a JSON object, got {type(payload).__name__}",
            line=line,
            source="http",
        )
    return parse_request_payload(
        payload, line=line, source="http", default_id=default_id
    )


def _encode_column(array) -> str:
    """One value array as a JSON list, each distinct float formatted once.

    The bytes ``json.dumps`` writes for the list of Python floats:
    shortest round-trip ``repr``, ``null`` for ±inf and NaN.  Distinct
    means distinct *bits*, so ``-0.0`` keeps its sign.  BFS levels and
    cc labels hold a handful of values across thousands of nodes.
    """
    data = np.asarray(array, dtype=np.float64)
    bits = data.view(np.int64)
    keys = np.sort(bits)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    distinct = keys[first]
    tokens = np.array([
        repr(v) if math.isfinite(v) else "null"
        for v in distinct.view(np.float64).tolist()
    ], dtype=object)
    return "[" + ", ".join(tokens[np.searchsorted(distinct, bits)]) + "]"


def _jsonable_values(result: QueryResult) -> JsonText:
    """The ``values`` entry, ``{str(source): column}``, as a
    :class:`JsonText` that :func:`~repro.service.api.http.encode_line`
    splices in verbatim: the bytes ``json.dumps`` writes for it."""
    return JsonText("{" + ", ".join(
        f"{json.dumps(str(source))}: {_encode_column(array)}"
        for source, array in result.values.items()
    ) + "}")


def result_payload(
    trace_id: int,
    result: QueryResult,
    *,
    elapsed_s: float = 0.0,
    include_values: bool = False,
) -> dict:
    """A resolved :class:`QueryResult` -> trace ``result`` line dict.

    Exactly what a :class:`~repro.service.ingest.TraceRecorder` would
    write for this answer — same digest, same fields — plus, when the
    caller opted in, the value arrays themselves as a last ``values``
    entry: a :class:`JsonText` (JSON floats; IEEE infinities, which
    mean "unreached", serialise as ``null``) that
    :func:`~repro.service.api.http.encode_line` writes verbatim.
    Serialise the dict with ``encode_line`` only: a plain
    ``json.dumps`` writes that entry as one escaped string.
    """
    payload = _event_payload(
        TraceResult(
            trace_id=trace_id,
            digest=result_digest(result),
            ok=result.ok,
            error=result.error,
            transform=result.transform,
            degraded=result.degraded,
            cache_hit=result.cache_hit,
            elapsed_s=elapsed_s,
        )
    )
    if include_values:
        payload["values"] = _jsonable_values(result)
    return payload


def error_payload(
    kind: str, message: str, status: int, **extra
) -> dict:
    """The machine-readable error body shape, for any failure."""
    body = {"type": kind, "message": message, "status": status}
    body.update(extra)
    return {"error": body}


def error_response(exc: Exception) -> Response:
    """Map a raised exception to its HTTP response.

    Typed service errors carry their own status; transport-level
    :class:`BadRequest` carries one explicitly; anything else is a
    500 whose body names the exception class but not its internals.
    """
    if isinstance(exc, BadRequest):
        return Response(
            exc.status,
            error_payload("bad_request", exc.message, exc.status),
        )
    for klass, kind, status in _ERROR_TYPES:
        if isinstance(exc, klass):
            headers = {}
            if isinstance(exc, ServiceOverloadError):
                headers["retry-after"] = str(
                    max(1, math.ceil(exc.retry_after_s))
                )
            return Response(
                status, error_payload(kind, str(exc), status), headers
            )
    return Response(
        500,
        error_payload(
            "internal", f"unhandled {type(exc).__name__}", 500
        ),
    )


def to_query_request(trace_request: TraceRequest) -> QueryRequest:
    """Wire request -> executor request (graph resolved by name); a
    missing ``timeout_s`` takes the service's ``default_timeout_s``."""
    return trace_request.to_query_request()
