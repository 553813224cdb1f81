"""HTTP/JSON front door for the analytics service.

The network tier of the serving stack, stdlib-only, in four layers:

``http``
    Minimal HTTP/1.1 over :mod:`asyncio` streams — request parsing,
    fixed-length JSON responses, chunked NDJSON streams.
``protocol``
    The wire schema: trace-v1 request/result lines over HTTP, and the
    typed-exception → machine-readable error-body mapping.
``bridge``
    The asyncio ↔ executor seam: non-blocking submission with
    loop-native backpressure, completion-order result iteration.
``server`` / ``client``
    :class:`ApiServer` (plus :func:`run_server` for processes and
    :class:`ThreadedApiServer` for tests/benches) on one side — one
    admission step (token auth, per-client rate limit, route and
    content-type checks) before each route handler — and the
    synchronous :class:`HttpReplayClient` + :func:`replay_trace_http`
    trace-parity replayer on the other.

See ``docs/http-api.md`` for the wire contract and operations guide.
"""

from repro.service.api.bridge import as_resolved, submit_batch_async
from repro.service.api.client import (
    HttpReplayClient,
    HttpStatusError,
    replay_trace_http,
    verify_graphs,
)
from repro.service.api.http import (
    BadRequest,
    HttpRequest,
    NdjsonStream,
    Response,
)
from repro.service.api.protocol import (
    error_payload,
    error_response,
    parse_wire_request,
    result_payload,
    to_query_request,
)
from repro.service.api.server import (
    ApiServer,
    ThreadedApiServer,
    run_server,
)

__all__ = [
    "ApiServer",
    "ThreadedApiServer",
    "run_server",
    "HttpReplayClient",
    "HttpStatusError",
    "replay_trace_http",
    "verify_graphs",
    "submit_batch_async",
    "as_resolved",
    "BadRequest",
    "HttpRequest",
    "Response",
    "NdjsonStream",
    "parse_wire_request",
    "result_payload",
    "error_payload",
    "error_response",
    "to_query_request",
]
