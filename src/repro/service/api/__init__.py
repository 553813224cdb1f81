"""HTTP/JSON front door for the analytics service.

The network tier of the serving stack, stdlib-only, in three layers:

``http``
    Minimal HTTP/1.1 over blocking sockets — request parsing against
    a per-request deadline, fixed-length JSON responses, chunked NDJSON
    streams.
``protocol``
    The wire schema: trace-v1 request/result lines over HTTP, and the
    typed-exception → machine-readable error-body mapping.
``server`` / ``client``
    :class:`ThreadedApiServer` (plus :func:`run_server` for processes)
    on one side — one thread per connection, capped, each request
    passing one admission step (token auth, per-client rate limit,
    route and content-type checks) before its route handler — and the
    synchronous :class:`HttpReplayClient` + :func:`replay_trace_http`
    trace-parity replayer on the other.

See ``docs/http-api.md`` for the wire contract and operations guide.
"""

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
from repro.service.api.server import ThreadedApiServer, run_server

__all__ = [
    "ThreadedApiServer",
    "run_server",
    "HttpReplayClient",
    "HttpStatusError",
    "replay_trace_http",
    "verify_graphs",
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
