"""The HTTP/JSON front door: one thread per connection over an AnalyticsService.

Routes (all under ``/v1``, wire schema in
:mod:`repro.service.api.protocol` — trace-v1 lines, nothing else):

``POST /v1/query``
    One request object in, one result object out.  Set
    ``"include_values": true`` in the body to get the value arrays
    alongside the digest.

``POST /v1/batch``
    NDJSON request lines in, NDJSON result lines *streamed* out in
    completion order — the first line is flushed while later tickets
    are still in flight, so a client replaying a 64-source batch sees
    lane blocks arrive as the engine resolves them.

``GET /v1/metrics``
    The service's :meth:`~repro.service.metrics.ServiceMetrics.summary`
    (which includes the HTTP counters this server feeds).

``GET /v1/healthz``
    Liveness + identity: version string, backend, registered graph
    fingerprints.  Exempt from auth and rate limiting.

Each connection is served end to end by one thread: it reads a request
(:class:`~repro.service.api.http.RequestReader`), passes it through one
admission step (:meth:`ThreadedApiServer._check`: the bearer token
(401), the client's token bucket (429), then route, method, content
type and a non-empty body (404 / 405 / 415 / 400)), submits it and
waits on its tickets, and writes the answer.  At most
:data:`MAX_CONNECTIONS` connections are served at once; one more is
answered ``503 overloaded`` and closed.

Lifecycle follows the graceful-drain contract: :meth:`~ThreadedApiServer.stop`
closes the listener first (no new connections), drains the executor
queue so in-flight tickets resolve and their connections flush their
last lines, then shuts down the sockets idle between requests so every
connection thread exits.  Serve from a background thread
(:meth:`~ThreadedApiServer.start`, what the tests and the
``service-trace`` bench use) or block until SIGINT/SIGTERM
(:func:`run_server`, the CLI's shape).
"""

from __future__ import annotations

import itertools
import json
import queue
import signal
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import repro
from repro.errors import ServiceOverloadError, TigrError
from repro.service.api import http
from repro.service.api.http import (
    BadRequest,
    HttpRequest,
    NdjsonStream,
    RequestReader,
    Response,
    send_response,
)
from repro.service.api.protocol import (
    error_payload,
    error_response,
    parse_wire_request,
    result_payload,
    to_query_request,
)
from repro.service.executor import AnalyticsService, QueryTicket
from repro.service.ingest import TraceRequest
from repro.service.routing import TokenBuckets

#: hard cap on request lines per /v1/batch call (one HTTP request is
#: one admission decision; bigger replays split client-side).
MAX_BATCH_LINES = 4096

#: seconds an admission may wait out backpressure before 503.
DEFAULT_ADMISSION_WAIT_S = 2.0

#: connections served at once, one thread each; one more is answered
#: 503 and closed.  Far below any OS thread or descriptor limit.
MAX_CONNECTIONS = 64

#: seconds :meth:`ThreadedApiServer.stop` waits for connection threads
#: to exit after their sockets are shut down.
JOIN_TIMEOUT_S = 5.0

#: how often a :meth:`~ThreadedApiServer.start`-ed accept loop looks
#: for a stop request (seconds).
STOP_POLL_S = 0.05

#: route -> the one method it answers (the handlers sit in ``_routes``).
_METHODS = {
    "/v1/query": "POST",
    "/v1/batch": "POST",
    "/v1/metrics": "GET",
    "/v1/healthz": "GET",
}

#: the route that skips the token and the bucket — health probes must
#: not need a secret nor be throttled.
HEALTHZ = "/v1/healthz"

#: content types accepted for bodies (bare or with parameters).
BODY_TYPES = ("application/json", "application/x-ndjson")


@dataclass
class StreamingBatch:
    """A batch endpoint's deferred response: stream as tickets land."""

    tickets: List[QueryTicket]
    #: executor request_id -> wire trace id (response correlation).
    trace_ids: Dict[int, int]
    include_values: bool
    submitted_at: float = field(default_factory=time.perf_counter)


class _Connection(socketserver.StreamRequestHandler):
    """One accepted socket, served by :meth:`ThreadedApiServer._serve`."""

    # chunked NDJSON lines would otherwise wait on delayed ACKs
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.server._serve(self.connection, self.wfile, self.client_address[0])


def _recv(sock: socket.socket, size: int, timeout_s: float) -> bytes:
    sock.settimeout(timeout_s)
    return sock.recv(size)


class ThreadedApiServer(socketserver.ThreadingTCPServer):
    """Front one :class:`AnalyticsService` with an HTTP/JSON edge.

    The listener is bound on construction (port 0 picks one; read it
    back from :attr:`address`).  For synchronous callers — tests, the
    bench harness, notebook use::

        with ThreadedApiServer(service) as handle:
            urllib.request.urlopen(f"http://{handle.address}/v1/healthz")

    Parameters
    ----------
    service:
        The executor to front; the server never closes it.
    auth_tokens:
        Accepted bearer tokens; empty disables authentication.
    rate_limit / burst:
        Per-client token-bucket admission (requests/second and bucket
        depth); ``rate_limit=None`` disables limiting.  A client is
        its bearer token when auth is on, else its peer host.
    """

    allow_reuse_address = True

    def __init__(
        self,
        service: AnalyticsService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_tokens: Sequence[str] = (),
        rate_limit: Optional[float] = None,
        burst: int = 16,
    ) -> None:
        self.service = service
        self.auth_tokens = frozenset(t for t in auth_tokens if t)
        if rate_limit is not None:
            TokenBuckets.check(rate_limit, burst)
        self.rate_limit = rate_limit
        self.burst = float(burst)
        self._buckets = TokenBuckets()
        self._wire_ids = itertools.count(1)
        self._routes = {
            "/v1/query": self._handle_query,
            "/v1/batch": self._handle_batch,
            "/v1/metrics": self._handle_metrics,
            "/v1/healthz": self._handle_healthz,
        }
        self._lock = threading.Lock()
        #: open connection -> the thread serving it
        self._connections: Dict[socket.socket, threading.Thread] = {}
        #: connections waiting for their next request (no ticket held)
        self._idle: Set[socket.socket] = set()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        super().__init__((host, port), _Connection)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "ThreadedApiServer":
        """Accept connections on a daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-api", daemon=True,
            kwargs={"poll_interval": STOP_POLL_S},
        )
        self._thread.start()
        return self

    def stop(self, *, drain_s: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop listening, drain, then tear down."""
        if self._thread is not None:
            self.shutdown()  # the accept loop returns
            self._thread = None
        self.server_close()
        # In-flight connections hold tickets; let the executor finish
        # them so each connection flushes its last lines.
        if drain_s:
            self.service.drain(drain_s)
        with self._lock:
            self._stopping = True
            idle = list(self._idle)
            threads = list(self._connections.values())
        for sock in idle:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # its recv returns at once
            except OSError:
                pass  # already gone
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "ThreadedApiServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def process_request(self, request: socket.socket, client_address) -> None:
        """Serve an accepted connection on a thread of its own, or
        refuse it with one 503 when :data:`MAX_CONNECTIONS` are open."""
        with self._lock:
            admitted = len(self._connections) < MAX_CONNECTIONS
            if admitted:
                thread = self._connections[request] = threading.Thread(
                    target=self.process_request_thread,
                    args=(request, client_address),
                    name="repro-api-connection", daemon=True,
                )
        if admitted:
            thread.start()
            return
        started = time.perf_counter()
        wire, body_bytes = error_response(ServiceOverloadError(
            f"{MAX_CONNECTIONS} connections open; retry later"
        )).encode()
        try:
            request.settimeout(1.0)
            request.sendall(wire)
            self._observe(503, started, body_bytes)
            request.shutdown(socket.SHUT_WR)
            # a request already sent would turn the close into a reset
            request.recv(http.MAX_HEADER_BYTES, socket.MSG_DONTWAIT)
        except OSError:
            pass
        self.shutdown_request(request)

    def close_request(self, request: socket.socket) -> None:
        with self._lock:
            self._connections.pop(request, None)
            self._idle.discard(request)
        super().close_request(request)

    def _serve(self, sock: socket.socket, out, client: str) -> None:
        """Serve one connection's requests until it closes or the
        server stops."""
        reader = RequestReader(lambda size, timeout_s: _recv(sock, size, timeout_s))
        while self._set_idle(sock, True):
            try:
                request = reader.next_request(client=client)
            except BadRequest as exc:
                # framing is broken; answer, then do not trust the stream
                self._send(out, error_response(exc), time.perf_counter())
                return
            except OSError:
                return  # reset, vanished mid-request, or shut down by stop()
            if request is None or not self._set_idle(sock, False):
                return
            sock.settimeout(http.READ_TIMEOUT_S)  # a write that long is a stall
            if not self._respond(request, out) or not request.keep_alive:
                return

    def _set_idle(self, sock: socket.socket, idle: bool) -> bool:
        """Mark ``sock`` idle (waiting for a request) or busy; False
        once the server is stopping — the connection should close."""
        with self._lock:
            if self._stopping:
                return False
            if idle:
                self._idle.add(sock)
            else:
                self._idle.discard(sock)
            return True

    def _respond(self, request: HttpRequest, out) -> bool:
        """Admit and route the request, write its answer; False = close."""
        started = time.perf_counter()
        try:
            outcome = self._check(request) or self._routes[request.path](request)
        except (BadRequest, TigrError) as exc:
            outcome = error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            outcome = error_response(exc)
        if isinstance(outcome, StreamingBatch):
            return self._stream_batch(outcome, out, started)
        return self._send(out, outcome, started)

    def _send(self, out, response: Response, started: float) -> bool:
        """Write a fixed-length answer; False if the peer went away."""
        try:
            body_bytes = send_response(out, response)
        except OSError:
            self._observe(499, started, 0)
            return False
        self._observe(response.status, started, body_bytes)
        return True

    def _stream_batch(self, batch: StreamingBatch, out, started: float) -> bool:
        """Write one NDJSON line per ticket, in completion order."""
        resolved: "queue.SimpleQueue" = queue.SimpleQueue()
        for ticket in batch.tickets:
            ticket.add_done_callback(lambda t, result: resolved.put((t, result)))
        stream = NdjsonStream(out)
        try:
            stream.start()
            for _ in batch.tickets:
                ticket, result = resolved.get()
                stream.send(result_payload(
                    batch.trace_ids[ticket.request.request_id],
                    result,
                    elapsed_s=time.perf_counter() - batch.submitted_at,
                    include_values=batch.include_values,
                ))
            stream.end()
        except OSError:
            # Peer went away mid-response; results already resolved.
            self._observe(499, started, 0)
            return False
        self._observe(200, started, stream.bytes_sent)
        return True

    def _observe(self, status: int, started: float, bytes_sent: int) -> None:
        """Account one served HTTP request (any route, any status)."""
        counts = {"http_requests": 1, "http_bytes_sent": bytes_sent}
        if status >= 500:
            counts["http_5xx"] = 1
        elif status // 100 in (2, 4):
            counts[f"http_{status // 100}xx"] = 1
        self.service.metrics.count(**counts)
        self.service.metrics.observe("http", time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _check(self, request: HttpRequest) -> Optional[Response]:
        """The admission step: the first refusal, or ``None`` to route.

        Bearer token (401), then the client's token bucket (429) — both
        skipped for ``/v1/healthz`` — then route, method, content type
        and a non-empty body (404 / 405 / 415 / 400).  Route-specific
        schema validation happens in the handlers.
        """
        client = request.client
        if self.auth_tokens and request.path != HEALTHZ:
            scheme, _, token = request.headers.get(
                "authorization", ""
            ).partition(" ")
            client = token.strip()
            if scheme.lower() != "bearer" or client not in self.auth_tokens:
                return Response(
                    401,
                    error_payload(
                        "unauthorized", "missing or invalid bearer token", 401
                    ),
                    {"www-authenticate": "Bearer"},
                )
        if self.rate_limit is not None and request.path != HEALTHZ:
            wait_s = self._buckets.take(client, self.rate_limit, self.burst)
            if wait_s > 0.0:
                self.service.metrics.count(http_rate_limited=1)
                return Response(
                    429,
                    error_payload(
                        "rate_limited",
                        f"client {client!r} exceeded {self.rate_limit:g} "
                        f"requests/s (burst {int(self.burst)}); "
                        f"retry in {wait_s:.2f}s",
                        429,
                        retry_after_s=round(wait_s, 3),
                    ),
                    {"retry-after": str(max(1, int(wait_s + 0.999)))},
                )
        method = _METHODS.get(request.path)
        if method is None:
            return Response(
                404,
                error_payload(
                    "not_found",
                    f"no route {request.path!r}; known: "
                    + ", ".join(sorted(_METHODS)),
                    404,
                ),
            )
        if request.method != method:
            return Response(
                405,
                error_payload(
                    "method_not_allowed",
                    f"{request.method} not allowed on {request.path}",
                    405,
                ),
                {"allow": method},
            )
        if method == "POST":
            content_type = request.headers.get(
                "content-type", "application/json"
            ).split(";")[0].strip().lower()
            if content_type not in BODY_TYPES:
                return Response(
                    415,
                    error_payload(
                        "unsupported_media_type",
                        f"content-type {content_type!r} not accepted; "
                        f"send {' or '.join(BODY_TYPES)}",
                        415,
                    ),
                )
            if not request.body:
                return Response(
                    400,
                    error_payload("bad_request", "request body is empty", 400),
                )
        return None

    def _to_requests(self, trace_requests: List[TraceRequest]):
        """Wire requests -> executor requests + id correlation map."""
        requests = []
        trace_ids: Dict[int, int] = {}
        for trace_request in trace_requests:
            request = to_query_request(trace_request)
            requests.append(request)
            trace_ids[request.request_id] = trace_request.trace_id
        return requests, trace_ids

    def _submit(self, requests) -> List[QueryTicket]:
        """Admit a submission, waiting out a full queue for at most
        :data:`DEFAULT_ADMISSION_WAIT_S` (then 503).  A tenant's quota
        refusal (429) is the caller's pace and is never waited out."""
        return self.service.submit_batch(
            requests, block=True, submit_timeout_s=DEFAULT_ADMISSION_WAIT_S
        )

    def _handle_query(self, request: HttpRequest):
        payload = request.json()
        if not isinstance(payload, dict):
            raise BadRequest(400, "expected one JSON request object")
        include_values = bool(payload.pop("include_values", False))
        trace_request = parse_wire_request(
            payload, default_id=next(self._wire_ids)
        )
        requests, trace_ids = self._to_requests([trace_request])
        started = time.perf_counter()
        (ticket,) = self._submit(requests)
        result = ticket.result()
        return Response(
            200,
            result_payload(
                trace_ids[ticket.request.request_id],
                result,
                elapsed_s=time.perf_counter() - started,
                include_values=include_values,
            ),
        )

    def _handle_batch(self, request: HttpRequest):
        lines = request.ndjson_lines()
        if not lines:
            raise BadRequest(400, "batch body carries no request lines")
        if len(lines) > MAX_BATCH_LINES:
            raise BadRequest(
                413,
                f"{len(lines)} request lines exceed the per-call cap "
                f"of {MAX_BATCH_LINES}; split the replay window",
            )
        include_values = request.query.get("include_values") in ("1", "true")
        trace_requests = []
        for number, line in enumerate(lines, start=1):
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise BadRequest(
                    400, f"batch line {number} is not valid JSON ({exc})"
                ) from None
            trace_requests.append(
                parse_wire_request(
                    payload, line=number, default_id=next(self._wire_ids)
                )
            )
        requests, trace_ids = self._to_requests(trace_requests)
        return StreamingBatch(
            tickets=self._submit(requests),
            trace_ids=trace_ids,
            include_values=include_values,
        )

    def _handle_metrics(self, request: HttpRequest):
        return Response(200, self.service.metrics.summary())

    def _handle_healthz(self, request: HttpRequest):
        graphs = {
            name: graph.fingerprint()
            for name, graph in self.service.registered().items()
        }
        return Response(200, {
            "status": "ok",
            "version": repro.version_string(),
            "backend": self.service.backend,
            "workers": self.service.workers,
            "graphs": graphs,
        })


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def run_server(
    service: AnalyticsService,
    *,
    ready_callback=None,
    drain_s: Optional[float] = 30.0,
    **kwargs,
) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM (the CLI's shape).

    ``ready_callback(host, port)`` fires after the listener binds —
    the CLI uses it to print/write the bound address (port 0 means
    "pick one"), load generators use it to know when to connect.  On
    a termination signal the listener closes first and the executor
    queue drains before the call returns, so every admitted request
    still gets its response line; connections idle between requests
    are then closed.
    """
    server = ThreadedApiServer(service, **kwargs)
    # SIGTERM ends the accept loop the way Ctrl-C does
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        if ready_callback is not None:
            ready_callback(*server.server_address[:2])
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop(drain_s=drain_s)
