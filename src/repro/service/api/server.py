"""The HTTP/JSON front door: asyncio server over an AnalyticsService.

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

Every request passes one admission step (:meth:`ApiServer._check`)
before its route handler runs: the bearer token (401), the client's
token bucket (429), then route, method, content type and a non-empty
body (404 / 405 / 415 / 400).

Lifecycle follows the graceful-drain contract: :meth:`stop` closes
the listener first (no new admissions), drains the executor queue so
in-flight tickets resolve, and only then tears connections down.
Run it inside an existing loop (:meth:`start` / :meth:`stop`), as a
blocking call (:func:`run_server`), or from a thread-friendly handle
(:class:`ThreadedApiServer` — what the tests and the ``service-trace``
bench use to front a live service without owning the main thread).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.errors import ServiceError, TigrError
from repro.service.api.bridge import as_resolved, submit_batch_async
from repro.service.api.http import (
    BadRequest,
    HttpRequest,
    NdjsonStream,
    Response,
    read_request,
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


class ApiServer:
    """Front one :class:`AnalyticsService` with an HTTP/JSON edge.

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
    prewarmer:
        An unstarted :class:`~repro.service.economics.Prewarmer`;
        :meth:`start` kicks it off just before binding, so the warm
        set builds behind the listener while early traffic trickles
        in.  ``/v1/healthz`` reports its progress.
    """

    def __init__(
        self,
        service: AnalyticsService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_tokens: Sequence[str] = (),
        rate_limit: Optional[float] = None,
        burst: int = 16,
        prewarmer=None,
    ) -> None:
        self.service = service
        self.prewarmer = prewarmer
        self.host = host
        self.port = port
        self.auth_tokens = frozenset(t for t in auth_tokens if t)
        if rate_limit is not None:
            TokenBuckets.check(rate_limit, burst)
        self.rate_limit = rate_limit
        self.burst = float(burst)
        self._buckets = TokenBuckets()
        self._server: Optional[asyncio.base_events.Server] = None
        self._wire_ids = itertools.count(1)
        self._routes = {
            "/v1/query": self._handle_query,
            "/v1/batch": self._handle_batch,
            "/v1/metrics": self._handle_metrics,
            "/v1/healthz": self._handle_healthz,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self.prewarmer is not None:
            # Background thread; start() is idempotent, so a CLI that
            # already kicked warming off before handing us the object
            # is fine.  Never awaited — traffic does not wait on it.
            self.prewarmer.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def stop(self, *, drain_s: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop listening, drain, then tear down."""
        if self._server is not None:
            # no wait_closed(): from Python 3.12 it also waits out every
            # open connection, which an idle keep-alive client holds for
            # READ_TIMEOUT_S; the loop's end cancels those instead
            self._server.close()
            self._server = None
        # In-flight handlers hold tickets; let the executor finish
        # them off the loop so connections flush their last lines.
        if drain_s:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.service.drain(drain_s)
            )

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "<pipe>"
        try:
            while True:
                started = time.perf_counter()
                try:
                    request = await read_request(reader, client=client)
                except BadRequest as exc:
                    response = error_response(exc)
                    bytes_sent = await send_response(writer, response)
                    self._observe(response.status, started, bytes_sent)
                    return  # framing is broken; do not trust the stream
                except (
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    ConnectionError,
                ):
                    return
                if request is None:
                    return  # clean keep-alive end
                keep_alive = request.keep_alive
                done = await self._respond(request, writer, started)
                if not done or not keep_alive:
                    return
        except asyncio.CancelledError:
            # the loop is ending with this client still connected (its
            # end cancels the connections left open).  Nothing awaits
            # this task; ending it quietly keeps Python 3.11's stream
            # callback from logging the cancellation as an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _respond(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        started: float,
    ) -> bool:
        """Admit and route the request, write its answer; False = close."""
        try:
            outcome = self._check(request) or await self._routes[request.path](
                request
            )
        except (BadRequest, TigrError) as exc:
            outcome = error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            outcome = error_response(exc)
        try:
            if isinstance(outcome, StreamingBatch):
                stream = NdjsonStream(writer)
                await stream.start()
                await self._stream_batch(outcome, stream)
                self._observe(200, started, stream.bytes_sent)
                return True
            assert isinstance(outcome, Response), outcome
            bytes_sent = await send_response(writer, outcome)
            self._observe(outcome.status, started, bytes_sent)
            return True
        except (ConnectionError, BrokenPipeError):
            # Peer went away mid-response; results already resolved.
            self._observe(499, started, 0)
            return False

    async def _stream_batch(
        self, batch: StreamingBatch, stream: NdjsonStream
    ) -> None:
        async for ticket, result in as_resolved(batch.tickets):
            elapsed = time.perf_counter() - batch.submitted_at
            await stream.write(
                result_payload(
                    batch.trace_ids[ticket.request.request_id],
                    result,
                    elapsed_s=elapsed,
                    include_values=batch.include_values,
                )
            )
        await stream.end()

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

    async def _handle_query(self, request: HttpRequest):
        payload = request.json()
        if not isinstance(payload, dict):
            raise BadRequest(400, "expected one JSON request object")
        include_values = bool(payload.pop("include_values", False))
        trace_request = parse_wire_request(
            payload, default_id=next(self._wire_ids)
        )
        requests, trace_ids = self._to_requests([trace_request])
        started = time.perf_counter()
        tickets = await submit_batch_async(
            self.service, requests, max_wait_s=DEFAULT_ADMISSION_WAIT_S
        )
        result = await tickets[0].aresult()
        return Response(
            200,
            result_payload(
                trace_ids[tickets[0].request.request_id],
                result,
                elapsed_s=time.perf_counter() - started,
                include_values=include_values,
            ),
        )

    async def _handle_batch(self, request: HttpRequest):
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
        tickets = await submit_batch_async(
            self.service, requests, max_wait_s=DEFAULT_ADMISSION_WAIT_S
        )
        return StreamingBatch(
            tickets=tickets,
            trace_ids=trace_ids,
            include_values=include_values,
        )

    async def _handle_metrics(self, request: HttpRequest):
        return Response(200, self.service.metrics.summary())

    async def _handle_healthz(self, request: HttpRequest):
        graphs = {
            name: graph.fingerprint()
            for name, graph in self.service.registered().items()
        }
        payload = {
            "status": "ok",
            "version": repro.version_string(),
            "backend": self.service.backend,
            "workers": self.service.workers,
            "graphs": graphs,
        }
        if self.prewarmer is not None:
            payload["prewarm"] = {
                "done": self.prewarmer.done,
                "built": self.prewarmer.built,
                "already_warm": self.prewarmer.already_warm,
                "skipped": self.prewarmer.skipped,
            }
        return Response(200, payload)


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
    still gets its response line.
    """

    async def main() -> None:
        server = ApiServer(service, **kwargs)
        host, port = await server.start()
        if ready_callback is not None:
            ready_callback(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop; Ctrl-C falls through below
        try:
            await stop.wait()
        finally:
            await server.stop(drain_s=drain_s)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


class ThreadedApiServer:
    """An :class:`ApiServer` on a daemon thread with its own loop.

    For synchronous callers — tests, the bench harness, notebook use::

        with ThreadedApiServer(service) as handle:
            urllib.request.urlopen(f"http://{handle.address}/v1/healthz")

    ``start()`` returns once the listener is bound; ``stop()`` runs
    the graceful drain on the loop and joins the thread.
    """

    def __init__(self, service: AnalyticsService, **kwargs) -> None:
        self._server = ApiServer(service, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = False
        self._drain_s: Optional[float] = 30.0

    @property
    def address(self) -> str:
        return self._server.address

    @property
    def server(self) -> ApiServer:
        return self._server

    def start(self, timeout_s: float = 10.0) -> "ThreadedApiServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-api", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServiceError("API server failed to bind within timeout")
        return self

    def _run(self) -> None:
        async def main() -> None:
            # The stop event and loop handle are published only after
            # the listener binds, so stop() always sees both or neither.
            self._stop_event = asyncio.Event()
            await self._server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                # start_server handles connections while the loop
                # runs; all main() must do is stay alive until asked.
                await self._stop_event.wait()
            finally:
                await self._server.stop(drain_s=self._drain_s)

        # asyncio.run cancels and awaits the connections still open
        # (an idle keep-alive client) before it closes the loop
        asyncio.run(main())

    def stop(self, *, drain_s: Optional[float] = 30.0) -> None:
        if self._stopped or self._loop is None or self._stop_event is None:
            return
        self._stopped = True
        self._drain_s = drain_s
        self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=(drain_s or 0) + 30)

    def __enter__(self) -> "ThreadedApiServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
