"""Synchronous HTTP replay client: drive a front door from a trace.

The client half of the parity contract.  :class:`HttpReplayClient`
speaks the same trace-v1 wire schema as the server, over stdlib
``http.client`` keep-alive connections — no event loop, no
dependencies — so a *separate process* can replay any recorded trace
against a live front door and diff every returned ``digest`` against
the recorded one (:func:`replay_trace_http` returns the same
:class:`~repro.service.replay.ReplayReport` shape the in-process
replayer produces).  ``tools/loadgen.py`` is a thin CLI over this
module; the ``service-trace`` bench and the ``http-smoke`` CI job
both drive it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.service.ingest import Trace, TraceRequest, format_trace_line, load_trace
from repro.service.replay import ReplayReport, Row, replay_pass

#: seconds an idle socket waits on the server before giving up.
DEFAULT_HTTP_TIMEOUT_S = 300.0


class HttpStatusError(ServiceError):
    """The server answered outside 2xx; carries status + error body."""

    def __init__(self, status: int, body: dict, *, path: str = "") -> None:
        self.status = status
        self.body = body
        detail = body.get("error", {}) if isinstance(body, dict) else {}
        super().__init__(
            f"{path or 'request'} answered {status} "
            f"({detail.get('type', 'unknown')}: "
            f"{detail.get('message', '(no message)')})"
        )


class HttpReplayClient:
    """One keep-alive connection to a front door, trace lines in/out."""

    def __init__(
        self,
        url: str,
        *,
        token: Optional[str] = None,
        timeout_s: float = DEFAULT_HTTP_TIMEOUT_S,
    ) -> None:
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme not in ("http", ""):
            raise ServiceError(
                f"only http:// front doors are supported, got {url!r}"
            )
        if not split.hostname:
            raise ServiceError(f"cannot parse host from {url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.token = token
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- plumbing ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def _headers(self, content_type: Optional[str] = None) -> Dict[str, str]:
        headers = {}
        if content_type:
            headers["Content-Type"] = content_type
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> http.client.HTTPResponse:
        conn = self._connection()
        try:
            conn.request(
                method, path, body=body, headers=self._headers(content_type)
            )
            return conn.getresponse()
        except (ConnectionError, http.client.HTTPException):
            # one reconnect: the server may have closed an idle socket
            self.close()
            conn = self._connection()
            conn.request(
                method, path, body=body, headers=self._headers(content_type)
            )
            return conn.getresponse()

    def _json(self, response: http.client.HTTPResponse, path: str) -> dict:
        raw = response.read()
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{path}: non-JSON response ({exc.msg}): {raw[:200]!r}"
            ) from exc
        if not 200 <= response.status < 300:
            raise HttpStatusError(response.status, payload, path=path)
        return payload

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> dict:
        return self._json(self._request("GET", "/v1/healthz"), "/v1/healthz")

    def metrics(self) -> dict:
        return self._json(self._request("GET", "/v1/metrics"), "/v1/metrics")

    def query(self, payload: dict) -> dict:
        """POST one trace-schema request object; its result object."""
        body = json.dumps(payload).encode("utf-8")
        return self._json(
            self._request("POST", "/v1/query", body, "application/json"),
            "/v1/query",
        )

    def batch_lines(
        self, lines: Iterable[str]
    ) -> Iterable[Tuple[dict, float]]:
        """POST NDJSON request lines; yield ``(result, t_arrival_s)``.

        Streams: each yielded pair carries the wall-clock seconds
        since the request was sent, measured when its line *arrived* —
        the observable the incremental-streaming test asserts on
        (first line strictly before the batch finishes).
        """
        body = ("\n".join(lines) + "\n").encode("utf-8")
        sent_at = time.perf_counter()
        response = self._request(
            "POST", "/v1/batch", body, "application/x-ndjson"
        )
        if not 200 <= response.status < 300:
            raw = response.read()
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                payload = {"error": {"message": raw[:200].decode("latin-1")}}
            raise HttpStatusError(response.status, payload, path="/v1/batch")
        while True:
            line = response.readline()
            if not line:
                break
            line = line.strip()
            if line:
                yield json.loads(line), time.perf_counter() - sent_at

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpReplayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def verify_graphs(client: HttpReplayClient, trace: Trace) -> List[str]:
    """Diff the server's registered graphs against the trace header.

    Returns human-readable problems (missing graph, fingerprint
    drift); empty means every graph the trace references is served
    with the recorded content.  Run before a replay so a mismatched
    deployment fails in one line instead of a wall of digest
    mismatches.
    """
    problems: List[str] = []
    served = client.healthz().get("graphs", {})
    referenced = {request.graph for request in trace.requests}
    for name in sorted(referenced):
        recorded = trace.header.graphs.get(name, {}).get("fingerprint")
        actual = served.get(name)
        if actual is None:
            problems.append(
                f"graph {name!r} is not registered on the server "
                f"(serving: {', '.join(sorted(served)) or '(none)'})"
            )
        elif recorded is not None and actual != recorded:
            problems.append(
                f"graph {name!r} fingerprint drift: server has "
                f"{actual[:16]}…, trace recorded {recorded[:16]}…"
            )
    return problems


def _row(payload: dict) -> Row:
    return (
        int(payload.get("id", -1)),
        payload.get("ok", payload.get("error") is None),
        str(payload.get("digest", "")),
        payload.get("error"),
    )


def replay_trace_http(
    source: Union[str, Trace],
    url: str,
    *,
    token: Optional[str] = None,
    batch: int = 16,
    loop: int = 1,
    speed: float = 0.0,
    verify: bool = True,
    check_graphs: bool = True,
    timeout_s: float = DEFAULT_HTTP_TIMEOUT_S,
) -> ReplayReport:
    """Replay a recorded trace over HTTP and diff every digest.

    The network-edge twin of :func:`repro.service.replay.replay_trace`,
    through the same :func:`~repro.service.replay.replay_pass`:
    consecutive requests are grouped into ``/v1/batch`` windows of
    ``batch`` lines (``batch=1`` uses ``/v1/query``), ``speed``
    re-paces recorded inter-arrival gaps, and every returned
    ``digest`` is diffed against the recorded one.  The report's
    ``backend`` field records the wire (``http://host:port``); digest
    parity across in-process and HTTP replay is the acceptance gate
    the ``http-smoke`` CI job enforces.
    """
    trace = source if isinstance(source, Trace) else load_trace(source)
    report = ReplayReport(
        source=source if isinstance(source, str) else "<trace>",
        backend=f"http://{url.split('://')[-1]}",
        loops=loop,
    )
    with HttpReplayClient(url, token=token, timeout_s=timeout_s) as client:
        if check_graphs:
            problems = verify_graphs(client, trace)
            if problems:
                raise ServiceError(
                    "front door does not serve this trace's graphs:\n  "
                    + "\n  ".join(problems)
                )

        def send(window: List[TraceRequest]) -> List[Row]:
            # one keep-alive connection: read the whole answer now
            if batch == 1:
                return [_row(client.query(json.loads(format_trace_line(window[0]))))]
            lines = [format_trace_line(request) for request in window]
            return [_row(payload) for payload, _ in client.batch_lines(lines)]

        start = time.perf_counter()
        for _ in range(loop):
            replay_pass(trace, report, send, speed=speed, batch=batch, verify=verify)
        report.elapsed_s = time.perf_counter() - start
    return report
