"""Minimal HTTP/1.1 over :mod:`asyncio` streams — no dependencies.

The front door speaks just enough HTTP for a JSON API: request-line +
headers + ``Content-Length`` bodies in, fixed-length JSON or chunked
NDJSON streams out, keep-alive connections.  Deliberately *not*
implemented: request chunked transfer encoding (rejected with 411 —
every client this repo ships sends ``Content-Length``), multipart,
compression, TLS (terminate it in front, see ``docs/http-api.md``).

Parsing is strict where sloppiness would hide bugs (malformed request
lines, oversized headers/bodies raise :class:`BadRequest` with the
status to send) and tolerant where HTTP requires it (header case,
optional whitespace).  Everything here is transport; routing, auth,
and wire-schema concerns live in the sibling modules.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: request-side guard rails (bytes).
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 64 * 1024
DEFAULT_MAX_BODY = 64 * 1024 * 1024
#: seconds a connection gets to deliver its next request whole, counted
#: from when the server starts waiting for it: a peer that stalls or
#: trickles mid-request gets 408 and is dropped, an idle one is closed.
READ_TIMEOUT_S = 30.0

#: the subset of status reasons this API emits.
REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

SERVER_NAME = "repro-api"


class BadRequest(Exception):
    """A request the transport layer refuses; carries the status."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


@dataclass
class HttpRequest:
    """One parsed request (headers lower-cased, query decoded)."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    #: the peer host (the rate limiter's key when auth is off).
    client: str = ""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        """The body as one JSON value (:class:`BadRequest` on junk)."""
        if not self.body:
            raise BadRequest(400, "request body is empty; expected JSON")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise BadRequest(
                400, f"request body is not valid JSON ({exc.msg})"
            ) from exc

    def ndjson_lines(self) -> list:
        """Non-blank body lines (the NDJSON batch wire format)."""
        text = self.body.decode("utf-8", errors="replace")
        return [line for line in text.splitlines() if line.strip()]


async def read_request(
    reader: asyncio.StreamReader, *, client: str = ""
) -> Optional[HttpRequest]:
    """Parse one request off the stream; ``None`` on clean EOF, or when
    none began within :data:`READ_TIMEOUT_S`.

    Raises :class:`BadRequest` for anything the server should answer
    with a 4xx before closing (408: begun but not whole in time),
    ``asyncio.IncompleteReadError`` / ``ConnectionError`` for a peer
    that vanished mid-request.
    """
    # one timer cancels this task: asyncio.wait_for would wrap each
    # read in a task of its own
    task, fired, first = asyncio.current_task(), [], b""
    timer = asyncio.get_running_loop().call_later(
        READ_TIMEOUT_S, lambda: fired.append(task.cancel()))
    try:
        first = await reader.read(1)
        if not first:
            return None  # clean EOF between requests: keep-alive ended
        return await _read_rest(reader, first, client)
    except asyncio.CancelledError:
        if not fired or getattr(task, "uncancel", int)():  # 3.11+ counts
            raise  # cancelled from outside too
        if not first:
            return None  # an idle keep-alive connection: closed quietly
        raise BadRequest(408, f"request not whole within {READ_TIMEOUT_S:g} s") from None
    finally:
        timer.cancel()


async def _read_rest(reader, first: bytes, client: str) -> HttpRequest:
    try:
        request_line = first + await reader.readuntil(b"\r\n")
    except asyncio.LimitOverrunError:
        raise BadRequest(400, "request line too long") from None
    if len(request_line) > MAX_REQUEST_LINE:
        raise BadRequest(400, "request line too long")
    parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(400, f"malformed request line {parts!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest(400, "header block too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise BadRequest(
            411, "chunked request bodies are not supported; "
                 "send Content-Length"
        )
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise BadRequest(400, "Content-Length is not an integer") from None
        if length < 0:
            raise BadRequest(400, "Content-Length is negative")
        if length > DEFAULT_MAX_BODY:
            raise BadRequest(
                413, f"body of {length} bytes exceeds the {DEFAULT_MAX_BODY} limit"
            )
        body = await reader.readexactly(length)

    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query)}
    return HttpRequest(
        method=method,
        target=target,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
        client=client,
    )


def _head(
    status: int,
    headers: Dict[str, str],
) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}"]
    base = {"server": SERVER_NAME, **headers}
    for name, value in base.items():
        lines.append(f"{name.title()}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class JsonText(str):
    """Text that is already JSON, written into a line as it stands."""


def encode_line(payload: dict) -> bytes:
    """One payload as a newline-terminated JSON line.

    A :class:`JsonText` ``values`` entry (what
    :func:`~repro.service.api.protocol.result_payload` attaches, after
    the other members) is spliced in verbatim as the line's last
    member — the bytes ``json.dumps`` would have written for the
    decoded value.  Any other payload is ``json.dumps`` as is.
    """
    values = payload.get("values")
    if not isinstance(values, JsonText):
        return (json.dumps(payload, separators=(", ", ": ")) + "\n").encode("utf-8")
    head = json.dumps(
        {k: v for k, v in payload.items() if k != "values"}, separators=(", ", ": ")
    )
    return f'{head[:-1]}, "values": {values}}}\n'.encode("utf-8")


@dataclass
class Response:
    """A fixed-length response a handler returns to the server loop."""

    status: int
    payload: Optional[dict] = None
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> Tuple[bytes, int]:
        """Full wire bytes + body size (for metrics)."""
        body = b""
        headers = dict(self.headers)
        if self.payload is not None:
            body = encode_line(self.payload)
            headers.setdefault("content-type", "application/json")
        headers["content-length"] = str(len(body))
        return _head(self.status, headers) + body, len(body)


class NdjsonStream:
    """A chunked ``application/x-ndjson`` response, one JSON per line.

    The streaming half of the wire contract: the head goes out before
    the first result exists, each :meth:`write` is one chunk flushed
    to the client immediately (first line lands while later tickets
    are still in flight), and :meth:`end` terminates the chunked body
    while keeping the connection reusable.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.bytes_sent = 0
        self.lines_sent = 0

    async def start(self, *, status: int = 200) -> None:
        self._writer.write(_head(status, {
            "content-type": "application/x-ndjson",
            "transfer-encoding": "chunked",
        }))
        await self._writer.drain()

    async def write(self, payload: dict) -> None:
        line = encode_line(payload)
        chunk = f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"
        self._writer.write(chunk)
        self.bytes_sent += len(line)
        self.lines_sent += 1
        await self._writer.drain()

    async def end(self) -> None:
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()


async def send_response(
    writer: asyncio.StreamWriter, response: Response
) -> int:
    """Write a fixed-length response; returns body bytes sent."""
    wire, body_bytes = response.encode()
    writer.write(wire)
    await writer.drain()
    return body_bytes
