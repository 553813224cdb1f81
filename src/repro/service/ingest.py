"""Trace ingestion: record and re-read real request streams.

``python -m repro serve`` originally drove the service from a
synthetic workload only.  This module gives the serving layer a
*request-stream* surface instead: a versioned JSONL trace format, a
:class:`TraceReader` that accepts file/stdin/socket sources, and a
:class:`TraceRecorder` the :class:`~repro.service.executor.
AnalyticsService` wraps around live traffic.  Recorded traces are the
backbone of the deterministic replay layer (:mod:`repro.service.
replay`): every capture doubles as a regression test, because result
*digests* ride along with the requests.

Trace format (one JSON object per line, ``version`` = 1):

``header`` (optional, first line)
    ``{"type": "header", "version": 1, "graphs": {name: entry},
    "note": "..."}`` — ``entry`` describes how to reconstruct each
    referenced graph: ``{"dataset": ..., "scale": ..., "weighted":
    ..., "seed": ...}`` for a Table 3 stand-in, ``{"path": ...}`` for
    an ``.npz`` file, plus an optional ``fingerprint`` that replay
    verifies after loading (guards against dataset drift).

``request``
    ``{"type": "request", "id": N, "algorithm": kind, "graph": ref,
    "sources": [...], "transform": t, "k": K, "timeout_s": deadline,
    "delta_s": inter-arrival}`` — everything needed to rebuild the
    :class:`~repro.service.query.QueryRequest`.  ``delta_s`` is the
    gap since the *previous* request record, so replay can re-pace the
    stream at any speed.

``result``
    ``{"type": "result", "id": N, "digest": "sha256:...", "ok": ...,
    "error": ..., "transform": ..., "degraded": ..., "cache_hit":
    ..., "elapsed_s": ...}`` — the recorded outcome of request ``N``.
    The digest (:func:`result_digest`) covers the value arrays and the
    error text only — *not* plan choices or cache behaviour — so a
    replay on a different backend, or one that degrades differently
    under deadline pressure, still digests equal as long as the
    answers are bitwise identical (the serving layer's core contract).

Malformed lines follow the reader's policy: ``strict`` raises a typed
:class:`~repro.errors.TraceFormatError` with the line number,
``skip`` counts and continues.  A version the reader cannot replay is
always a :class:`~repro.errors.TraceVersionError`, even under
``skip`` — silently dropping every line of an incompatible trace
would report a vacuous zero-mismatch replay.
"""

from __future__ import annotations

import hashlib
import io
import json
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.core.selection import TRANSFORMS
from repro.errors import ServiceError, TraceFormatError, TraceVersionError
from repro.graph.csr import CSRGraph
from repro.service.query import QueryRequest, QueryResult
from repro.service.sharding import parse_host_port

#: the trace format version this module writes and replays.
TRACE_VERSION = 1

#: recognised malformed-line policies.
MALFORMED_POLICIES = ("strict", "skip")


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceHeader:
    """The trace's self-description (version + graph recipes)."""

    version: int = TRACE_VERSION
    graphs: Dict[str, dict] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class TraceRequest:
    """One recorded request: everything needed to re-submit it."""

    trace_id: int
    algorithm: str
    graph: str
    sources: Tuple[int, ...] = ()
    transform: str = "auto"
    degree_bound: int = 0  # 0 = planner decides
    timeout_s: Optional[float] = None
    #: seconds since the previous request record (re-paced by replay).
    delta_s: float = 0.0
    #: accounting label for quota/priority policy ("" = default tenant).
    tenant: str = ""

    def to_query_request(
        self, graph: Union[str, CSRGraph, None] = None
    ) -> QueryRequest:
        """A fresh :class:`QueryRequest` re-submitting this record.

        ``graph`` overrides the recorded ref (replay passes the
        resolved :class:`CSRGraph` or a registered name); the new
        request gets its own ``request_id`` — the trace id is the
        *caller's* correlation key, tracked outside the request.
        """
        return QueryRequest(
            algorithm=self.algorithm,
            graph=self.graph if graph is None else graph,
            sources=self.sources,
            transform=self.transform,
            degree_bound=self.degree_bound or None,
            timeout_s=self.timeout_s,
            tenant=self.tenant,
        )


@dataclass(frozen=True)
class TraceResult:
    """One recorded outcome, keyed to its request by trace id."""

    trace_id: int
    digest: str
    ok: bool = True
    error: Optional[str] = None
    transform: str = ""
    degraded: bool = False
    cache_hit: bool = False
    elapsed_s: float = 0.0


TraceEvent = Union[TraceHeader, TraceRequest, TraceResult]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def result_digest(result: QueryResult) -> str:
    """Stable content hash of a result's *answers* (hex SHA-256).

    Covers the algorithm, the error text (for failed results), and
    every value array (source key, dtype, shape, raw bytes) in sorted
    source order.  Deliberately excludes plan choices, cache
    behaviour, and timings: replay compares *answers*, and the serving
    layer guarantees those are bitwise identical across backends and
    degradation paths (distances are unique; degraded runs produce the
    same values on the raw CSR).
    """
    digest = hashlib.sha256()
    digest.update(f"result:v1:{result.algorithm}".encode("utf-8"))
    if result.error is not None:
        digest.update(b":error:" + result.error.encode("utf-8"))
    for source in sorted(result.values):
        values = np.ascontiguousarray(result.values[source])
        digest.update(
            f":{source}:{values.dtype.str}:{values.shape}:".encode("utf-8")
        )
        digest.update(values.tobytes())
    return "sha256:" + digest.hexdigest()


# ----------------------------------------------------------------------
# Line-level parse/serialise
# ----------------------------------------------------------------------
def dataset_graph_entry(
    dataset: str,
    *,
    scale: float = 1.0,
    weighted: bool = True,
    seed: Optional[int] = None,
    fingerprint: Optional[str] = None,
) -> dict:
    """A header graph entry reconstructing a Table 3 stand-in."""
    entry: dict = {"dataset": dataset, "scale": scale, "weighted": weighted}
    if seed is not None:
        entry["seed"] = seed
    if fingerprint is not None:
        entry["fingerprint"] = fingerprint
    return entry


def _require(payload: dict, key: str, line: int, source: str):
    if key not in payload:
        raise TraceFormatError(
            f"{payload.get('type', 'record')} line missing required "
            f"field {key!r}",
            line=line,
            source=source,
        )
    return payload[key]


def parse_trace_line(
    text: str, *, line: int = 0, source: str = ""
) -> Optional[TraceEvent]:
    """One JSONL line -> typed event (``None`` for blanks/comments).

    Raises :class:`TraceFormatError` for anything unparseable or
    invalid, :class:`TraceVersionError` for a header declaring a
    version this reader cannot replay.
    """
    text = text.strip()
    if not text or text.startswith("#"):
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"not valid JSON ({exc.msg})", line=line, source=source
        ) from exc
    if not isinstance(payload, dict):
        raise TraceFormatError(
            f"expected a JSON object, got {type(payload).__name__}",
            line=line,
            source=source,
        )
    kind = payload.get("type")
    if kind == "header":
        version = payload.get("version")
        if not isinstance(version, int):
            raise TraceFormatError(
                "header carries no integer version", line=line, source=source
            )
        if version != TRACE_VERSION:
            raise TraceVersionError(version, TRACE_VERSION, source=source)
        graphs = payload.get("graphs", {})
        if not isinstance(graphs, dict) or not all(
            isinstance(entry, dict) for entry in graphs.values()
        ):
            raise TraceFormatError(
                "header graphs must map names to entry objects",
                line=line,
                source=source,
            )
        return TraceHeader(
            version=version, graphs=graphs, note=str(payload.get("note", ""))
        )
    if kind == "request":
        return _parse_request(payload, line, source)
    if kind == "result":
        return _parse_result(payload, line, source)
    raise TraceFormatError(
        f"unknown line type {kind!r} (known: header, request, result)",
        line=line,
        source=source,
    )


def parse_request_payload(
    payload: dict,
    *,
    line: int = 0,
    source: str = "",
    default_id: Optional[int] = None,
) -> TraceRequest:
    """An already-decoded JSON object -> validated :class:`TraceRequest`.

    The entry point the HTTP front door (:mod:`repro.service.api`)
    shares with the trace reader: one schema, one validator, whether a
    request line arrives from a JSONL file or a ``POST /v1/query``
    body.  A missing ``"type"`` is tolerated (an HTTP body *is* a
    request); any other type is rejected.  ``default_id`` fills in a
    missing ``"id"`` (HTTP callers need not correlate); without it the
    field stays required, as in a trace file.
    """
    kind = payload.get("type", "request")
    if kind != "request":
        raise TraceFormatError(
            f"expected a request object, got type {kind!r}",
            line=line,
            source=source,
        )
    if default_id is not None and "id" not in payload:
        payload = {**payload, "id": int(default_id)}
    return _parse_request(payload, line, source)


def _parse_request(payload: dict, line: int, source: str) -> TraceRequest:
    algorithm = _require(payload, "algorithm", line, source)
    if algorithm not in ALGORITHMS:
        raise TraceFormatError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}",
            line=line,
            source=source,
        )
    graph = _require(payload, "graph", line, source)
    if not isinstance(graph, str) or not graph:
        raise TraceFormatError(
            "graph ref must be a non-empty string", line=line, source=source
        )
    raw_sources = payload.get("sources", [])
    try:
        sources = tuple(int(s) for s in raw_sources)
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"sources must be a list of integers, got {raw_sources!r}",
            line=line,
            source=source,
        ) from None
    transform = payload.get("transform", "auto")
    if transform not in TRANSFORMS:
        raise TraceFormatError(
            f"unknown transform {transform!r}", line=line, source=source
        )
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None and (
        not isinstance(timeout_s, (int, float)) or timeout_s <= 0
    ):
        raise TraceFormatError(
            f"timeout_s must be positive or null, got {timeout_s!r}",
            line=line,
            source=source,
        )
    delta_s = payload.get("delta_s", 0.0)
    if not isinstance(delta_s, (int, float)) or delta_s < 0:
        raise TraceFormatError(
            f"delta_s must be a non-negative number, got {delta_s!r}",
            line=line,
            source=source,
        )
    tenant = payload.get("tenant", "")
    if not isinstance(tenant, str):
        raise TraceFormatError(
            f"tenant must be a string, got {tenant!r}", line=line, source=source
        )
    return TraceRequest(
        trace_id=int(_require(payload, "id", line, source)),
        algorithm=algorithm,
        graph=graph,
        sources=sources,
        transform=transform,
        degree_bound=int(payload.get("k", 0) or 0),
        timeout_s=float(timeout_s) if timeout_s is not None else None,
        delta_s=float(delta_s),
        tenant=tenant,
    )


def _parse_result(payload: dict, line: int, source: str) -> TraceResult:
    digest = _require(payload, "digest", line, source)
    if not isinstance(digest, str) or ":" not in digest:
        raise TraceFormatError(
            f"digest must look like 'sha256:<hex>', got {digest!r}",
            line=line,
            source=source,
        )
    return TraceResult(
        trace_id=int(_require(payload, "id", line, source)),
        digest=digest,
        ok=bool(payload.get("ok", True)),
        error=payload.get("error"),
        transform=str(payload.get("transform", "")),
        degraded=bool(payload.get("degraded", False)),
        cache_hit=bool(payload.get("cache_hit", False)),
        elapsed_s=float(payload.get("elapsed_s", 0.0)),
    )


def _event_payload(event: TraceEvent) -> dict:
    if isinstance(event, TraceHeader):
        payload: dict = {"type": "header", "version": event.version}
        if event.graphs:
            payload["graphs"] = event.graphs
        if event.note:
            payload["note"] = event.note
        return payload
    if isinstance(event, TraceRequest):
        payload = {
            "type": "request",
            "id": event.trace_id,
            "algorithm": event.algorithm,
            "graph": event.graph,
            "sources": list(event.sources),
            "transform": event.transform,
            "k": event.degree_bound,
            "timeout_s": event.timeout_s,
            "delta_s": round(event.delta_s, 6),
        }
        # only stamped when set, so tenant-less traces (including every
        # pre-existing golden trace) round-trip byte-identically
        if event.tenant:
            payload["tenant"] = event.tenant
        return payload
    return {
        "type": "result",
        "id": event.trace_id,
        "digest": event.digest,
        "ok": event.ok,
        "error": event.error,
        "transform": event.transform,
        "degraded": event.degraded,
        "cache_hit": event.cache_hit,
        "elapsed_s": round(event.elapsed_s, 6),
    }


def format_trace_line(event: TraceEvent) -> str:
    """One event -> its JSONL line (no trailing newline)."""
    return json.dumps(_event_payload(event), separators=(", ", ": "))


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
class TraceReader:
    """Iterate the typed events of a JSONL trace.

    ``source`` may be a file path, ``"-"`` (stdin), a
    ``tcp://host:port`` URL (connects and streams until the peer
    closes), or any open text-mode file object.  The reader owns —
    and closes — only what it opened itself.

    ``on_malformed`` selects the policy for lines that fail to parse:
    ``"strict"`` (default) raises the typed error, ``"skip"`` counts
    the line in :attr:`lines_skipped` and continues.  Version
    mismatches raise regardless of policy.

    A header, when present, must be the first event; headerless
    traces are read as the current version.
    """

    def __init__(
        self,
        source: Union[str, io.TextIOBase],
        *,
        on_malformed: str = "strict",
    ) -> None:
        if on_malformed not in MALFORMED_POLICIES:
            raise TraceFormatError(
                f"unknown malformed-line policy {on_malformed!r}; "
                f"known: {', '.join(MALFORMED_POLICIES)}"
            )
        self.on_malformed = on_malformed
        self.header: Optional[TraceHeader] = None
        self.lines_read = 0
        self.lines_skipped = 0
        self._events_seen = 0
        self._owns_stream = False
        self._socket: Optional[socket.socket] = None
        if isinstance(source, str):
            self.name = source
            self._stream = self._open(source)
        else:
            self.name = getattr(source, "name", "<stream>")
            self._stream = source

    def _open(self, source: str):
        if source == "-":
            return sys.stdin
        if source.startswith("tcp://"):
            try:
                address = parse_host_port(source, "trace socket source")
            except ServiceError as exc:
                raise TraceFormatError(
                    f"{exc} (expected tcp://host:port)", source=source
                ) from exc
            try:
                self._socket = socket.create_connection(address)
            except OSError as exc:
                raise TraceFormatError(
                    f"cannot open trace: {exc}", source=source
                ) from exc
            self._owns_stream = True
            # Binary mode: the reader decodes per line, so a peer that
            # disconnects mid-record (truncated final line, or a line
            # cut inside a multi-byte UTF-8 sequence) surfaces through
            # the malformed-line policy instead of as a raw
            # UnicodeDecodeError from the stream itself.
            return self._socket.makefile("rb")
        try:
            stream = open(source, "r", encoding="utf-8")
        except OSError as exc:
            raise TraceFormatError(
                f"cannot open trace: {exc}", source=source
            ) from exc
        self._owns_stream = True
        return stream

    # -- iteration -----------------------------------------------------
    def __iter__(self) -> Iterator[TraceEvent]:
        return self.events()

    def _iter_text(self) -> Iterator[str]:
        """Decoded lines, counting ``lines_read`` as they arrive.

        Socket sources stream bytes and decode here, so two
        disconnect artifacts follow the malformed-line policy instead
        of escaping as raw decode errors: a final line with no
        terminating newline (the peer died mid-record — never valid on
        a line-oriented wire, unlike the last line of a file) and a
        line that is not valid UTF-8 (cut inside a multi-byte
        sequence).
        """
        if self._socket is None:
            for text in self._stream:
                self.lines_read += 1
                yield text
            return
        for raw in self._stream:
            self.lines_read += 1
            if not raw.endswith(b"\n"):
                self._malformed(
                    f"truncated final line ({len(raw)} bytes; "
                    f"peer disconnected mid-record)"
                )
                return
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                self._malformed(f"line is not valid UTF-8 ({exc.reason})")

    def _malformed(self, reason: str) -> None:
        """Apply the malformed-line policy to a non-parse defect."""
        if self.on_malformed == "strict":
            raise TraceFormatError(
                reason, line=self.lines_read, source=self.name
            )
        self.lines_skipped += 1

    def events(self) -> Iterator[TraceEvent]:
        """Yield every event, applying the malformed-line policy."""
        for text in self._iter_text():
            try:
                event = parse_trace_line(
                    text, line=self.lines_read, source=self.name
                )
            except TraceVersionError:
                raise
            except TraceFormatError:
                if self.on_malformed == "strict":
                    raise
                self.lines_skipped += 1
                continue
            if event is None:
                continue
            if isinstance(event, TraceHeader):
                if self._events_seen:
                    raise TraceFormatError(
                        "header must be the first event of a trace",
                        line=self.lines_read,
                        source=self.name,
                    )
                self.header = event
            self._events_seen += 1
            yield event

    def requests(self) -> Iterator[TraceRequest]:
        """Yield only the request events (headers/results consumed)."""
        for event in self.events():
            if isinstance(event, TraceRequest):
                yield event

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        if self._socket is not None:
            self._socket.close()
            self._socket = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Trace:
    """A fully loaded trace: header, ordered requests, keyed results."""

    header: TraceHeader
    requests: List[TraceRequest]
    results: Dict[int, TraceResult]
    lines_skipped: int = 0

    @property
    def has_digests(self) -> bool:
        return bool(self.results)


def load_trace(
    source: Union[str, io.TextIOBase], *, on_malformed: str = "strict"
) -> Trace:
    """Read an entire trace into a :class:`Trace` (replay's input)."""
    with TraceReader(source, on_malformed=on_malformed) as reader:
        requests: List[TraceRequest] = []
        results: Dict[int, TraceResult] = {}
        for event in reader:
            if isinstance(event, TraceRequest):
                requests.append(event)
            elif isinstance(event, TraceResult):
                results[event.trace_id] = event
        return Trace(
            header=reader.header or TraceHeader(),
            requests=requests,
            results=results,
            lines_skipped=reader.lines_skipped,
        )


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class TraceRecorder:
    """Capture live service traffic as a replayable trace.

    Attach one to an :class:`~repro.service.executor.AnalyticsService`
    (``service.attach_recorder(recorder)``) and every submitted
    request is written as a ``request`` line (with its inter-arrival
    delta) the moment it enters the queue, and every resolved ticket
    as a ``result`` line carrying the :func:`result_digest` of its
    answer.  Thread-safe — tickets resolve on dispatcher threads.

    ``sink`` is a file path (created/truncated) or an open text-mode
    file object; lines are flushed as written so a live capture
    survives a crash of the recording process.
    """

    def __init__(
        self,
        sink: Union[str, io.TextIOBase],
        *,
        graphs: Optional[Dict[str, dict]] = None,
        note: str = "",
    ) -> None:
        self._lock = threading.Lock()
        self._owns_stream = isinstance(sink, str)
        self._stream = (
            open(sink, "w", encoding="utf-8") if isinstance(sink, str) else sink
        )
        self._last_request_at: Optional[float] = None
        self._request_started: Dict[int, float] = {}
        self.requests_recorded = 0
        self.results_recorded = 0
        self._write(TraceHeader(graphs=dict(graphs or {}), note=note))

    def _write(self, event: TraceEvent) -> None:
        self._stream.write(format_trace_line(event) + "\n")
        self._stream.flush()

    # -- capture hooks (called by the executor) ------------------------
    def record_request(
        self, request: QueryRequest, *, graph_name: Optional[str] = None
    ) -> None:
        """Append one ``request`` line; measures the arrival delta."""
        now = time.perf_counter()
        if graph_name is None:
            graph_name = (
                request.graph
                if isinstance(request.graph, str)
                else f"fingerprint:{request.graph.fingerprint()[:32]}"
            )
        with self._lock:
            delta = (
                0.0
                if self._last_request_at is None
                else max(0.0, now - self._last_request_at)
            )
            self._last_request_at = now
            self._request_started[request.request_id] = now
            self.requests_recorded += 1
            self._write(
                TraceRequest(
                    trace_id=request.request_id,
                    algorithm=request.algorithm,
                    graph=graph_name,
                    sources=request.sources,
                    transform=request.transform,
                    degree_bound=request.degree_bound or 0,
                    timeout_s=request.timeout_s,
                    delta_s=delta,
                    tenant=request.tenant,
                )
            )

    def record_result(self, request: QueryRequest, result: QueryResult) -> None:
        """Append one ``result`` line with the answer's digest."""
        now = time.perf_counter()
        with self._lock:
            started = self._request_started.pop(request.request_id, now)
            self.results_recorded += 1
            self._write(
                TraceResult(
                    trace_id=request.request_id,
                    digest=result_digest(result),
                    ok=result.ok,
                    error=result.error,
                    transform=result.transform,
                    degraded=result.degraded,
                    cache_hit=result.cache_hit,
                    elapsed_s=max(0.0, now - started),
                )
            )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._owns_stream and not self._stream.closed:
                self._stream.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
