"""HTTP front door: wire parity, streaming, auth, limits, errors."""

import asyncio
import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ServiceError
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    TraceRecorder,
    load_trace,
    plan_query,
    resolve_trace_graphs,
    result_digest,
)
from repro.service.api import (
    HttpReplayClient,
    HttpStatusError,
    ThreadedApiServer,
    replay_trace_http,
    verify_graphs,
)
from repro.service.routing import TokenBuckets

MIXED_TRACE = str(Path(__file__).parent / "traces" / "mixed.jsonl")


@pytest.fixture
def service(powerlaw_graph):
    with AnalyticsService(GraphCatalog(), workers=2) as svc:
        svc.register("g", powerlaw_graph)
        yield svc


@pytest.fixture
def server(service):
    with ThreadedApiServer(service) as handle:
        yield handle


@pytest.fixture
def client(server):
    with HttpReplayClient(server.address) as c:
        yield c


def _raw_request(address, method, path, body=None, headers=None):
    """One request on a throwaway connection; returns (status, headers,
    body-bytes) with header names lower-cased."""
    host, _, port = address.rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            payload,
        )
    finally:
        conn.close()


def _keep_alive(address):
    """A keep-alive connection that has been answered once."""
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=5)
    sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
    assert sock.recv(4096).startswith(b"HTTP/1.1 200 ")
    return sock


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestHealthz:
    def test_identity_and_graphs(self, client, service, powerlaw_graph):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["version"] == repro.version_string()
        assert body["backend"] == service.backend
        assert body["workers"] == 2
        assert body["graphs"] == {"g": powerlaw_graph.fingerprint()}

    def test_exempt_from_auth(self, service):
        with ThreadedApiServer(service, auth_tokens=("secret",)) as handle:
            with HttpReplayClient(handle.address) as client:  # no token
                assert client.healthz()["status"] == "ok"


class TestQuery:
    def test_digest_parity_with_in_process(self, client, service):
        in_process = service.run(QueryRequest.single("bfs", "g", 0))
        wire = client.query(
            {"algorithm": "bfs", "graph": "g", "sources": [0]}
        )
        assert wire["type"] == "result"
        assert wire["ok"] is True
        assert wire["digest"] == result_digest(in_process)

    def test_include_values_round_trips(self, client, service):
        in_process = service.run(QueryRequest.single("bfs", "g", 3))
        wire = client.query(
            {
                "algorithm": "bfs",
                "graph": "g",
                "sources": [3],
                "include_values": True,
            }
        )
        values = wire["values"]["3"]
        expected = in_process.values[3]
        assert len(values) == len(expected)
        for got, want in zip(values, expected):
            if got is None:
                assert not np.isfinite(want)  # infinity -> null
            else:
                assert got == pytest.approx(float(want))

    @pytest.mark.parametrize("algorithm", ["pr", "bc"])
    def test_udt_is_still_rejected_where_it_cannot_serve(
        self, client, service, powerlaw_graph, algorithm
    ):
        # the udt checks run before the plan serves the CSR: the same
        # typed error in process, the same failed answer (HTTP 200) on
        # the wire
        sources = (0,) if algorithm == "bc" else ()
        request = QueryRequest(algorithm, "g", sources=sources, transform="udt")
        with pytest.raises(ServiceError, match=f"udt cannot serve {algorithm}"):
            plan_query(request, powerlaw_graph)
        in_process = service.run(request)
        wire = client.query({
            "algorithm": algorithm, "graph": "g", "sources": list(sources),
            "transform": "udt",
        })
        assert not in_process.ok
        assert f"udt cannot serve {algorithm}" in in_process.error
        assert wire["ok"] is False and wire["error"] == in_process.error

    def test_unknown_graph_is_404(self, client):
        with pytest.raises(HttpStatusError) as info:
            client.query({"algorithm": "bfs", "graph": "nope", "sources": [0]})
        assert info.value.status == 404
        assert info.value.body["error"]["type"] == "unknown_graph"
        assert "nope" in info.value.body["error"]["message"]

    def test_unknown_algorithm_is_400(self, client):
        with pytest.raises(HttpStatusError) as info:
            client.query({"algorithm": "dijkstra", "graph": "g"})
        assert info.value.status == 400

    def test_malformed_json_is_400(self, server):
        status, _, body = _raw_request(
            server.address, "POST", "/v1/query", body=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(body)["error"]["type"] == "bad_request"

    def test_method_not_allowed_is_405(self, server):
        status, headers, _ = _raw_request(server.address, "GET", "/v1/query")
        assert status == 405
        assert "POST" in headers["allow"]

    def test_unknown_route_is_404(self, server):
        status, _, body = _raw_request(server.address, "GET", "/v2/query")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "not_found"

    def test_wrong_content_type_is_415(self, server):
        status, _, _ = _raw_request(
            server.address, "POST", "/v1/query", body=b"<xml/>",
            headers={"Content-Type": "text/xml"},
        )
        assert status == 415

    def test_empty_body_is_400(self, server):
        status, _, _ = _raw_request(
            server.address, "POST", "/v1/query", body=b"",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400

    def test_chunked_request_body_is_411(self, server):
        status, _, _ = _raw_request(
            server.address, "POST", "/v1/query", body=None,
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 411


def _reader(*chunks):
    """A RequestReader over scripted ``recv`` chunks; records each
    ``recv``'s timeout."""
    from repro.service.api.http import RequestReader

    pending, timeouts = list(chunks), []

    def recv(_size, timeout_s):
        timeouts.append(timeout_s)
        return pending.pop(0) if pending else b""

    return RequestReader(recv), timeouts


class TestRequestReader:
    """The blocking parser each connection thread reads with."""

    def test_pipelined_requests_stay_buffered_for_the_next(self):
        reader, _ = _reader(
            b"POST /v1/query?x=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
            b"GET /v1/healthz HTTP/1.1\r\n\r\n"
        )
        first = reader.next_request(client="h")
        assert (first.method, first.path, first.query, first.body, first.client) == (
            "POST", "/v1/query", {"x": "1"}, b"{}", "h")
        second = reader.next_request()
        assert (second.method, second.path, second.body) == ("GET", "/v1/healthz", b"")
        assert reader.next_request() is None  # clean EOF between requests

    def test_peer_gone_mid_request_is_connection_error(self):
        reader, _ = _reader(b"POST /v1/query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{")
        with pytest.raises(ConnectionError):
            reader.next_request()

    @pytest.mark.parametrize("wire, status, message", [
        (b"GET /" + b"x" * 9000 + b" HTTP/1.1\r\n\r\n", 400, "request line too long"),
        (b"GET / HTTP/1.1\r\n" + b"X-Pad: y\r\n" * 7000 + b"\r\n", 400,
         "header block too large"),
        (b"GET / SPDY/3\r\n\r\n", 400, "malformed request line"),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400, "negative"),
        (b"POST / HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", 400, "not an integer"),
        (b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n", 413, "exceeds"),
    ], ids=["request-line", "header-block", "version", "negative-length",
            "non-integer-length", "oversized-body"])
    def test_malformed_framing_is_a_4xx(self, wire, status, message):
        from repro.service.api.http import BadRequest

        reader, _ = _reader(wire)
        with pytest.raises(BadRequest, match=message) as caught:
            reader.next_request()
        assert caught.value.status == status

    def test_one_deadline_spans_every_recv(self):
        # each recv may only wait out what is left of the request's
        # deadline, never a fresh READ_TIMEOUT_S
        from repro.service.api import http as transport

        wire = b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}{}"
        reader, timeouts = _reader(*(wire[i:i + 1] for i in range(len(wire))))
        assert reader.next_request().body == b"{}{}"
        assert len(timeouts) == len(wire)
        assert timeouts == sorted(timeouts, reverse=True)
        assert 0.0 < timeouts[-1] <= timeouts[0] <= transport.READ_TIMEOUT_S


class TestLedgerShims:
    """The awaitable entry points the frozen layer-walk benchmark calls,
    each a thin shim over the blocking code."""

    def test_read_request_parses_a_stream_readers_bytes(self):
        from repro.service.api.http import read_request

        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(
                b"POST /v1/batch HTTP/1.1\r\nContent-Type: application/x-ndjson\r\n"
                b"Content-Length: 3\r\n\r\n{}\n"
            )
            reader.feed_eof()
            return await read_request(reader, client="walk")

        request = asyncio.run(main())
        assert (request.method, request.path, request.client) == ("POST", "/v1/batch", "walk")
        assert request.ndjson_lines() == ["{}"]

    def test_read_request_at_eof_is_none(self):
        from repro.service.api.http import read_request

        async def main():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_request(reader)

        assert asyncio.run(main()) is None

    def test_ndjson_stream_writes_chunks_through_any_writer(self):
        from repro.service.api.http import NdjsonStream

        out = io.BytesIO()
        stream = NdjsonStream(out)
        stream.start()
        stream.send({"id": 1})
        asyncio.run(stream.write({"id": 2}))
        stream.end()
        head, _, body = out.getvalue().partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Transfer-Encoding: chunked" in head
        line = b'{"id": 1}\n'
        assert body == (
            b"%x\r\n%s\r\n" % (len(line), line)
            + b"%x\r\n%s\r\n" % (len(line), line.replace(b"1", b"2"))
            + b"0\r\n\r\n"
        )
        assert (stream.lines_sent, stream.bytes_sent) == (2, 2 * len(line))


class TestReadDeadline:
    """A peer that stops mid-request cannot pin its connection: 408 and
    drop.  An idle keep-alive connection is closed without a word."""

    @pytest.fixture
    def short(self, monkeypatch):
        from repro.service.api import http as transport

        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)

    @staticmethod
    def _connect(address):
        host, _, port = address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=5)
        sock.settimeout(1.0)
        return sock

    @staticmethod
    def _read_to_close(sock):
        """Everything the server sends until it closes, and how long
        that took."""
        started, received = time.monotonic(), b""
        while chunk := sock.recv(4096):
            received += chunk
        return received, time.monotonic() - started

    def test_stalled_request_is_408_while_others_are_served(self, short, server):
        with self._connect(server.address) as stalled:
            stalled.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Le")
            status, _, _ = _raw_request(server.address, "GET", "/v1/healthz")
            assert status == 200
            received, waited = self._read_to_close(stalled)
        assert received.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert waited < 1.0

    def test_a_stall_after_whole_header_lines_is_408(self, short, server):
        with self._connect(server.address) as stalled:
            stalled.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
            received, waited = self._read_to_close(stalled)
        assert received.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert waited < 1.0

    def test_trickled_body_is_408(self, short, server):
        with self._connect(server.address) as sock:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Length: 64\r\n\r\n")
            sock.settimeout(0.05)
            started, received = time.monotonic(), b""
            while not received and time.monotonic() - started < 1.0:
                try:
                    sock.sendall(b" ")  # one byte per 50 ms: never whole
                    received = sock.recv(4096)
                except socket.timeout:
                    continue
        assert received.startswith(b"HTTP/1.1 408 ")

    def test_idle_keep_alive_connection_closes_quietly(self, short, server):
        with self._connect(server.address) as sock:
            sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(4096)
            head, _, body = head.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            length = int(head.lower().split(b"content-length: ")[1].split(b"\r\n")[0])
            while len(body) < length:
                body += sock.recv(4096)
            received, waited = self._read_to_close(sock)
        assert received == b"" and waited < 1.0


class TestBatch:
    def test_ndjson_digest_parity(self, client, service):
        expected = {
            s: result_digest(service.run(QueryRequest.single("bfs", "g", s)))
            for s in range(4)
        }
        lines = [
            json.dumps(
                {
                    "type": "request", "id": s, "algorithm": "bfs",
                    "graph": "g", "sources": [s],
                }
            )
            for s in range(4)
        ]
        seen = {}
        for payload, _arrival in client.batch_lines(lines):
            assert payload["ok"] is True
            seen[payload["id"]] = payload["digest"]
        assert seen == expected

    def test_streams_before_batch_completes(self, powerlaw_graph):
        gate = threading.Event()
        slow_graph = powerlaw_graph.without_weights()
        with AnalyticsService(GraphCatalog(), workers=2) as svc:
            svc.register("fast", powerlaw_graph)
            svc.register("slow", slow_graph)
            original = svc._prepare

            def gated(graph, algorithm):
                if graph is slow_graph:
                    gate.wait(30.0)
                return original(graph, algorithm)

            svc._prepare = gated
            try:
                with ThreadedApiServer(svc) as handle:
                    with HttpReplayClient(handle.address) as client:
                        lines = [
                            json.dumps({
                                "type": "request", "id": 1,
                                "algorithm": "bfs", "graph": "slow",
                                "sources": [0],
                            }),
                            json.dumps({
                                "type": "request", "id": 2,
                                "algorithm": "bfs", "graph": "fast",
                                "sources": [0],
                            }),
                        ]
                        stream = client.batch_lines(lines)
                        first, _ = next(stream)
                        # the fast request's line arrived while the
                        # slow one was still gated: incremental, not
                        # buffer-then-flush
                        assert first["id"] == 2
                        assert not gate.is_set()
                        gate.set()
                        second, _ = next(stream)
                        assert second["id"] == 1
                        assert list(stream) == []
            finally:
                gate.set()

    def test_batch_of_blank_lines_is_400(self, server):
        status, _, payload = _raw_request(
            server.address, "POST", "/v1/batch", body=b"\n \n",
            headers={"Content-Type": "application/x-ndjson"},
        )
        assert status == 400
        assert "no request lines" in json.loads(payload)["error"]["message"]

    def test_batch_line_error_names_the_line(self, server):
        body = b'{"type": "request", "algorithm": "bfs", "graph": "g"}\n{nope\n'
        status, _, payload = _raw_request(
            server.address, "POST", "/v1/batch", body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        assert status == 400
        assert "line 2" in json.loads(payload)["error"]["message"]

    def test_rejected_member_fails_alone(self, client, service):
        # one batch on the wire: the udt pr line fails with the
        # in-process message, the auto pr line is answered
        lines = [
            json.dumps({"type": "request", "id": i, "algorithm": "pr",
                        "graph": "g", "transform": transform})
            for i, transform in ((1, "udt"), (2, "auto"))
        ]
        seen = {payload["id"]: payload for payload, _ in client.batch_lines(lines)}
        expected = service.run(QueryRequest("pr", "g"))
        assert seen[1]["ok"] is False
        assert seen[1]["error"] == service.run(
            QueryRequest("pr", "g", transform="udt")
        ).error
        assert seen[1]["error"].startswith("udt cannot serve pr")
        assert seen[2]["ok"] is True and seen[2]["digest"] == result_digest(expected)

    def test_include_values_via_query_param(self, client):
        lines = [json.dumps(
            {"type": "request", "id": 7, "algorithm": "bfs",
             "graph": "g", "sources": [0]}
        )]
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/batch?include_values=1",
                body=(lines[0] + "\n").encode(),
                headers={"Content-Type": "application/x-ndjson"},
            )
            response = conn.getresponse()
            assert response.status == 200
            payload = json.loads(response.readline())
            assert "values" in payload and "0" in payload["values"]
        finally:
            conn.close()


class TestAuth:
    @pytest.fixture
    def secured(self, service):
        with ThreadedApiServer(
            service, auth_tokens=("alpha", "beta")
        ) as handle:
            yield handle

    def test_missing_token_is_401(self, secured):
        status, headers, body = _raw_request(
            secured.address, "GET", "/v1/metrics"
        )
        assert status == 401
        assert headers["www-authenticate"] == "Bearer"
        assert json.loads(body)["error"]["type"] == "unauthorized"

    def test_wrong_token_is_401(self, secured):
        with HttpReplayClient(secured.address, token="gamma") as client:
            with pytest.raises(HttpStatusError) as info:
                client.metrics()
        assert info.value.status == 401

    def test_accepted_token_passes(self, secured):
        with HttpReplayClient(secured.address, token="beta") as client:
            result = client.query(
                {"algorithm": "bfs", "graph": "g", "sources": [0]}
            )
        assert result["ok"] is True


class TestRateLimit:
    def test_bucket_refill_with_fake_clock(self):
        now = [0.0]
        buckets = TokenBuckets(lambda: now[0])
        assert buckets.take("k", 2.0, 2) == 0.0
        assert buckets.take("k", 2.0, 2) == 0.0
        wait = buckets.take("k", 2.0, 2)  # bucket empty
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert buckets.take("k", 2.0, 2) == 0.0
        assert buckets.take("other", 2.0, 2) == 0.0  # separate bucket per key

    def test_over_limit_is_429_with_retry_after(self, service):
        with ThreadedApiServer(
            service, auth_tokens=("tok",), rate_limit=0.5, burst=2
        ) as handle:
            with HttpReplayClient(handle.address, token="tok") as client:
                for _ in range(2):
                    assert client.query(
                        {"algorithm": "bfs", "graph": "g", "sources": [0]}
                    )["ok"]
                with pytest.raises(HttpStatusError) as info:
                    client.query(
                        {"algorithm": "bfs", "graph": "g", "sources": [0]}
                    )
        assert info.value.status == 429
        assert info.value.body["error"]["type"] == "rate_limited"
        assert info.value.body["error"]["retry_after_s"] > 0
        assert service.metrics.summary()["http_rate_limited"] == 1

    def test_healthz_never_rate_limited(self, service):
        with ThreadedApiServer(
            service, rate_limit=0.5, burst=1
        ) as handle:
            with HttpReplayClient(handle.address) as client:
                for _ in range(5):
                    assert client.healthz()["status"] == "ok"

    def test_invalid_parameters_rejected(self, service):
        # the same check as TenantQuota's, so the same typed error
        with pytest.raises(ServiceError, match="rate"):
            ThreadedApiServer(service, rate_limit=0.0, burst=4)
        with pytest.raises(ServiceError, match="burst"):
            ThreadedApiServer(service, rate_limit=1.0, burst=0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ServiceError, match="finite rate"):
                ThreadedApiServer(service, rate_limit=rate, burst=16)

    def test_anonymous_client_is_keyed_by_host_not_connection(self, service):
        # reconnecting must not refill an anonymous client's bucket
        with ThreadedApiServer(service, rate_limit=0.5, burst=1) as handle:
            statuses = [
                _raw_request(handle.address, "GET", "/v1/metrics")[0]
                for _ in range(2)
            ]
        assert statuses == [200, 429]

    def test_checks_run_auth_then_rate_then_route(self, service):
        with ThreadedApiServer(
            service, auth_tokens=("tok",), rate_limit=0.5, burst=1
        ) as handle:
            # no token: 401 before the unknown route's 404
            status, headers, _ = _raw_request(handle.address, "GET", "/v2/query")
            assert status == 401 and headers["www-authenticate"] == "Bearer"
            auth = {"Authorization": "Bearer tok"}
            assert _raw_request(handle.address, "GET", "/v1/metrics", headers=auth)[0] == 200
            # over its limit: 429 before the 404 and the 405
            for method, path in (("GET", "/v2/query"), ("GET", "/v1/query")):
                status, headers, body = _raw_request(
                    handle.address, method, path, headers=auth
                )
                assert status == 429 and int(headers["retry-after"]) >= 1
                assert json.loads(body)["error"]["type"] == "rate_limited"
            # health probes pass both gates
            assert _raw_request(handle.address, "GET", "/v1/healthz")[0] == 200
        assert service.metrics.summary()["http_rate_limited"] == 2


class TestOverload:
    def test_full_queue_is_503(self, powerlaw_graph, monkeypatch):
        from repro.service.api import server as front_door

        monkeypatch.setattr(front_door, "DEFAULT_ADMISSION_WAIT_S", 0.05)
        gate = threading.Event()
        with AnalyticsService(
            GraphCatalog(), workers=1, queue_size=1
        ) as svc:
            svc.register("g", powerlaw_graph)
            original = svc._prepare

            def stalled(graph, algorithm):
                gate.wait(30.0)
                return original(graph, algorithm)

            svc._prepare = stalled
            stuck = svc.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)  # worker picks it up and stalls
            queued = svc.submit(
                QueryRequest.single("bfs", "g", 1), block=False
            )
            try:
                with ThreadedApiServer(svc) as handle:
                    status, headers, body = _raw_request(
                        handle.address, "POST", "/v1/query",
                        body=json.dumps({
                            "algorithm": "bfs", "graph": "g", "sources": [2],
                        }).encode(),
                        headers={"Content-Type": "application/json"},
                    )
                    assert status == 503
                    assert int(headers["retry-after"]) >= 1
                    assert json.loads(body)["error"]["type"] == "overloaded"
                    # before the server's exit drains the stalled queue
                    gate.set()
            finally:
                gate.set()
            assert stuck.result(60.0).ok and queued.result(60.0).ok


    def test_refused_batch_charges_once_and_prepares_nothing_twice(
        self, powerlaw_graph, monkeypatch
    ):
        # one stalled worker, one queued item and one free slot: a
        # two-group batch queues its bfs group, then finds no room for
        # its sssp group and is refused whole
        from repro.service.api import server as front_door
        from repro.service.routing import RoutingPolicy, TenantQuota

        monkeypatch.setattr(front_door, "DEFAULT_ADMISSION_WAIT_S", 0.2)
        gate = threading.Event()
        policy = RoutingPolicy(quotas={"t": TenantQuota(rate=1.0, burst=100.0)})
        with AnalyticsService(
            GraphCatalog(), workers=1, queue_size=2, policy=policy
        ) as svc:
            svc.register("g", powerlaw_graph)
            prepared, original = [], svc._prepare

            def stalled(graph, algorithm):
                prepared.append(algorithm)
                gate.wait(30.0)
                return original(graph, algorithm)

            svc._prepare = stalled
            charges, try_admit = [], svc.policy.try_admit

            def counted(tenant):
                charges.append(tenant)
                return try_admit(tenant)

            svc.policy.try_admit = counted
            stuck = svc.submit(QueryRequest("cc", "g"))
            time.sleep(0.05)  # the worker picks it up and stalls
            queued = svc.submit(QueryRequest("pr", "g"), block=False)
            body = "".join(
                json.dumps({"type": "request", "id": i, "algorithm": algorithm,
                            "graph": "g", "sources": [0], "tenant": "t"}) + "\n"
                for i, algorithm in ((1, "bfs"), (2, "sssp"))
            ).encode()
            try:
                with ThreadedApiServer(svc) as handle:
                    status, headers, payload = _raw_request(
                        handle.address, "POST", "/v1/batch", body=body,
                        headers={"Content-Type": "application/x-ndjson"},
                    )
                    gate.set()
            finally:
                gate.set()
            assert stuck.result(60.0).ok and queued.result(60.0).ok
            assert svc.drain(60.0)
        assert status == 503 and int(headers["retry-after"]) >= 1
        assert json.loads(payload)["error"]["type"] == "overloaded"
        assert charges.count("t") == 2  # one token per member, once
        assert prepared.count("bfs") <= 1 and prepared.count("sssp") == 0


class TestConnectionThreads:
    """One thread per connection, at most MAX_CONNECTIONS of them, and
    none outlives its client or the server."""

    def test_a_connection_past_the_cap_gets_503_and_is_closed(
        self, service, monkeypatch
    ):
        from repro.service.api import server as front_door

        monkeypatch.setattr(front_door, "MAX_CONNECTIONS", 2)
        with ThreadedApiServer(service) as handle:
            held = [_keep_alive(handle.address) for _ in range(2)]
            try:
                host, _, port = handle.address.rpartition(":")
                with socket.create_connection((host, int(port)), timeout=5) as extra:
                    received = b""
                    while chunk := extra.recv(4096):
                        received += chunk
                head, _, body = received.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 503 ")
                assert b"Retry-After: " in head
                assert json.loads(body)["error"]["type"] == "overloaded"
            finally:
                held.pop().close()
            # the closed client's thread is released: a new one is served
            assert _wait_for(lambda: len(handle._connections) == 1)
            assert _raw_request(handle.address, "GET", "/v1/healthz")[0] == 200
            held[0].close()

    def test_stalled_and_idle_clients_release_their_threads(
        self, service, monkeypatch
    ):
        from repro.service.api import http as transport

        monkeypatch.setattr(transport, "READ_TIMEOUT_S", 0.2)
        with ThreadedApiServer(service) as handle:
            host, _, port = handle.address.rpartition(":")
            with socket.create_connection((host, int(port)), timeout=5) as stalled, \
                    socket.create_connection((host, int(port)), timeout=5) as idle:
                stalled.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Le")
                assert _wait_for(lambda: len(handle._connections) == 2)
                threads = list(handle._connections.values())
                assert _wait_for(lambda: not any(t.is_alive() for t in threads))
                assert handle._connections == {}
                assert stalled.recv(4096).startswith(b"HTTP/1.1 408 ")
                assert idle.recv(4096) == b""


    def test_keep_alive_requests_share_one_thread_without_nagle(
        self, service, monkeypatch
    ):
        seen = []
        original = ThreadedApiServer._serve

        def recording(self, sock, out, client):
            seen.append(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
            return original(self, sock, out, client)

        monkeypatch.setattr(ThreadedApiServer, "_serve", recording)
        with ThreadedApiServer(service) as handle:
            with HttpReplayClient(handle.address) as client:
                for source in range(3):
                    assert client.query(
                        {"algorithm": "bfs", "graph": "g", "sources": [source]}
                    )["ok"]
                assert len(handle._connections) == 1
        assert len(seen) == 1 and seen[0] != 0

    def test_concurrent_clients_are_all_answered_and_released(self, service):
        # more client threads than cores, on fresh and reused connections,
        # with a short switch interval: the connection table must end empty
        statuses, errors = [], []

        def client(address):
            try:
                with HttpReplayClient(address) as replay:
                    for source in range(4):
                        statuses.append(replay.query(
                            {"algorithm": "bfs", "graph": "g", "sources": [source]}
                        )["ok"])
                statuses.append(_raw_request(address, "GET", "/v1/healthz")[0] == 200)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadedApiServer(service) as handle:
                threads = [threading.Thread(target=client, args=(handle.address,))
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert _wait_for(lambda: handle._connections == {})
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and statuses == [True] * 40


class TestStop:
    def test_stop_with_an_idle_keep_alive_client(self, service):
        handle = ThreadedApiServer(service).start()
        host, _, port = handle.address.rpartition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request("GET", "/v1/healthz")
            assert conn.getresponse().read()
            # and one client stopped mid-request
            stalled = socket.create_connection((host, int(port)), timeout=5)
            stalled.sendall(b"POST /v1/query HTTP/1.1\r\nContent-Le")
            assert _wait_for(
                lambda: len(handle._connections) == 2)
            threads = list(handle._connections.values())
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 5.0
            stalled.close()
        finally:
            conn.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not any(t.name == "repro-api" for t in threading.enumerate())

    def test_stop_lets_an_in_flight_batch_finish(self, powerlaw_graph):
        # graceful drain: the listener closes, the gated batch still
        # resolves, and its connection writes every line before it closes
        gate, entered = threading.Event(), threading.Event()
        with AnalyticsService(GraphCatalog(), workers=1) as svc:
            svc.register("g", powerlaw_graph)
            original = svc._prepare

            def gated(graph, algorithm):
                entered.set()
                gate.wait(30.0)
                return original(graph, algorithm)

            svc._prepare = gated
            handle = ThreadedApiServer(svc).start()
            lines = []

            def client():
                with HttpReplayClient(handle.address) as replay:
                    lines.extend(payload for payload, _ in replay.batch_lines([
                        json.dumps({"type": "request", "id": s, "algorithm": "bfs",
                                    "graph": "g", "sources": [s]})
                        for s in range(2)
                    ]))

            reader = threading.Thread(target=client)
            try:
                reader.start()
                assert entered.wait(30.0)  # the batch is admitted and in flight
                threading.Timer(0.2, gate.set).start()
                handle.stop()
                reader.join(30.0)
            finally:
                gate.set()
            assert sorted(line["id"] for line in lines) == [0, 1]
            assert all(line["ok"] for line in lines)
            assert handle._connections == {}

    def test_sigterm_exits_while_a_keep_alive_client_is_idle(self, tmp_path):
        ready = tmp_path / "ready"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "pokec", "--scale", "0.1",
             "--workers", "1", "--http", "127.0.0.1:0",
             "--http-ready-file", str(ready)],
            stdout=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists() and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            with _keep_alive(ready.read_text().strip()):
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(10) == 0
        finally:
            proc.kill()
            proc.wait()


class TestMetricsEndpoint:
    def test_http_counters_advance(self, client):
        before = client.metrics()
        assert client.query(
            {"algorithm": "bfs", "graph": "g", "sources": [0]}
        )["ok"]
        with pytest.raises(HttpStatusError):
            client.query({"algorithm": "bfs", "graph": "nope"})
        after = client.metrics()
        assert after["http_requests"] >= before["http_requests"] + 2
        assert after["http_2xx"] >= before["http_2xx"] + 1
        assert after["http_4xx"] >= before["http_4xx"] + 1
        assert after["http_bytes_sent"] > before["http_bytes_sent"]
        assert after["http_p95_ms"] >= after["http_p50_ms"] >= 0.0


class TestGoldenTraceOverHttp:
    """The end-to-end parity gate the http-smoke CI job enforces."""

    @pytest.fixture(scope="class")
    def mixed_setup(self):
        trace = load_trace(MIXED_TRACE)
        graphs = resolve_trace_graphs(trace)
        with AnalyticsService(GraphCatalog(), workers=2) as svc:
            for name, graph in graphs.items():
                svc.register(name, graph)
            with ThreadedApiServer(svc) as handle:
                yield trace, handle

    def test_replay_matches_every_digest(self, mixed_setup):
        trace, handle = mixed_setup
        report = replay_trace_http(trace, handle.address, batch=8)
        assert report.ok, "\n".join(str(m) for m in report.mismatches)
        assert report.digests_checked == len(trace.results)
        assert report.requests_submitted == len(trace.requests)

    def test_single_query_window_matches_too(self, mixed_setup):
        trace, handle = mixed_setup
        report = replay_trace_http(trace, handle.address, batch=1)
        assert report.ok
        assert report.digests_checked == len(trace.results)

    def test_verify_graphs_catches_missing(self, mixed_setup, server):
        trace, _handle = mixed_setup
        # `server` fronts a service registered with "g", not the
        # trace's graphs: the pre-check must name what is missing
        with HttpReplayClient(server.address) as client:
            problems = verify_graphs(client, trace)
        assert problems
        assert any("not registered" in p for p in problems)

    def test_recorded_http_traffic_replays_in_process(self, mixed_setup):
        # the round trip: traffic served over HTTP is recorded by the
        # service-side recorder, and the capture replays in-process
        # with identical digests (both sides speak trace-v1)
        from repro.service import replay_trace

        trace, handle = mixed_setup
        sink = io.StringIO()
        recorder = TraceRecorder(sink, graphs=trace.header.graphs)
        service = handle.service
        service.attach_recorder(recorder)
        try:
            report = replay_trace_http(trace, handle.address, batch=8)
            assert report.ok
        finally:
            service.detach_recorder()
        captured = load_trace(io.StringIO(sink.getvalue()))
        assert len(captured.requests) == len(trace.requests)
        replayed = replay_trace(
            captured, graphs=resolve_trace_graphs(trace), workers=2
        )
        assert replayed.ok
        assert replayed.digests_checked == len(captured.results)

