"""HTTP front door: wire parity, streaming, auth, limits, errors."""

import http.client
import io
import json
import socket
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
    resolve_trace_graphs,
    result_digest,
)
from repro.service.api import (
    HttpReplayClient,
    HttpStatusError,
    RateLimit,
    ThreadedApiServer,
    replay_trace_http,
    verify_graphs,
)

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

    def test_batch_line_error_names_the_line(self, server):
        body = b'{"type": "request", "algorithm": "bfs", "graph": "g"}\n{nope\n'
        status, _, payload = _raw_request(
            server.address, "POST", "/v1/batch", body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        assert status == 400
        assert "line 2" in json.loads(payload)["error"]["message"]

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
        limiter = RateLimit(2.0, 2, clock=lambda: now[0])
        assert limiter._take("k") == 0.0
        assert limiter._take("k") == 0.0
        wait = limiter._take("k")  # bucket empty
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert limiter._take("k") == 0.0
        assert limiter._take("other") == 0.0  # separate bucket per key

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

    def test_invalid_parameters_rejected(self):
        # the same check as TenantQuota's, so the same typed error
        with pytest.raises(ServiceError, match="rate"):
            RateLimit(0.0, 4)
        with pytest.raises(ServiceError, match="burst"):
            RateLimit(1.0, 0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ServiceError, match="finite rate"):
                RateLimit(rate, 16)


class TestOverload:
    def test_full_queue_is_503(self, powerlaw_graph):
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
                with ThreadedApiServer(
                    svc, admission_wait_s=0.05
                ) as handle:
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
            finally:
                gate.set()
            assert stuck.result(60.0).ok and queued.result(60.0).ok


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
        service = handle.server.service
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

