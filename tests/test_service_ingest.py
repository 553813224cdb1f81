"""Trace format: parse/format round-trips, reader sources, recorder."""

import io
import json
import socketserver
import threading

import numpy as np
import pytest

from repro.errors import TraceFormatError, TraceVersionError
from repro.service import (
    TRACE_VERSION,
    AnalyticsService,
    QueryRequest,
    TraceReader,
    TraceRecorder,
    dataset_graph_entry,
    load_trace,
    result_digest,
)
from repro.service.ingest import (
    TraceHeader,
    TraceRequest,
    TraceResult,
    format_trace_line,
    parse_trace_line,
)
from repro.service.query import QueryResult


HEADER_LINE = json.dumps(
    {"type": "header", "version": TRACE_VERSION, "graphs": {}}
)
REQUEST_LINE = json.dumps(
    {
        "type": "request", "id": 1, "algorithm": "bfs", "graph": "g",
        "sources": [0], "transform": "udt", "k": 0,
        "timeout_s": None, "delta_s": 0.5,
    }
)
RESULT_LINE = json.dumps(
    {"type": "result", "id": 1, "digest": "sha256:00", "ok": True}
)


class TestParseLine:
    def test_blank_and_comment_lines_are_none(self):
        assert parse_trace_line("") is None
        assert parse_trace_line("   \n") is None
        assert parse_trace_line("# a comment") is None

    def test_header_round_trip(self):
        header = TraceHeader(
            graphs={"g": dataset_graph_entry("pokec", scale=0.5)},
            note="hi",
        )
        parsed = parse_trace_line(format_trace_line(header))
        assert parsed == header

    def test_request_round_trip(self):
        request = TraceRequest(
            trace_id=3, algorithm="sssp", graph="g", sources=(4, 5),
            transform="virtual", degree_bound=8, timeout_s=1.5,
            delta_s=0.25,
        )
        parsed = parse_trace_line(format_trace_line(request))
        assert parsed == request

    def test_result_round_trip(self):
        result = TraceResult(
            trace_id=3, digest="sha256:ab", ok=False,
            error="timed out in queue", transform="none",
            degraded=True, cache_hit=False, elapsed_s=0.125,
        )
        parsed = parse_trace_line(format_trace_line(result))
        assert parsed == result

    def test_request_defaults(self):
        parsed = parse_trace_line(
            '{"type": "request", "id": 1, "algorithm": "pr", "graph": "g"}'
        )
        assert parsed.sources == ()
        assert parsed.transform == "auto"
        assert parsed.timeout_s is None
        assert parsed.delta_s == 0.0

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2, 3]",
            '{"type": "frobnicate"}',
            '{"type": "request", "id": 1, "graph": "g"}',
            '{"type": "request", "id": 1, "algorithm": "dijkstra", "graph": "g"}',
            '{"type": "request", "id": 1, "algorithm": "bfs", "graph": ""}',
            '{"type": "request", "id": 1, "algorithm": "bfs", "graph": "g",'
            ' "sources": ["a"]}',
            '{"type": "request", "id": 1, "algorithm": "bfs", "graph": "g",'
            ' "transform": "cliq"}',
            '{"type": "request", "id": 1, "algorithm": "bfs", "graph": "g",'
            ' "timeout_s": 0}',
            '{"type": "request", "id": 1, "algorithm": "bfs", "graph": "g",'
            ' "delta_s": -1}',
            '{"type": "result", "id": 1}',
            '{"type": "result", "id": 1, "digest": "nocolon"}',
            '{"type": "header"}',
        ],
    )
    def test_malformed_lines_raise_typed_error(self, text):
        with pytest.raises(TraceFormatError):
            parse_trace_line(text)

    def test_error_carries_line_and_source(self):
        with pytest.raises(TraceFormatError, match=r"t\.jsonl:7"):
            parse_trace_line("{oops", line=7, source="t.jsonl")

    def test_unsupported_version(self):
        with pytest.raises(TraceVersionError) as excinfo:
            parse_trace_line('{"type": "header", "version": 99}')
        assert excinfo.value.found == 99
        assert excinfo.value.supported == TRACE_VERSION
        # it is also a TraceFormatError, so one except clause catches both
        assert isinstance(excinfo.value, TraceFormatError)


class TestTraceReader:
    def _text(self, *lines):
        return "\n".join(lines) + "\n"

    def test_reads_from_file_object(self):
        stream = io.StringIO(self._text(HEADER_LINE, REQUEST_LINE, RESULT_LINE))
        with TraceReader(stream) as reader:
            events = list(reader)
        assert isinstance(events[0], TraceHeader)
        assert isinstance(events[1], TraceRequest)
        assert isinstance(events[2], TraceResult)
        assert reader.header == events[0]
        assert reader.lines_read == 3

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._text(HEADER_LINE, REQUEST_LINE))
        with TraceReader(str(path)) as reader:
            assert len(list(reader)) == 2

    def test_reads_from_tcp_socket(self):
        payload = self._text(HEADER_LINE, REQUEST_LINE, RESULT_LINE).encode()

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.sendall(payload)

        with socketserver.TCPServer(("127.0.0.1", 0), Handler) as server:
            port = server.server_address[1]
            thread = threading.Thread(target=server.handle_request)
            thread.start()
            try:
                with TraceReader(f"tcp://127.0.0.1:{port}") as reader:
                    events = list(reader)
            finally:
                thread.join()
        assert len(events) == 3
        assert isinstance(events[1], TraceRequest)

    def test_bad_socket_url(self):
        with pytest.raises(TraceFormatError, match="tcp://host:port"):
            TraceReader("tcp://noport")

    def test_missing_file(self):
        with pytest.raises(TraceFormatError, match="cannot open"):
            TraceReader("/nonexistent/trace.jsonl")

    def test_unknown_policy(self):
        with pytest.raises(TraceFormatError, match="policy"):
            TraceReader(io.StringIO(""), on_malformed="ignore")

    def test_strict_raises_with_line_number(self):
        stream = io.StringIO(self._text(HEADER_LINE, "{broken"))
        with pytest.raises(TraceFormatError, match=":2"):
            list(TraceReader(stream))

    def test_skip_counts_and_continues(self):
        stream = io.StringIO(
            self._text(HEADER_LINE, "{broken", REQUEST_LINE, "also broken")
        )
        reader = TraceReader(stream, on_malformed="skip")
        events = list(reader)
        assert len(events) == 2
        assert reader.lines_skipped == 2

    def test_version_error_raised_even_under_skip(self):
        stream = io.StringIO(
            self._text('{"type": "header", "version": 99}', REQUEST_LINE)
        )
        with pytest.raises(TraceVersionError):
            list(TraceReader(stream, on_malformed="skip"))

    def test_header_must_be_first(self):
        stream = io.StringIO(self._text(REQUEST_LINE, HEADER_LINE))
        with pytest.raises(TraceFormatError, match="first event"):
            list(TraceReader(stream))

    def test_headerless_trace_is_current_version(self):
        trace = load_trace(io.StringIO(self._text(REQUEST_LINE)))
        assert trace.header.version == TRACE_VERSION
        assert len(trace.requests) == 1
        assert not trace.has_digests

    def test_does_not_close_caller_stream(self):
        stream = io.StringIO(self._text(HEADER_LINE))
        with TraceReader(stream) as reader:
            list(reader)
        assert not stream.closed

    def test_load_trace_keys_results_by_id(self):
        trace = load_trace(
            io.StringIO(self._text(HEADER_LINE, REQUEST_LINE, RESULT_LINE))
        )
        assert trace.has_digests
        assert trace.results[1].digest == "sha256:00"
        assert trace.requests[0].trace_id == 1


class TestToQueryRequest:
    def test_round_trip_fields(self):
        record = TraceRequest(
            trace_id=9, algorithm="sssp", graph="g", sources=(1, 2),
            transform="udt", degree_bound=4, timeout_s=2.0,
        )
        request = record.to_query_request()
        assert request.algorithm == "sssp"
        assert request.graph == "g"
        assert request.sources == (1, 2)
        assert request.transform == "udt"
        assert request.degree_bound == 4
        assert request.timeout_s == 2.0

    def test_graph_override(self):
        record = TraceRequest(trace_id=1, algorithm="pr", graph="old")
        assert record.to_query_request("new").graph == "new"


class TestResultDigest:
    def _result(self, values, error=None):
        return QueryResult(
            request_id=1, algorithm="bfs", values=values,
            transform="none", degree_bound=0, error=error,
        )

    def test_deterministic(self):
        values = {0: np.arange(5, dtype=np.int64)}
        assert result_digest(self._result(values)) == result_digest(
            self._result({0: np.arange(5, dtype=np.int64)})
        )

    def test_covers_values(self):
        a = result_digest(self._result({0: np.array([1, 2, 3])}))
        b = result_digest(self._result({0: np.array([1, 2, 4])}))
        assert a != b

    def test_covers_dtype(self):
        a = result_digest(self._result({0: np.array([1], dtype=np.int32)}))
        b = result_digest(self._result({0: np.array([1], dtype=np.int64)}))
        assert a != b

    def test_covers_error_text(self):
        a = result_digest(self._result({}, error="timed out in queue"))
        b = result_digest(self._result({}, error="cancelled"))
        assert a != b

    def test_source_order_insensitive(self):
        one = {0: np.array([1]), 5: np.array([2])}
        two = {5: np.array([2]), 0: np.array([1])}
        assert result_digest(self._result(one)) == result_digest(
            self._result(two)
        )

    def test_prefix(self):
        assert result_digest(self._result({})).startswith("sha256:")


class TestTraceRecorder:
    def test_header_written_on_attach(self):
        sink = io.StringIO()
        TraceRecorder(sink, graphs={"g": {"dataset": "pokec"}}, note="n")
        first = json.loads(sink.getvalue().splitlines()[0])
        assert first["type"] == "header"
        assert first["version"] == TRACE_VERSION
        assert first["graphs"] == {"g": {"dataset": "pokec"}}
        assert first["note"] == "n"

    def test_capture_through_service(self, powerlaw_graph):
        sink = io.StringIO()
        recorder = TraceRecorder(sink)
        with AnalyticsService(
            workers=2, recorder=recorder
        ) as service:
            service.register("g", powerlaw_graph)
            requests = [
                QueryRequest.single("bfs", "g", s, transform="udt")
                for s in (0, 1, 2, 3)
            ]
            tickets = service.submit_batch(requests)
            results = [t.result(60.0) for t in tickets]
            assert all(r.ok for r in results)
            summary = service.metrics.summary()
            assert summary["trace_requests"] == 4
            assert summary["trace_results"] == 4
        assert recorder.requests_recorded == 4
        assert recorder.results_recorded == 4
        trace = load_trace(io.StringIO(sink.getvalue()))
        assert [r.sources for r in trace.requests] == [(0,), (1,), (2,), (3,)]
        for request, result in zip(requests, results):
            assert trace.results[request.request_id].digest == result_digest(
                result
            )

    def test_detach_stops_capture(self, powerlaw_graph):
        sink = io.StringIO()
        recorder = TraceRecorder(sink)
        with AnalyticsService(workers=1) as service:
            service.register("g", powerlaw_graph)
            service.attach_recorder(recorder)
            assert service.run(QueryRequest.single("bfs", "g", 0)).ok
            service.detach_recorder(recorder)
            assert service.run(QueryRequest.single("bfs", "g", 1)).ok
        assert recorder.requests_recorded == 1
        assert recorder.results_recorded == 1

    def test_thread_safe_interleaving(self):
        sink = io.StringIO()
        recorder = TraceRecorder(sink)

        def hammer(base):
            for i in range(25):
                request = QueryRequest.single("bfs", "g", 0)
                recorder.record_request(request, graph_name="g")
                recorder.record_result(
                    request,
                    QueryResult(
                        request_id=request.request_id, algorithm="bfs",
                        values={0: np.array([base + i])},
                        transform="none", degree_bound=0,
                    ),
                )

        threads = [
            threading.Thread(target=hammer, args=(t * 100,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every line must still be valid JSON (no torn writes), and the
        # stream must load as a complete trace
        trace = load_trace(io.StringIO(sink.getvalue()))
        assert len(trace.requests) == 100
        assert len(trace.results) == 100
        assert recorder.requests_recorded == 100

    def test_deltas_nonnegative_and_ordered(self):
        sink = io.StringIO()
        recorder = TraceRecorder(sink)
        for s in range(3):
            recorder.record_request(
                QueryRequest.single("bfs", "g", s), graph_name="g"
            )
        trace = load_trace(io.StringIO(sink.getvalue()))
        assert trace.requests[0].delta_s == 0.0
        assert all(r.delta_s >= 0 for r in trace.requests)

    def test_owns_path_sink(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        with TraceRecorder(str(path)) as recorder:
            recorder.record_request(
                QueryRequest.single("bfs", "g", 0), graph_name="g"
            )
        trace = load_trace(str(path))
        assert len(trace.requests) == 1


class TestDatasetGraphEntry:
    def test_minimal(self):
        entry = dataset_graph_entry("pokec")
        assert entry == {"dataset": "pokec", "scale": 1.0, "weighted": True}

    def test_full(self):
        entry = dataset_graph_entry(
            "pokec", scale=2.0, weighted=False, seed=5, fingerprint="ab"
        )
        assert entry["seed"] == 5
        assert entry["fingerprint"] == "ab"


class TestSocketDisconnectHardening:
    """A peer dying mid-record must hit the malformed policy, not
    escape as a raw decode error (``tcp://`` sources only — a file's
    last line may legitimately lack a newline)."""

    def _serve(self, payload: bytes):
        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.sendall(payload)

        server = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.handle_request)
        thread.start()
        return server, thread

    def _read_all(self, payload, *, on_malformed):
        server, thread = self._serve(payload)
        port = server.server_address[1]
        try:
            with TraceReader(
                f"tcp://127.0.0.1:{port}", on_malformed=on_malformed
            ) as reader:
                return list(reader), reader
        finally:
            thread.join()
            server.server_close()

    def test_truncated_final_line_skips(self):
        payload = (HEADER_LINE + "\n" + REQUEST_LINE + "\n").encode()
        payload += RESULT_LINE[: len(RESULT_LINE) // 2].encode()  # cut mid-record
        events, reader = self._read_all(payload, on_malformed="skip")
        assert len(events) == 2  # header + request survived
        assert reader.lines_skipped == 1

    def test_truncated_final_line_strict(self):
        payload = (HEADER_LINE + "\n").encode() + REQUEST_LINE[:10].encode()
        server, thread = self._serve(payload)
        port = server.server_address[1]
        try:
            with TraceReader(f"tcp://127.0.0.1:{port}") as reader:
                with pytest.raises(TraceFormatError, match="truncated final line"):
                    list(reader)
        finally:
            thread.join()
            server.server_close()

    def test_undecodable_line_skips(self):
        # a line cut inside a multi-byte UTF-8 sequence, then re-joined
        # with later traffic: invalid bytes, but newline-terminated
        payload = (HEADER_LINE + "\n").encode()
        payload += b'{"type": "request\xc3\x28"}\n'
        payload += (REQUEST_LINE + "\n").encode()
        events, reader = self._read_all(payload, on_malformed="skip")
        assert len(events) == 2
        assert reader.lines_skipped == 1
        assert isinstance(events[1], TraceRequest)

    def test_undecodable_line_strict(self):
        payload = (HEADER_LINE + "\n").encode() + b"\xff\xfe\n"
        server, thread = self._serve(payload)
        port = server.server_address[1]
        try:
            with TraceReader(f"tcp://127.0.0.1:{port}") as reader:
                with pytest.raises(TraceFormatError, match="not valid UTF-8"):
                    list(reader)
        finally:
            thread.join()
            server.server_close()

    def test_file_final_line_without_newline_still_parses(self, tmp_path):
        # the policy is socket-specific: a file ending without a
        # trailing newline is ordinary and must keep parsing
        path = tmp_path / "t.jsonl"
        path.write_text(HEADER_LINE + "\n" + REQUEST_LINE)  # no final \n
        with TraceReader(str(path)) as reader:
            events = list(reader)
        assert len(events) == 2
        assert reader.lines_skipped == 0


class TestRecorderSwapUnderLoad:
    """Swapping recorders mid-stream must never drop or double-record
    a result: attach replaces atomically, so every resolution lands in
    exactly one sink."""

    def test_attach_detach_swap_exactly_once(self, powerlaw_graph):
        sinks = [io.StringIO(), io.StringIO()]
        recorders = [TraceRecorder(sink) for sink in sinks]
        stop = threading.Event()

        with AnalyticsService(workers=2) as service:
            service.register("g", powerlaw_graph)
            service.attach_recorder(recorders[0])

            def swapper():
                flip = 0
                while not stop.is_set():
                    flip += 1
                    service.attach_recorder(recorders[flip % 2])

            thread = threading.Thread(target=swapper)
            thread.start()
            try:
                requests = [
                    QueryRequest.single("bfs", "g", s % 16) for s in range(64)
                ]
                tickets = service.submit_batch(requests)
                results = [t.result(60.0) for t in tickets]
            finally:
                stop.set()
                thread.join()
            service.detach_recorder()
            assert all(r.ok for r in results)

        recorded_ids = []
        for sink in sinks:
            trace = load_trace(io.StringIO(sink.getvalue()))
            recorded_ids.extend(trace.results)
        # exactly once across the union of sinks: nothing dropped
        # (every request resolved with some recorder attached) and
        # nothing doubled (one resolution hook, one attached recorder)
        assert sorted(recorded_ids) == sorted(r.request_id for r in requests)

    def test_detach_specific_recorder_only_if_attached(self, powerlaw_graph):
        first, second = TraceRecorder(io.StringIO()), TraceRecorder(io.StringIO())
        with AnalyticsService(workers=1) as service:
            service.register("g", powerlaw_graph)
            service.attach_recorder(first)
            service.attach_recorder(second)  # replaces first
            service.detach_recorder(first)   # no-op: first not attached
            assert service.run(QueryRequest.single("bfs", "g", 0)).ok
        assert second.results_recorded == 1
        assert first.results_recorded == 0
