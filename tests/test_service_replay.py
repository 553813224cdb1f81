"""Replay harness: golden traces, round-trips, graph resolution."""

import io
from pathlib import Path

import pytest

from repro.errors import ServiceError, TraceFormatError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    QueryRequest,
    TraceRecorder,
    dataset_graph_entry,
    load_trace,
    record_trace,
    replay_trace,
    resolve_trace_graphs,
)
from repro.service.ingest import Trace, TraceHeader, TraceRequest, TraceResult
from repro.service.metrics import CATALOG_KEYS

TRACES = Path(__file__).parent / "traces"
GOLDEN = sorted(p.name for p in TRACES.glob("*.jsonl"))


class TestGoldenTraces:
    """Every checked-in trace must replay digest-clean on both backends.

    These are the suite's broadest regression nets: a change anywhere
    in the algorithm/transform/serving stack that alters an answer
    fails here with the exact request that diverged.
    """

    @pytest.mark.parametrize("name", GOLDEN)
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_replays_clean(self, name, backend):
        report = replay_trace(
            str(TRACES / name), backend=backend, workers=2
        )
        assert report.digests_checked == report.requests_submitted
        assert report.ok, "\n".join(str(m) for m in report.mismatches)
        assert report.digests_missing == 0

    def test_fixtures_exist(self):
        assert {"bfs-heavy.jsonl", "mixed.jsonl", "degraded.jsonl"} <= set(
            GOLDEN
        )

    def test_loop_replays_every_pass(self):
        report = replay_trace(
            str(TRACES / "bfs-heavy.jsonl"), workers=2, loop=2, batch=4
        )
        assert report.loops == 2
        assert report.requests_submitted == 32
        assert report.digests_checked == 32
        assert report.ok

    def test_replay_counters_land_in_metrics(self):
        with AnalyticsService(workers=2) as service:
            report = replay_trace(
                str(TRACES / "mixed.jsonl"), service=service
            )
            assert report.ok
            summary = service.metrics.summary()
            assert summary["replay_digests_checked"] == report.digests_checked
            assert summary["replay_digest_mismatches"] == 0

    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("name", GOLDEN)
    def test_summary_does_not_depend_on_the_backend(self, name, shards):
        # every place's counts land in the one table the dispatcher keeps,
        # so a trace reads the same on both backends; the rows that
        # legitimately differ, and why:
        differs = {
            # frame bytes both ways: 0 on threads, and the reply frames
            # carry measured seconds whose printed length varies
            "ipc_bytes",
            # gauges of how far submission ran ahead of the dispatchers
            "queue_depth", "max_queue_depth",
            # deadlines are wall time: a slower place answers more
            # requests after theirs (degraded.jsonl's 0.1 s one)
            "queries_timed_out",
        }
        # plus ``kernel_*`` (process-wide: a local host counts its own
        # launches) and the ``*_ms`` latencies
        summaries = {}
        for backend in ("threads", "processes"):
            with AnalyticsService(workers=2, backend=backend, shards=shards) as service:
                report = replay_trace(str(TRACES / name), service=service)
                summary = service.metrics.summary()
            assert report.ok, report.mismatches
            summaries[backend] = {
                key: value for key, value in summary.items()
                if key not in differs and not key.startswith("kernel_")
                and not key.endswith("_ms")
            }
        assert summaries["threads"] == summaries["processes"]
        # cache_hits is cache_hit_rate x queries_total
        assert {"queries_total", "queries_failed", "queries_degraded",
                "cache_hit_rate", *CATALOG_KEYS} <= set(summaries["threads"])


class TestRoundTrip:
    """Record fresh traffic, replay it, expect zero mismatches."""

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_record_then_replay(self, powerlaw_graph, backend):
        sink = io.StringIO()
        requests = [
            QueryRequest.single("bfs", "g", s, transform="udt")
            for s in range(6)
        ] + [QueryRequest("pr", "g", transform="virtual")]
        with AnalyticsService(workers=2) as service:
            service.register("g", powerlaw_graph)
            recorder = record_trace(service, sink)
            tickets = service.submit_batch(requests)
            assert all(t.result(60.0).ok for t in tickets)
            service.detach_recorder(recorder)
        recorder.close()

        trace = load_trace(io.StringIO(sink.getvalue()))
        report = replay_trace(
            trace, backend=backend, workers=2, graphs={"g": powerlaw_graph}
        )
        assert report.requests_submitted == 7
        assert report.digests_checked == 7
        assert report.ok, "\n".join(str(m) for m in report.mismatches)

    def test_rerecord_while_replaying(self, powerlaw_graph):
        first = io.StringIO()
        with AnalyticsService(workers=2) as service:
            service.register("g", powerlaw_graph)
            recorder = record_trace(service, first)
            tickets = service.submit_batch(
                [QueryRequest.single("bfs", "g", s) for s in range(4)]
            )
            assert all(t.result(60.0).ok for t in tickets)
            service.detach_recorder(recorder)
        recorder.close()

        second = io.StringIO()
        report = replay_trace(
            load_trace(io.StringIO(first.getvalue())),
            workers=2,
            graphs={"g": powerlaw_graph},
            recorder=TraceRecorder(second),
        )
        assert report.ok
        rerecorded = load_trace(io.StringIO(second.getvalue()))
        assert len(rerecorded.requests) == 4
        original = load_trace(io.StringIO(first.getvalue()))
        by_sources = {r.sources: r for r in original.requests}
        for request in rerecorded.requests:
            twin = by_sources[request.sources]
            assert (
                rerecorded.results[request.trace_id].digest
                == original.results[twin.trace_id].digest
            )

    def test_mismatch_reported_not_raised(self, powerlaw_graph):
        sink = io.StringIO()
        with AnalyticsService(workers=1) as service:
            service.register("g", powerlaw_graph)
            recorder = record_trace(service, sink)
            assert service.run(QueryRequest.single("bfs", "g", 0)).ok
            service.detach_recorder(recorder)
        recorder.close()
        text = sink.getvalue()
        trace = load_trace(io.StringIO(text))
        # corrupt the recorded digest: replay must *report* the diff
        trace_id = trace.requests[0].trace_id
        trace.results[trace_id] = TraceResult(
            trace_id=trace_id, digest="sha256:" + "0" * 64
        )
        report = replay_trace(trace, workers=1, graphs={"g": powerlaw_graph})
        assert not report.ok
        assert len(report.mismatches) == 1
        mismatch = report.mismatches[0]
        assert mismatch.trace_id == trace_id
        assert mismatch.algorithm == "bfs"
        assert "expected sha256:000" in str(mismatch)
        assert report.summary()["digests_mismatched"] == 1
        assert "MISMATCH" in report.to_text()

    def test_verify_off_counts_nothing(self, powerlaw_graph):
        report = replay_trace(
            str(TRACES / "bfs-heavy.jsonl"), workers=2, verify=False
        )
        assert report.digests_checked == 0
        assert report.ok


class TestResolveTraceGraphs:
    def _trace(self, graphs, requests=()):
        return Trace(
            header=TraceHeader(graphs=graphs),
            requests=list(requests),
            results={},
        )

    def test_dataset_recipe_regenerates(self):
        trace = self._trace(
            {"p": dataset_graph_entry("pokec", scale=0.1)},
            [TraceRequest(trace_id=1, algorithm="pr", graph="p")],
        )
        graphs = resolve_trace_graphs(trace)
        assert graphs["p"].num_nodes > 0

    def test_fingerprint_drift_is_typed_error(self):
        trace = self._trace(
            {
                "p": dataset_graph_entry(
                    "pokec", scale=0.1, fingerprint="beef" * 16
                )
            },
            [TraceRequest(trace_id=1, algorithm="pr", graph="p")],
        )
        with pytest.raises(TraceFormatError, match="re-record"):
            resolve_trace_graphs(trace)

    def test_override_wins_over_recipe(self):
        graph = rmat(50, 200, seed=3)
        trace = self._trace(
            {"p": dataset_graph_entry("pokec", scale=0.1)},
            [TraceRequest(trace_id=1, algorithm="pr", graph="p")],
        )
        graphs = resolve_trace_graphs(trace, overrides={"p": graph})
        assert graphs["p"] is graph

    def test_referenced_graph_without_recipe(self):
        trace = self._trace(
            {"p": {"fingerprint": "ab"}},
            [TraceRequest(trace_id=1, algorithm="pr", graph="p")],
        )
        with pytest.raises(TraceFormatError, match="no reconstruction"):
            resolve_trace_graphs(trace)

    def test_unknown_reference(self):
        trace = self._trace(
            {}, [TraceRequest(trace_id=1, algorithm="pr", graph="ghost")]
        )
        with pytest.raises(ServiceError, match="ghost"):
            resolve_trace_graphs(trace)

    def test_npz_recipe_loads(self, tmp_path, powerlaw_graph):
        from repro.graph.io import save_npz

        path = tmp_path / "g.npz"
        save_npz(powerlaw_graph, path)
        trace = self._trace(
            {
                "g": {
                    "path": str(path),
                    "fingerprint": powerlaw_graph.fingerprint(),
                }
            },
            [TraceRequest(trace_id=1, algorithm="pr", graph="g")],
        )
        graphs = resolve_trace_graphs(trace)
        assert graphs["g"].num_nodes == powerlaw_graph.num_nodes


class TestReplayValidation:
    def test_bad_loop(self):
        with pytest.raises(ServiceError, match="loop"):
            replay_trace(str(TRACES / "mixed.jsonl"), loop=0)

    def test_bad_batch(self):
        with pytest.raises(ServiceError, match="batch"):
            replay_trace(str(TRACES / "mixed.jsonl"), batch=0)

    def test_bad_speed(self):
        with pytest.raises(ServiceError, match="speed"):
            replay_trace(str(TRACES / "mixed.jsonl"), speed=-1)
