"""Outside-in layer walk: time each layer's public functions per request.

The traced run replays the first operations of a workload's stream
through the pipeline the server runs — ``read_request`` -> protocol
parse -> ``group_requests`` -> prepare -> ``plan_query`` -> catalog
lookup/build -> ``run_sources_on_target`` -> digest -> result payload
-> response encode — calling each layer from *this* process and
recording one span per call.  Nothing inside ``src/`` is instrumented;
in-program spans are a later change (ROADMAP item 2).

Spans of one operation share its id and name the operation's root
span as their parent.  The same walk run with a :class:`NullRecorder`
gives the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import TransformResult
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    QueryResult,
    ShardedAnalyticsService,
    group_requests,
    plan_query,
    result_digest,
)
from repro.service.api.http import NdjsonStream, Response, read_request
from repro.service.api.protocol import (
    parse_wire_request,
    result_payload,
    to_query_request,
)
from repro.service.batching import fan_out_per_request, run_sources_on_target
from repro.service.workers import BatchSpec, prepare_for_algorithm, spec_nbytes

from workloads import Operation

clock = time.perf_counter

#: spans that make up the executor's share of an operation (what
#: ``AnalyticsService.run`` also does, minus its queue hop).
EXECUTOR_SPANS = (
    "batching.group_requests", "catalog.prepare", "planner.plan_query",
    "catalog.lookup_hit", "catalog.build", "engine.run_sources",
    "batching.fan_out",
)


class SpanRecorder:
    """In-memory spans: (name, operation id, parent, start, end)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, Optional[str], float, float]] = []

    def begin(self) -> float:
        return clock()

    def end(self, name: str, op_id: int, start: float) -> None:
        self.spans.append((name, op_id, "walk.operation", start, clock()))

    def root(self, op_id: int, start: float, end: float) -> None:
        self.spans.append(("walk.operation", op_id, None, start, end))

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, _, start, end in self.spans if n == name]

    def per_operation(self, names: Sequence[str]) -> Dict[int, float]:
        """Summed duration of the named spans, per operation id."""
        wanted = set(names)
        out: Dict[int, float] = {}
        for name, op_id, _, start, end in self.spans:
            if name in wanted:
                out[op_id] = out.get(op_id, 0.0) + (end - start)
        return out

    def write_jsonl(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, op_id, parent, start, end in self.spans:
                fh.write(json.dumps({
                    "name": name, "request": f"{workload}-{op_id}",
                    "parent": parent, "start_s": start, "end_s": end,
                }) + "\n")


class NullRecorder:
    """Same interface, records nothing and reads no clock."""

    def begin(self) -> float:
        return 0.0

    def end(self, name: str, op_id: int, start: float) -> None:
        pass

    def root(self, op_id: int, start: float, end: float) -> None:
        pass


class _SinkWriter:
    """Stands in for the socket so NDJSON line encoding can be timed."""

    def __init__(self) -> None:
        self.sent = 0

    def write(self, data: bytes) -> None:
        self.sent += len(data)

    async def drain(self) -> None:
        pass


def wire_bytes(operation: Operation) -> bytes:
    """The request as ``http.client`` puts it on the socket."""
    content_type = (
        "application/x-ndjson" if operation.path == "/v1/batch"
        else "application/json"
    )
    head = (
        f"POST {operation.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Accept-Encoding: identity\r\nContent-Length: {len(operation.body)}\r\n"
        f"Content-Type: {content_type}\r\n\r\n"
    )
    return head.encode("latin-1") + operation.body


class LayerWalk:
    """One catalog's worth of pipeline state plus a span recorder."""

    def __init__(self, graphs: Dict[str, object], budget_bytes: int, recorder) -> None:
        self.graphs = graphs
        self.catalog = GraphCatalog(memory_budget_bytes=budget_bytes, policy="lru")
        self.recorder = recorder
        self.response_bytes: List[int] = []

    async def operation(
        self, op_id: int, operation: Operation, wire: bytes
    ) -> Tuple[float, List[QueryResult]]:
        """Walk one operation through every layer -> (seconds, results)."""
        rec = self.recorder
        started = clock()

        t = rec.begin()
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        http_request = await read_request(reader)
        rec.end("api.http.read_request", op_id, t)

        t = rec.begin()
        batch_call = operation.path == "/v1/batch"
        include_values = False
        if batch_call:
            payloads = [json.loads(line) for line in http_request.ndjson_lines()]
        else:
            payload = http_request.json()
            include_values = bool(payload.pop("include_values", False))
            payloads = [payload]
        trace_requests = [
            parse_wire_request(p, line=i, default_id=i)
            for i, p in enumerate(payloads, start=1)
        ]
        requests = [to_query_request(tr) for tr in trace_requests]
        rec.end("api.protocol.parse", op_id, t)

        t = rec.begin()
        batches = group_requests(requests, lambda r: self.graphs[r.graph])
        rec.end("batching.group_requests", op_id, t)

        results: Dict[int, QueryResult] = {}
        for batch in batches:
            t = rec.begin()
            prepared = prepare_for_algorithm(self.catalog, batch.graph, batch.algorithm)
            rec.end("catalog.prepare", op_id, t)

            t = rec.begin()
            plan = plan_query(
                QueryRequest(
                    algorithm=batch.algorithm, graph=batch.graph.fingerprint(),
                    sources=batch.sources, transform=batch.transform,
                    degree_bound=batch.degree_bound or None, options=batch.options,
                ),
                prepared,
            )
            rec.end("planner.plan_query", op_id, t)

            target, projector, cache_hit = prepared, None, False
            if plan.caches:
                t = rec.begin()
                artifact, origin = self.catalog.get_or_build_with_origin(
                    prepared, plan.transform, plan.degree_bound,
                    dumb_weight=plan.dumb_weight,
                )
                cache_hit = origin != "built"
                rec.end("catalog.lookup_hit" if cache_hit else "catalog.build", op_id, t)
                target = artifact.payload
                if isinstance(target, TransformResult):
                    projector, target = target, target.graph

            t = rec.begin()
            per_source, _execution = run_sources_on_target(
                batch.algorithm, batch.sources, batch.options, target
            )
            if projector is not None:
                per_source = {s: projector.read_values(v) for s, v in per_source.items()}
            rec.end("engine.run_sources", op_id, t)

            t = rec.begin()
            per_request = fan_out_per_request(batch.requests, per_source)
            for request in batch.requests:
                results[request.request_id] = QueryResult(
                    request_id=request.request_id, algorithm=batch.algorithm,
                    values=per_request[request.request_id],
                    transform=plan.transform, degree_bound=plan.degree_bound,
                    cache_hit=cache_hit,
                )
            rec.end("batching.fan_out", op_id, t)

        ordered = [results[r.request_id] for r in requests]
        stream = NdjsonStream(_SinkWriter()) if batch_call else None
        for trace_request, result in zip(trace_requests, ordered):
            # the payload below digests again; this extra call is how a
            # digest is timed on its own without reaching inside it
            t = rec.begin()
            result_digest(result)
            rec.end("ingest.result_digest", op_id, t)

            t = rec.begin()
            payload = result_payload(
                trace_request.trace_id, result, include_values=include_values
            )
            rec.end("api.protocol.result_payload", op_id, t)

            t = rec.begin()
            if stream is not None:
                before = stream.bytes_sent
                await stream.write(payload)
                size = stream.bytes_sent - before
            else:
                _wire, size = Response(200, payload).encode()
            rec.end("api.http.response_encode", op_id, t)
            self.response_bytes.append(size)

        ended = clock()
        rec.root(op_id, started, ended)
        return ended - started, ordered


def run_walks(graphs: Dict[str, object], operations: Sequence[Operation], budget_bytes: int):
    """Walk ``operations`` twice: with spans and with a null recorder.

    Each walk owns a catalog of the server's budget, so both see the
    same hit/build sequence.  The two are interleaved per operation,
    alternating which goes first, so drift hits both alike.  Returns
    ``(traced walk, traced seconds, null-recorder seconds, results)``,
    the last three per operation.
    """
    traced = LayerWalk(graphs, budget_bytes, SpanRecorder())
    plain = LayerWalk(graphs, budget_bytes, NullRecorder())
    traced_s: List[float] = []
    plain_s: List[float] = []
    results: List[List[QueryResult]] = []

    async def main() -> None:
        for op_id, operation in enumerate(operations, start=1):
            wire = wire_bytes(operation)
            for walk in (traced, plain) if op_id % 2 else (plain, traced):
                seconds, answers = await walk.operation(op_id, operation, wire)
                if walk is traced:
                    traced_s.append(seconds)
                    results.append(answers)
                else:
                    plain_s.append(seconds)

    asyncio.run(main())
    return traced, traced_s, plain_s, results


def to_requests(operation: Operation) -> List[QueryRequest]:
    return [
        QueryRequest(
            algorithm=r.algorithm, graph=r.graph, sources=r.sources,
            transform=r.transform, degree_bound=r.k or None,
        )
        for r in operation.requests
    ]


def time_service(service: AnalyticsService, operations: Sequence[Operation]):
    """Whole-path seconds per operation through ``service`` (+ results)."""
    seconds: List[float] = []
    results: List[List[QueryResult]] = []
    for operation in operations:
        requests = to_requests(operation)
        start = clock()
        if len(requests) == 1:
            answers = [service.run(requests[0])]
        else:
            answers = [t.result() for t in service.submit_batch(requests)]
        seconds.append(clock() - start)
        results.append(answers)
    return seconds, results


def make_service(graphs, budget_bytes: int, *, sharded: bool = False, **kwargs):
    """A 2-worker service (plain or 2-shard) with the server's catalog budget."""
    catalog = GraphCatalog(memory_budget_bytes=budget_bytes, policy="lru")
    if sharded:
        service = ShardedAnalyticsService(catalog, shards=2, workers=2, **kwargs)
    else:
        service = AnalyticsService(catalog, workers=2, **kwargs)
    for name, graph in graphs.items():
        service.register(name, graph)
    return service


def spec_pickle_seconds(graphs, operations: Sequence[Operation]) -> float:
    """Median seconds to pickle one operation's ``BatchSpec``."""
    samples = []
    for operation in operations:
        request = operation.requests[0]
        graph = graphs[request.graph]
        spec = BatchSpec(
            graph_fingerprint=graph.fingerprint(), graph_path="/store/graph.npz",
            algorithm=request.algorithm, transform=request.transform,
            degree_bound=request.k, options=to_requests(operation)[0].options,
            sources=request.sources,
        )
        start = clock()
        spec_nbytes(spec)
        samples.append(clock() - start)
    return statistics.median(samples)
