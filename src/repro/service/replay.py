"""Deterministic trace replay: re-submit a recorded stream, diff digests.

A recorded trace (:mod:`repro.service.ingest`) is a complete
experiment: the requests that arrived, the pace they arrived at, and
a digest of every answer.  :func:`replay_trace` re-drives the
:class:`~repro.service.executor.AnalyticsService` from one and
verifies that every replayed answer digests equal to the recorded
one — which makes every captured trace a regression test that runs
identically under the thread and process backends (the Gunrock
lesson: replaying recorded operator streams against reference
results is what keeps a concurrent runtime honest).

The replay contract:

* requests are re-submitted in recorded order; ``speed`` re-paces the
  recorded inter-arrival deltas (``0`` = as fast as possible, ``1`` =
  real time, ``2`` = twice as fast);
* each replayed answer's :func:`~repro.service.ingest.result_digest`
  is diffed against the recorded digest for the same trace id;
  digests cover values + error text only, so plan/cache differences
  (a replay that degrades where the recording did not) cannot create
  false mismatches — only wrong *answers* can;
* ``loop`` replays the stream N times through one service — later
  passes reuse the shard tier's shard sets, so looping doubles as a
  cheap soak that a reused shard set answers the same bytes.

Graphs are reconstructed from the trace header's recipes
(:func:`resolve_trace_graphs`): dataset stand-ins regenerate from
their seeded generators, ``.npz`` refs load from disk, and a recorded
fingerprint is verified after loading so dataset drift surfaces as a
typed error instead of a wall of digest mismatches.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ServiceError, TraceFormatError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.io import load_npz
from repro.service.executor import AnalyticsService
from repro.service.ingest import (
    Trace,
    TraceRecorder,
    TraceRequest,
    load_trace,
    result_digest,
)

#: seconds to wait for any single replayed ticket.
DEFAULT_RESULT_WAIT_S = 300.0

#: one replayed answer as a pass tallies it: (trace id, ok, digest, error).
Row = Tuple[int, bool, str, Optional[str]]


def resolve_trace_graphs(
    trace: Trace,
    *,
    overrides: Optional[Dict[str, CSRGraph]] = None,
) -> Dict[str, CSRGraph]:
    """Reconstruct every graph the trace references.

    ``overrides`` wins over header recipes (callers replaying against
    an in-memory graph, or a trace recorded with inline graphs whose
    recipes are fingerprint-only).  Header entries support
    ``{"dataset", "scale", "weighted", "seed"}`` (seeded stand-in
    regeneration) and ``{"path"}`` (``.npz`` load); a recorded
    ``fingerprint`` is verified after loading.
    """
    graphs: Dict[str, CSRGraph] = dict(overrides or {})
    referenced = {request.graph for request in trace.requests}
    for name, entry in trace.header.graphs.items():
        if name in graphs:
            continue
        if "dataset" in entry:
            graphs[name] = load_dataset(
                entry["dataset"],
                scale=float(entry.get("scale", 1.0)),
                seed=entry.get("seed"),
                weighted=bool(entry.get("weighted", True)),
            )
        elif "path" in entry:
            graphs[name] = load_npz(entry["path"])
        elif name in referenced:
            raise TraceFormatError(
                f"graph {name!r} has no reconstruction recipe "
                f"(need 'dataset' or 'path', or pass it via overrides)"
            )
        else:
            continue
        expected = entry.get("fingerprint")
        actual = graphs[name].fingerprint()
        if expected is not None and actual != expected:
            raise TraceFormatError(
                f"graph {name!r} reconstructed with fingerprint "
                f"{actual[:16]}… but the trace recorded {expected[:16]}… "
                f"(generator or dataset drift; re-record the trace)"
            )
    missing = sorted(referenced - set(graphs))
    if missing:
        raise ServiceError(
            f"trace references unknown graph(s): {', '.join(missing)}; "
            f"header defines: {', '.join(sorted(trace.header.graphs)) or '(none)'}"
        )
    return graphs


@dataclass(frozen=True)
class DigestMismatch:
    """One replayed answer that did not digest equal to the record."""

    trace_id: int
    algorithm: str
    graph: str
    expected: str
    actual: str
    error: Optional[str] = None

    def __str__(self) -> str:
        detail = f" (replay error: {self.error})" if self.error else ""
        return (
            f"request {self.trace_id} ({self.algorithm} on {self.graph}): "
            f"expected {self.expected[:23]}… got {self.actual[:23]}…{detail}"
        )


@dataclass
class ReplayReport:
    """What one replay did and whether it matched the record."""

    source: str
    backend: str
    loops: int = 1
    requests_submitted: int = 0
    results_ok: int = 0
    results_failed: int = 0
    digests_checked: int = 0
    digests_missing: int = 0
    mismatches: List[DigestMismatch] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """No digest diverged (recorded failures replaying as the
        same failure still match — the trace is the contract)."""
        return not self.mismatches

    @property
    def qps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.requests_submitted / self.elapsed_s

    def summary(self) -> Dict[str, float]:
        return {
            "requests_submitted": self.requests_submitted,
            "results_ok": self.results_ok,
            "results_failed": self.results_failed,
            "digests_checked": self.digests_checked,
            "digests_matched": self.digests_checked - len(self.mismatches),
            "digests_mismatched": len(self.mismatches),
            "digests_missing": self.digests_missing,
            "elapsed_s": self.elapsed_s,
            "qps": self.qps,
        }

    def to_text(self) -> str:
        lines = [
            f"replayed {self.requests_submitted} request(s) from "
            f"{self.source} on backend={self.backend} "
            f"(loop={self.loops}) in {self.elapsed_s:.3f}s "
            f"({self.qps:.1f} req/s)",
            f"  results: {self.results_ok} ok, {self.results_failed} failed",
            f"  digests: {self.digests_checked - len(self.mismatches)}"
            f"/{self.digests_checked} matched"
            + (
                f", {self.digests_missing} without a recorded digest"
                if self.digests_missing
                else ""
            ),
        ]
        for mismatch in self.mismatches:
            lines.append(f"  MISMATCH {mismatch}")
        return "\n".join(lines)


def _pace(delta_s: float, speed: float) -> None:
    if speed > 0 and delta_s > 0:
        time.sleep(delta_s / speed)


def replay_trace(
    source: Union[str, Trace],
    *,
    service: Optional[AnalyticsService] = None,
    backend: Optional[str] = None,
    workers: int = 4,
    queue_size: int = 256,
    speed: float = 0.0,
    loop: int = 1,
    batch: int = 1,
    verify: bool = True,
    graphs: Optional[Dict[str, CSRGraph]] = None,
    recorder: Optional[TraceRecorder] = None,
) -> ReplayReport:
    """Re-submit a recorded trace and diff every answer's digest.

    Parameters
    ----------
    source:
        Trace path (or ``-``/``tcp://…``, anything
        :class:`~repro.service.ingest.TraceReader` accepts) or an
        already-loaded :class:`~repro.service.ingest.Trace`.
    service:
        Replay through an existing service (its registered graphs are
        used as overrides); omitted, a fresh one is built with
        ``backend``/``workers``/``queue_size`` and closed afterwards.
    speed:
        Inter-arrival pacing: ``0`` submits as fast as possible,
        ``1`` honours the recorded deltas, ``s`` divides them by
        ``s``.
    loop:
        Replay the stream this many times through one service
        (later passes reuse the shard tier's shard sets).
    batch:
        Submission window: consecutive requests are grouped into
        ``submit_batch`` calls of this size, letting replay exercise
        same-graph coalescing the way the synthetic driver does.
    verify:
        Diff replayed digests against recorded ones (requests with no
        recorded digest are counted in ``digests_missing``).
    recorder:
        Optional :class:`~repro.service.ingest.TraceRecorder` attached
        for the duration of the replay — the round-trip path: replay a
        trace while re-recording it, then diff the two.
    """
    if loop < 1:
        raise ServiceError(f"loop must be >= 1, got {loop}")
    if batch < 1:
        raise ServiceError(f"batch must be >= 1, got {batch}")
    if speed < 0:
        raise ServiceError(f"speed must be >= 0, got {speed}")
    trace = source if isinstance(source, Trace) else load_trace(source)
    source_name = source if isinstance(source, str) else "<trace>"

    own_service = service is None
    if own_service:
        service = AnalyticsService(
            workers=workers, backend=backend, queue_size=queue_size
        )
    assert service is not None
    report = ReplayReport(
        source=source_name, backend=service.backend, loops=loop
    )
    try:
        resolved = resolve_trace_graphs(
            trace, overrides={**service.registered(), **(graphs or {})}
        )
        for name, graph in resolved.items():
            service.register(name, graph)
        if recorder is not None:
            service.attach_recorder(recorder)

        def answers(window, tickets) -> Iterable[Row]:
            for trace_request, ticket in zip(window, tickets):
                result = ticket.result(DEFAULT_RESULT_WAIT_S)
                yield (trace_request.trace_id, result.ok, result_digest(result),
                       result.error)

        def send(window: List[TraceRequest]) -> Iterable[Row]:
            # submitted now, read once every window is in
            requests = [trace_request.to_query_request() for trace_request in window]
            return answers(window, service.submit_batch(requests))

        start = time.perf_counter()
        for _ in range(loop):
            replay_pass(trace, report, send, speed=speed, batch=batch, verify=verify)
        report.elapsed_s = time.perf_counter() - start
        service.metrics.count(
            replay_digests_checked=report.digests_checked,
            replay_digest_mismatches=len(report.mismatches),
        )
        return report
    finally:
        if recorder is not None:
            service.detach_recorder(recorder)
        if own_service:
            service.close()


def replay_pass(
    trace: Trace,
    report: ReplayReport,
    send: Callable[[List[TraceRequest]], Iterable[Row]],
    *,
    speed: float,
    batch: int,
    verify: bool,
) -> None:
    """One pass over ``trace`` into ``report``, in process or over HTTP.

    Paces the recorded arrivals, hands each window of ``batch``
    consecutive requests to ``send`` (which submits it before
    returning), then tallies the rows every window answered and diffs
    their digests against the recorded ones.  The rows ``send``
    returns may be lazy: they are read only after the last window is
    submitted.
    """
    windows: List[Iterable[Row]] = []

    def flush(window: List[TraceRequest]) -> None:
        windows.append(send(window))
        report.requests_submitted += len(window)

    window: List[TraceRequest] = []
    for trace_request in trace.requests:
        _pace(trace_request.delta_s, speed)
        window.append(trace_request)
        if len(window) >= batch:
            flush(window)
            window = []
    if window:
        flush(window)

    for trace_id, ok, digest, error in itertools.chain.from_iterable(windows):
        if ok:
            report.results_ok += 1
        else:
            report.results_failed += 1
        if not verify:
            continue
        recorded = trace.results.get(trace_id)
        if recorded is None:
            report.digests_missing += 1
            continue
        report.digests_checked += 1
        if digest != recorded.digest:
            request = next(
                (r for r in trace.requests if r.trace_id == trace_id), None
            )
            report.mismatches.append(
                DigestMismatch(
                    trace_id=trace_id,
                    algorithm=request.algorithm if request else "?",
                    graph=request.graph if request else "?",
                    expected=recorded.digest,
                    actual=digest,
                    error=error,
                )
            )


def record_trace(
    service: AnalyticsService,
    sink,
    *,
    graphs: Optional[Dict[str, dict]] = None,
    note: str = "",
) -> TraceRecorder:
    """Attach a fresh recorder to ``service``; caller closes it.

    Convenience for the common capture shape::

        recorder = record_trace(service, "out.jsonl", graphs={...})
        ... drive traffic ...
        service.detach_recorder(recorder); recorder.close()
    """
    recorder = TraceRecorder(sink, graphs=graphs, note=note)
    service.attach_recorder(recorder)
    return recorder
