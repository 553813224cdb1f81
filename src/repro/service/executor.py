"""AnalyticsService: concurrent query execution.

The service owns a bounded submission queue, a pool of dispatcher
threads, and the places a batch can run.  The full pipeline per work
item is::

    submit -> [bounded queue] -> check -> prepare -> execute

*Where* a batch executes is an ordered list of **places**, built once
from the constructor arguments; :meth:`AnalyticsService._run_batch`
walks it:

1. **shard tier** (``shards=N``) — scatter-gather over destination-
   partitioned shard executors, in-process or remote
   (:class:`~repro.service.sharding.ShardTier`); *passes* on what it
   cannot reproduce bitwise (bc) or the routing
   policy steers away;
2. **local hosts** (``backend="processes"``, or the
   ``REPRO_SERVICE_WORKERS`` environment variable) — one host process
   per dispatcher thread (:class:`~repro.service.sharding.LocalHost`);
   the batch crosses as a :class:`~repro.service.workers.BatchSpec` in
   the shard wire's frame (its ``run`` op), the host loads the graph
   from a shared ``.npz`` store and replies with compact per-source
   arrays (:mod:`repro.service.workers`).  Heavy concurrent traffic
   scales past the GIL at the price of IPC;
3. **this dispatcher thread** (always last) — the pipeline runs here.
   numpy releases the GIL often enough for useful overlap, and nothing
   is serialised or copied.

One failure rule serves every place: a place that is *lost* mid-batch
raises its typed error (:class:`~repro.errors.ShardLost`,
:class:`~repro.errors.WorkerLost`), the batch moves to the next place,
and its results carry ``degraded=True`` — a slower answer beats none.
``fallback=False`` surfaces the first loss to callers instead.  The
last place cannot be lost.

Design points, each of which the tests pin down:

* **admission** — each request charges one token against its tenant's
  quota (:class:`~repro.service.routing.RoutingPolicy`; typed
  :class:`~repro.errors.QuotaExhaustedError` -> HTTP 429) and the
  queue drains by the policy's priority classes, FIFO within a class
  — so with no priorities configured it *is* a FIFO;
* **backpressure** — the queue is bounded; a non-blocking submit
  against a full queue raises :class:`~repro.errors.ServiceError`
  instead of buffering without limit;
* **batching** — :meth:`submit_batch` coalesces same-graph requests
  into one preparation + one deduplicated source fan-out (see
  :mod:`repro.service.batching`); a batch reaches every place
  *intact*, so lane-parallel traversals still collapse;
* **per-request checks** — a claimed request its transform may not
  serve (:func:`~repro.service.planner.plan_query`) fails alone, and
  the rest of its batch runs;
* **timeouts** — a request still queued past its deadline fails fast;
  one that finishes late is answered, never degraded (``degraded``
  means only that a place was lost);
* **cancellation** — a ticket can be cancelled any time before a
  worker claims it; cancellation after claiming is refused (results
  are about to exist);
* **nothing built per request** — every batch reads its graph or the
  graph's memoised unweighted view (cc is a union-find over the CSR as
  it is), so a cold request and a warm one do the same work, and a
  result's ``cache_hit`` is false only when its batch built the shard
  tier's shard set.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    QuotaExhaustedError,
    ServiceError,
    ServiceOverloadError,
    ShardLost,
    TigrError,
    UnknownGraphError,
    WorkerLost,
)
from repro.graph.csr import CSRGraph
from repro.service.batching import QueryBatch, fan_out_per_request, group_requests
from repro.service.ingest import TraceRecorder
from repro.service.metrics import ServiceMetrics
from repro.service.planner import plan_query
from repro.service.query import QueryRequest, QueryResult, StageTimings
from repro.service.routing import RoutingPolicy
from repro.service.sharding import LocalHost, ShardTier
from repro.service.workers import BatchOutcome, BatchSpec, execute_pipeline, export_graph

#: recognised execution backends.
BACKENDS = ("threads", "processes")

#: environment variable naming the default backend (CI runs the
#: service suite under both values; an explicit ``backend=`` wins).
BACKEND_ENV = "REPRO_SERVICE_WORKERS"

#: extra seconds past the tightest member deadline the front-end
#: waits on a local host before declaring it lost.
WORKER_GRACE_S = 30.0


def resolve_backend(backend: Optional[str]) -> str:
    """Explicit argument, else ``REPRO_SERVICE_WORKERS``, else threads."""
    value = backend or os.environ.get(BACKEND_ENV) or "threads"
    if value not in BACKENDS:
        raise ServiceError(
            f"unknown worker backend {value!r}; known: {', '.join(BACKENDS)}"
        )
    return value


class QueryTicket:
    """Handle for one submitted request (a minimal future).

    ``result()`` blocks until the worker finishes (or the optional
    wait timeout elapses); ``cancel()`` succeeds only while the
    request is still queued.  ``on_resolve`` is the executor's
    observation hook (trace recording); it runs after the result is
    set and must never raise into the worker loop.

    :meth:`add_done_callback` runs a function on resolution, on the
    dispatcher thread that resolves the ticket; the HTTP front door
    (:mod:`repro.service.api`) streams ``/v1/batch`` lines in
    completion order with it.
    """

    def __init__(
        self,
        request: QueryRequest,
        submitted_at: float,
        on_resolve: Optional[Callable[["QueryTicket", QueryResult], None]] = None,
    ) -> None:
        self.request = request
        self.submitted_at = submitted_at
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[QueryResult] = None
        self._cancelled = False
        self._claimed = False
        self._on_resolve = on_resolve
        self._callbacks: List[Callable[["QueryTicket", QueryResult], None]] = []

    @property
    def deadline(self) -> float:
        if self.request.timeout_s is None:
            return float("inf")
        return self.submitted_at + self.request.timeout_s

    def done(self) -> bool:
        return self._event.is_set()

    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def cancel(self) -> bool:
        """Cancel if still queued; returns whether it took effect."""
        with self._lock:
            if self._claimed or self._event.is_set():
                return False
            self._cancelled = True
        self._resolve(self._failed("cancelled"))
        return True

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """The finished :class:`QueryResult` (waits for it if needed)."""
        if not self._event.wait(timeout):
            raise ServiceError(
                f"request {self.request.request_id} not finished "
                f"within {timeout}s wait"
            )
        assert self._result is not None
        return self._result

    # -- observation ---------------------------------------------------
    def add_done_callback(
        self, fn: Callable[["QueryTicket", QueryResult], None]
    ) -> None:
        """Run ``fn(ticket, result)`` once the result exists.

        Registered before resolution, ``fn`` runs on the dispatcher
        thread that resolves the ticket; registered after, it runs
        immediately on the calling thread.  Exceptions are swallowed —
        observation must never fail serving (same contract as
        ``on_resolve``).
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        self._run_callback(fn, self._result)

    def _run_callback(
        self, fn: Callable[["QueryTicket", QueryResult], None], result
    ) -> None:
        try:
            fn(self, result)
        except Exception:
            pass  # observation must never fail serving

    # -- worker side ---------------------------------------------------
    def _failed(self, message: str, *, queue_s: float = 0.0) -> QueryResult:
        """The error answer for this ticket (no values)."""
        return QueryResult(
            request_id=self.request.request_id,
            algorithm=self.request.algorithm,
            values={},
            timings=StageTimings(queue_s=queue_s),
            error=message,
        )

    def _claim(self) -> bool:
        with self._lock:
            if self._cancelled:
                return False
            self._claimed = True
            return True

    def _resolve(self, result: QueryResult) -> None:
        self._result = result
        # Observe *before* waking waiters: a caller returning from
        # ``result()`` must find the trace line already written.
        if self._on_resolve is not None:
            try:
                self._on_resolve(self, result)
            except Exception:
                # Observation (trace capture) must never fail serving.
                pass
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._run_callback(fn, result)


@dataclass
class _WorkItem:
    batch: QueryBatch
    tickets: List[QueryTicket]
    enqueued_at: float = field(default_factory=time.perf_counter)


class _PriorityWorkQueue(queue.Queue):
    """A :class:`queue.Queue` whose backlog drains by priority class.

    The service's submission queue: same bound, same ``Full``/``join``
    semantics as a plain queue (only ``_init``/``_put``/``_get`` are
    overridden), but ``get`` returns the lowest-priority-number item
    first, FIFO within a class — so under a policy with one class
    (the default) the ``(rank, seq)`` order *is* strict FIFO.  The
    shutdown sentinel (``None``) sorts last so close() drains real
    work before stopping workers.
    """

    def __init__(self, maxsize: int, priority_of: Callable[[object], int]) -> None:
        self._priority_of = priority_of
        self._seq = itertools.count()
        super().__init__(maxsize)

    def _init(self, maxsize: int) -> None:
        self._heap: List[Tuple[float, int, object]] = []

    def _qsize(self) -> int:
        return len(self._heap)

    def _put(self, item: object) -> None:
        rank = float("inf") if item is None else float(self._priority_of(item))
        heapq.heappush(self._heap, (rank, next(self._seq), item))

    def _get(self) -> object:
        return heapq.heappop(self._heap)[2]


class _LocalHosts:
    """The process place: one :class:`~repro.service.sharding.LocalHost`
    per dispatcher thread, all reading graphs from one store, a temp
    directory that lives exactly as long as the place.

    A batch takes an idle host, crosses as a :class:`BatchSpec` in the
    host's ``run`` frame and comes back as its :class:`BatchOutcome`.
    A host that is lost (died, wedged past the wait budget, garbled
    its reply) is killed, counted in ``worker_restarts`` and restarted
    by the next batch that takes its slot; only the batch on it sees
    the :class:`WorkerLost`.  What a loss *means* is the service's one
    fallback rule, not this class's.
    """

    def __init__(self, count: int, metrics: ServiceMetrics) -> None:
        self.graphs_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.metrics = metrics
        # hosts start now, before any dispatcher thread does (the first
        # forks are single-threaded); the last host put back is the next
        # taken, so a light load stays on a host whose graphs are loaded
        self._idle: "queue.LifoQueue[Optional[LocalHost]]" = queue.LifoQueue()
        for _ in range(count):
            self._idle.put(LocalHost())

    def run(self, batch: QueryBatch, remaining_s: float) -> BatchOutcome:
        """Execute a batch on an idle host; raises :class:`WorkerLost`.

        The wait budget is the tightest member deadline plus a grace
        period; with no deadlines in the batch the dispatcher waits
        indefinitely (a crash still surfaces at once as a closed
        socket — only a silently wedged host needs the deadline).
        """
        spec = BatchSpec(
            graph_fingerprint=batch.graph.fingerprint(),
            graph_path=export_graph(batch.graph, self.graphs_dir),
            algorithm=batch.algorithm,
            options=batch.options,
            sources=batch.sources,
            remaining_s=remaining_s,
        )
        host = self._idle.get()
        try:
            if host is None:  # its predecessor was lost
                host = LocalHost()
            host.op_timeout_s = (
                None if remaining_s == float("inf")
                else max(remaining_s, 0.0) + WORKER_GRACE_S
            )
            before = host.wire_bytes
            outcome = host.run(spec, batch.graph.num_nodes)
            self.metrics.count(ipc_bytes=host.wire_bytes - before)
            return outcome
        except ShardLost as exc:
            host.kill()
            host = None
            self.metrics.count(worker_restarts=1)
            raise WorkerLost(exc.reason, batch_size=len(spec.sources)) from exc
        finally:
            self._idle.put(host)

    def close(self) -> None:
        while not self._idle.empty():
            host = self._idle.get()
            if host is not None:
                host.kill()
        shutil.rmtree(self.graphs_dir, ignore_errors=True)


class AnalyticsService:
    """The serving layer: graphs in, concurrent analytics out.

    Parameters
    ----------
    catalog:
        Not read: a shim for the frozen benchmark ledger, which passes
        a :class:`~repro.service.catalog.GraphCatalog` here.
    workers:
        Dispatcher-thread count, and additionally the local-host
        count when ``backend="processes"``.
    backend:
        ``"threads"`` or ``"processes"`` — whether local hosts sit
        before the dispatcher thread in the place list; ``None`` reads
        the ``REPRO_SERVICE_WORKERS`` environment variable and falls
        back to threads.  See the module docstring and
        ``docs/operations.md`` for how to choose.
    queue_size:
        Bound of the submission queue — the backpressure knob.
    default_timeout_s:
        Applied to requests that specify no timeout (``None`` = no
        deadline).
    fallback:
        Whether a batch whose place is lost (:class:`~repro.errors.
        ShardLost`, :class:`WorkerLost`) moves to the next place, ``degraded=True``
        on its results, instead of failing with the loss's message.
        Defaults to on; tests switch it off to observe the typed
        failure.
    shards:
        Shard count of the scatter-gather tier; ``0`` (default) means
        no tier.  A single shard passes everything on — the
        degraded-operation mode the runbook describes.
    shard_remotes:
        ``(host, port)`` addresses of :class:`~repro.service.sharding.
        ShardHostServer` instances; the first ``len(shard_remotes)``
        shards run there, the rest in-process.
    policy:
        A :class:`~repro.service.routing.RoutingPolicy` — tenant
        quotas, priority classes, shard route choice; defaults to
        unmetered tenants, one priority class and an always-shard
        route.
    recorder:
        Optional :class:`~repro.service.ingest.TraceRecorder` wrapped
        around live traffic from the start: every submitted request is
        written as a trace line (with its inter-arrival delta) and
        every resolved ticket as a result line carrying the answer's
        digest.  Also attachable/detachable at runtime
        (:meth:`attach_recorder` / :meth:`detach_recorder`).
    """

    def __init__(
        self,
        catalog: object = None,
        *,
        workers: int = 2,
        backend: Optional[str] = None,
        queue_size: int = 64,
        default_timeout_s: Optional[float] = None,
        fallback: bool = True,
        recorder: Optional[TraceRecorder] = None,
        shards: int = 0,
        shard_remotes: Sequence[Tuple[str, int]] = (),
        policy: Optional[RoutingPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        if queue_size < 1:
            raise ServiceError(f"queue size must be >= 1, got {queue_size}")
        if shards < 0:
            raise ServiceError(f"shard count must be >= 0, got {shards}")
        self.backend = resolve_backend(backend)
        self.metrics = ServiceMetrics(backend=self.backend, shards=shards)
        self.default_timeout_s = default_timeout_s
        self.fallback = bool(fallback)
        self.policy = policy if policy is not None else RoutingPolicy()
        self._recorder = recorder
        self._graphs: Dict[str, CSRGraph] = {}
        self._queue: "queue.Queue[Optional[_WorkItem]]" = _PriorityWorkQueue(
            queue_size, self._priority_of
        )
        self._stopped = False
        #: where a batch runs, in the order tried; the last cannot be lost
        self._places: List[
            Callable[[QueryBatch, float], Optional[BatchOutcome]]
        ] = []
        self._shards: Optional[ShardTier] = None
        if shards:
            self._shards = ShardTier(
                shards,
                remotes=shard_remotes,
                policy=self.policy,
                metrics=self.metrics,
            )
            self._places.append(self._shards.run)
        self._process: Optional[_LocalHosts] = None
        if self.backend == "processes":
            self._process = _LocalHosts(workers, self.metrics)
            self._places.append(self._process.run)
        self._places.append(self._run_here)
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-serve-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    @property
    def workers(self) -> int:
        """Dispatcher-thread count (and local-host count, if any)."""
        return len(self._workers)

    def _priority_of(self, item: _WorkItem) -> int:
        """A work item runs at its most urgent member's priority class."""
        return min(self.policy.priority_for(t.request) for t in item.tickets)

    # ------------------------------------------------------------------
    # Graph registry
    # ------------------------------------------------------------------
    def register(self, name: str, graph: CSRGraph) -> str:
        """Register ``graph`` under ``name``; returns its fingerprint."""
        self._graphs[name] = graph
        return graph.fingerprint()

    def registered(self) -> Dict[str, CSRGraph]:
        return dict(self._graphs)

    def _resolve_graph(self, request: QueryRequest) -> CSRGraph:
        if isinstance(request.graph, CSRGraph):
            return request.graph
        graph = self._graphs.get(request.graph)
        if graph is None:
            raise UnknownGraphError(request.graph, registered=self._graphs)
        return graph

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: QueryRequest,
        *,
        block: bool = True,
        submit_timeout_s: Optional[float] = None,
    ) -> QueryTicket:
        """Queue one request; returns its ticket.

        With ``block=False`` (or a ``submit_timeout_s`` that elapses)
        a full queue raises :class:`ServiceError` — that is the
        backpressure contract: overload is surfaced to the caller, not
        absorbed into unbounded memory.
        """
        return self.submit_batch(
            [request], block=block, submit_timeout_s=submit_timeout_s
        )[0]

    def submit_batch(
        self,
        requests: List[QueryRequest],
        *,
        block: bool = True,
        submit_timeout_s: Optional[float] = None,
    ) -> List[QueryTicket]:
        """Queue several requests, coalescing compatible ones.

        Same-graph/algorithm/options requests become one work item with
        deduplicated sources; each still gets its own ticket and its
        own :class:`QueryResult`.  Tickets are returned in request
        order.

        Each request charges one token against its tenant's bucket as
        it is admitted; the first refusal rejects the whole submission
        (tokens already charged for earlier members stay spent — the
        caller is over budget either way).  A full queue refuses it
        whole too: ``submit_timeout_s`` is one deadline for all of its
        groups, and on a refusal every ticket is cancelled, so a group
        still queued from it does no engine work.
        """
        if self._stopped:
            raise ServiceError("service is stopped")
        if not requests:
            return []
        for request in requests:
            wait_s = self.policy.try_admit(request.tenant)
            if wait_s > 0.0:
                self.metrics.count(quota_rejected=1)
                raise QuotaExhaustedError(request.tenant, retry_after_s=wait_s)
        if self.default_timeout_s is not None:
            requests = [
                r if r.timeout_s is not None
                else replace(r, timeout_s=self.default_timeout_s)
                for r in requests
            ]
        recorder = self._recorder
        if recorder is not None:
            for request in requests:
                recorder.record_request(request)
            self.metrics.count(trace_requests=len(requests))
        now = time.perf_counter()
        tickets = {
            r.request_id: QueryTicket(r, now, on_resolve=self._ticket_resolved)
            for r in requests
        }
        deadline = None if submit_timeout_s is None else now + submit_timeout_s
        for batch in group_requests(requests, self._resolve_graph):
            item = _WorkItem(
                batch=batch,
                tickets=[tickets[r.request_id] for r in batch.requests],
            )
            try:
                self._queue.put(item, block=block, timeout=(
                    None if deadline is None
                    else max(0.0, deadline - time.perf_counter())
                ))
            except queue.Full:
                for ticket in tickets.values():
                    ticket.cancel()
                raise ServiceOverloadError(
                    f"submission queue full ({self._queue.maxsize} pending); "
                    f"retry later or raise queue_size"
                ) from None
            self.metrics.queue_depth_changed(self._queue.qsize())
        return [tickets[r.request_id] for r in requests]

    def run(self, request: QueryRequest, *, timeout: Optional[float] = None) -> QueryResult:
        """Submit and wait: the one-call synchronous convenience."""
        return self.submit(request).result(timeout)

    # ------------------------------------------------------------------
    # Trace capture
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder: TraceRecorder) -> None:
        """Capture all traffic from now on as a replayable trace.

        One recorder at a time; attaching replaces any previous one
        (requests already in flight still resolve through the hook, so
        their result lines land in the *new* trace only if their
        request lines did — replay ignores orphaned results).
        """
        self._recorder = recorder

    def detach_recorder(self, recorder: Optional[TraceRecorder] = None) -> None:
        """Stop capturing (``recorder`` given: only if still attached)."""
        if recorder is None or self._recorder is recorder:
            self._recorder = None

    def _ticket_resolved(self, ticket: QueryTicket, result: QueryResult) -> None:
        """Resolution hook: append the result digest to the trace."""
        recorder = self._recorder
        if recorder is None:
            return
        recorder.record_result(ticket.request, result)
        self.metrics.count(trace_results=1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until every queued work item has been processed.

        The graceful-shutdown half-step the HTTP front door needs:
        stop *admitting* first (close the listener), then ``drain()``
        so in-flight tickets resolve, then :meth:`close`.  Unlike
        :meth:`close` the service still accepts work afterwards.
        Returns ``False`` if ``timeout_s`` elapsed with work still in
        flight (``None`` waits indefinitely).
        """
        deadline = (
            None if timeout_s is None else time.perf_counter() + timeout_s
        )
        # queue.join() with a deadline: wait on the queue's own
        # all-tasks-done condition so "drained" means the dispatcher
        # called task_done, not merely that the queue looks empty.
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = (
                    None if deadline is None
                    else deadline - time.perf_counter()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._queue.all_tasks_done.wait(remaining)
        return True

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers.

        Already-queued work is drained before the workers exit.
        """
        if self._stopped:
            return
        self._stopped = True
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join()
            # Only a waited close tears the places down: dispatchers
            # are done, so no batch can reach the hosts, their graph
            # store or the shard sets afterwards.  A wait=False close
            # leaves them to die with the (daemonised) interpreter.
            if self._process is not None:
                self._process.close()
            if self._shards is not None:
                self._shards.drop()

    def __enter__(self) -> "AnalyticsService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker pipeline
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            self.metrics.queue_depth_changed(self._queue.qsize())
            if item is None:
                return
            try:
                self._handle_item(item)
            finally:
                self._queue.task_done()

    def _handle_item(self, item: _WorkItem) -> None:
        dequeued_at = time.perf_counter()
        queue_s = dequeued_at - item.enqueued_at

        live = [ticket for ticket in item.tickets if ticket._claim()]
        cancelled = len(item.tickets) - len(live)
        if cancelled:
            self.metrics.count(
                queries_total=cancelled, queries_cancelled=cancelled
            )
            for _ in range(cancelled):
                self.metrics.observe("queue", queue_s)
        if not live:
            return

        # A request whose deadline passed while queued fails fast.
        expired = [t for t in live if dequeued_at > t.deadline]
        live = [t for t in live if dequeued_at <= t.deadline]
        if expired:
            self._fail(
                expired, "timed out in queue", queue_s=queue_s, timed_out=True
            )
        # A request its transform may not serve fails alone.
        admitted = []
        for ticket in live:
            try:
                plan_query(ticket.request, item.batch.graph)
            except TigrError as exc:
                self._fail([ticket], str(exc), queue_s=queue_s)
            else:
                admitted.append(ticket)
        live = admitted
        if not live:
            return

        batch = replace(item.batch, requests=[t.request for t in live])
        try:
            self._execute(batch, live, queue_s)
        except TigrError as exc:
            self._fail(live, str(exc), queue_s=queue_s)
        except Exception as exc:  # pragma: no cover - defensive
            self._fail(live, f"internal error: {exc!r}", queue_s=queue_s)

    def _execute(
        self, batch: QueryBatch, tickets: List[QueryTicket], queue_s: float
    ) -> None:
        remaining_s = min(t.deadline for t in tickets) - time.perf_counter()
        outcome = self._run_batch(batch, remaining_s)

        per_request = fan_out_per_request(batch.requests, outcome.per_source)
        timings = StageTimings(
            queue_s=queue_s, plan_s=outcome.plan_s, execute_s=outcome.execute_s,
        )
        finished_at = time.perf_counter()
        self._count_batch(batch, tickets, outcome, timings, finished_at)
        for ticket in tickets:
            ticket._resolve(
                QueryResult(
                    request_id=ticket.request.request_id,
                    algorithm=batch.algorithm,
                    values=per_request[ticket.request.request_id],
                    cache_hit=not batch.built_shardset,
                    degraded=outcome.degraded,
                    batched_with=len(tickets) - 1,
                    timings=timings,
                )
            )

    def _count_batch(
        self,
        batch: QueryBatch,
        tickets: List[QueryTicket],
        outcome: BatchOutcome,
        timings: StageTimings,
        finished_at: float,
    ) -> None:
        """Account one answered batch before its tickets resolve.

        Every member contributes its stage latencies; batch-level
        quantities are counted once per batch, not once per member, so
        the aggregate counters stay interpretable.
        """
        stage_seconds = {
            "queue": timings.queue_s, "plan": timings.plan_s,
            "execute": timings.execute_s, "total": timings.total_s,
        }
        for _ in tickets:
            for stage, seconds in stage_seconds.items():
                self.metrics.observe(stage, seconds)
        size = len(tickets)
        execution = outcome.execution
        self.metrics.count(
            queries_total=size,
            queries_degraded=size if outcome.degraded else 0,
            queries_timed_out=sum(finished_at > t.deadline for t in tickets),
            cache_hits=0 if batch.built_shardset else size,
            batches_merged=size - 1,
            sources_deduped=batch.sources_deduped,
            traversals_total=execution.traversals,
            lanes_total=execution.lanes,
            traversals_saved=execution.traversals_saved,
            **{"strategy_" + execution.strategy.replace("-", "_"): 1},
        )

    def _run_batch(self, batch: QueryBatch, remaining_s: float) -> BatchOutcome:
        """Execute one coalesced batch at the first place that answers.

        Everything around it — claiming, queue-deadline expiry,
        fan-out, ticket resolution, metrics attribution — does not
        care *where the pipeline runs*; this walk is the only code
        that does.  Each place returns a :class:`BatchOutcome`, passes
        (``None``), or is lost with its typed error; after a loss the
        answer is correct but arrived the degraded way (module
        docstring: the one failure rule).
        """
        *earlier, last = self._places
        lost = False
        for place in earlier:
            try:
                outcome = place(batch, remaining_s)
            except WorkerLost:  # ShardLost is one
                # (the loss itself is already counted by the place:
                # shard_fallbacks / worker_restarts)
                if not self.fallback:
                    raise
                lost = True
                continue
            if outcome is not None:
                break
        else:
            outcome = last(batch, remaining_s)  # cannot pass or be lost
        return replace(outcome, degraded=lost)

    def _run_here(self, batch: QueryBatch, remaining_s: float) -> BatchOutcome:
        """Last place: this dispatcher thread."""
        return execute_pipeline(
            batch.graph,
            algorithm=batch.algorithm,
            options=batch.options,
            sources=batch.sources,
        )

    def _fail(
        self,
        tickets: List[QueryTicket],
        message: str,
        *,
        queue_s: float,
        timed_out: bool = False,
    ) -> None:
        for _ in tickets:
            self.metrics.observe("queue", queue_s)
            self.metrics.observe("total", queue_s)
        self.metrics.count(
            queries_total=len(tickets),
            queries_failed=len(tickets),
            queries_timed_out=len(tickets) if timed_out else 0,
        )
        for ticket in tickets:
            ticket._resolve(ticket._failed(message, queue_s=queue_s))


class ShardedAnalyticsService(AnalyticsService):
    """:class:`AnalyticsService` with ``shards=2`` unless told otherwise.

    Not a second service: it overrides nothing but the default, and
    exists for callers that spell the shard tier by class name.
    """

    def __init__(self, catalog: object = None, *, shards: int = 2, **kwargs) -> None:
        super().__init__(catalog, shards=shards, **kwargs)
