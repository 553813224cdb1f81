"""Sharded serving tier: scatter-gather analytics over shard executors.

The single-engine service answers each batch with one engine run.
This module splits that run across **shards**: the prepared graph is
partitioned by *destination ownership* (:func:`repro.multigpu.
partition.inedge_partition` — every node's complete in-edge set lands
on exactly one shard), one executor per shard runs the per-superstep
edge work (in-process, or remote over the same line-oriented
``tcp://`` framing the trace transport uses), and a router on the
dispatcher thread fans each superstep out and reduces the answers
back per algorithm:

* **bfs / sssp / sswp / cc** — min-plus (or max-min / min-label)
  BSP: each shard relaxes the frontier's edges it owns and returns
  the destinations whose value improved; because MIN/MAX folds are
  exact in float64 and each destination's in-edges never straddle
  shards, the merged per-superstep state — and therefore the final
  fixpoint — is **bitwise identical** to the single-engine run under
  any transform (monotone analytics are transform-invariant);
* **pr** — weighted merge: shards scatter ``rank/outdeg`` over their
  edge slices *in global CSR edge order* (the destination partition
  preserves it), the router assembles the disjoint owned
  contributions and applies damping, dangling redistribution, and the
  L1 convergence test exactly as :func:`repro.algorithms.pagerank.
  pagerank` does — term-for-term the same float additions, so ranks
  match bitwise.  Only untransformed PR plans shard (a transformed
  PR run sums in a different edge order); others fall back;
* **bc** and transformed PR — routed to the single-engine path
  unchanged.

That bitwise contract is what lets the golden traces replay through
the sharded router with zero digest mismatches — the acceptance gate
``serve --trace … --shards N`` enforces.

Shard-local artifacts are cached per shard under
``(partition fingerprint, kind, K)``: each shard's catalog holds its
prepared slice (``kind="prepared"``, recipe ``shardIofN``) and builds
virtual overlays *of the slice* on demand for virtual plans, so a
warm shard re-serves a plan without re-deriving anything.  Physical
(UDT) plans run on the raw slice — splitting rewrites destination
ids, which destination ownership cannot survive, and monotone values
are transform-invariant anyway.

Failure containment mirrors the process backend's
:class:`~repro.errors.WorkerLost` contract: a shard executor that
dies mid-batch (remote host unreachable, connection dropped) raises
the typed :class:`~repro.errors.ShardLost`, and the router retries
the batch once through the single-engine path with ``degraded=True``
on its results — a slower answer beats none.  Policy — tenant
quotas, priority classes, and the cost-model route choice — lives in
:mod:`repro.service.routing`; this module only asks it for
decisions.
"""

from __future__ import annotations

import base64
import heapq
import itertools
import json
import queue
import socket
import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.programs import (
    BFSProgram,
    CCProgram,
    SSSPProgram,
    SSWPProgram,
)
from repro.engine.push import EngineOptions, PushStep
from repro.engine.rank import RankStep, damp, inverse_out_degrees
from repro.engine.schedule import NodeScheduler, Scheduler, VirtualScheduler
from repro.errors import (
    QuotaExhaustedError,
    ServiceError,
    ShardLost,
    TigrError,
)
from repro.graph.csr import CSRGraph, NODE_DTYPE
from repro.multigpu.partition import inedge_partition
from repro.service.artifacts import ArtifactKey, TransformArtifact
from repro.service.batching import BatchExecution, QueryBatch
from repro.service.catalog import GraphCatalog
from repro.service.executor import AnalyticsService
from repro.service.planner import degrade_for_deadline, plan_query
from repro.service.query import QueryRequest
from repro.service.routing import RoutingPolicy
from repro.service.workers import BatchOutcome, transform_key

#: analytics the scatter-gather router can serve (bc is level-
#: synchronous with per-level state the reduce cannot merge; it always
#: takes the single-engine path).
SHARDABLE_ALGORITHMS = ("bfs", "sssp", "sswp", "cc", "pr")

#: PageRank loop constants — must mirror the defaults of
#: :func:`repro.algorithms.pagerank.pagerank`, which the unsharded
#: service runs; the parity tests pin the two together.
PR_DAMPING = 0.85
PR_TOLERANCE = 1e-10
PR_MAX_ITERATIONS = 100

#: default seconds a remote shard operation may take before the
#: connection is declared lost (covers one superstep round-trip).
SHARD_OP_TIMEOUT_S = 120.0

#: per-shard catalog budget: slices are small and per-slice overlays
#: smaller; 64 MiB holds many (kind, K) variants per shard.
SHARD_CATALOG_BYTES = 64 * 1024 * 1024

_PROGRAMS = {
    "bfs": BFSProgram,
    "sssp": SSSPProgram,
    "sswp": SSWPProgram,
    "cc": CCProgram,
}

_task_ids = itertools.count(1)


class _ShardRouteMiss(Exception):
    """Internal: this batch takes the single-engine path (not an error)."""


# ----------------------------------------------------------------------
# Wire helpers (remote shards speak line-oriented JSON, arrays as
# base64 raw bytes — the same framing discipline as the tcp:// trace
# transport, one JSON object per newline-terminated line)
# ----------------------------------------------------------------------
def _encode_array(array: np.ndarray) -> Dict[str, object]:
    array = np.ascontiguousarray(array)
    return {
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
        "dtype": array.dtype.str,
        "shape": list(array.shape),
    }


def _decode_array(obj: Dict[str, object]) -> np.ndarray:
    raw = base64.b64decode(str(obj["b64"]))
    array = np.frombuffer(raw, dtype=np.dtype(str(obj["dtype"])))
    return array.reshape([int(d) for d in obj["shape"]])  # type: ignore[union-attr]


def _nbytes(*arrays: Optional[np.ndarray]) -> int:
    return sum(int(a.nbytes) for a in arrays if a is not None)


# ----------------------------------------------------------------------
# Shard executors
# ----------------------------------------------------------------------
@dataclass
class _MonotoneTask:
    step: PushStep
    values: np.ndarray
    #: the step's write buffer; equals ``values`` between steps
    pending: np.ndarray


class LocalShard:
    """One shard's slice, catalog, and per-task superstep state.

    Holds the destination-owned subgraph (global node ids, only the
    owned nodes' in-edges) plus a private :class:`GraphCatalog` whose
    entries are keyed on the *partition's* fingerprint: the prepared
    slice itself (``kind="prepared"``, recipe ``shardIofN``) and any
    virtual overlays built for ``(kind, K)`` plans.  Task state is
    keyed by router-issued task ids so concurrent batches never share
    value arrays.
    """

    def __init__(
        self,
        index: int,
        subgraph: CSRGraph,
        owned: np.ndarray,
        *,
        label: str = "",
        catalog: Optional[GraphCatalog] = None,
    ) -> None:
        self.index = int(index)
        self.subgraph = subgraph
        self.owned = np.ascontiguousarray(owned, dtype=NODE_DTYPE)
        self.catalog = catalog or GraphCatalog(SHARD_CATALOG_BYTES)
        self._tasks: Dict[int, object] = {}
        self._lock = threading.Lock()
        key = ArtifactKey(
            subgraph.fingerprint(), "prepared", 0, label or f"shard{index}"
        )

        def build() -> TransformArtifact:
            return TransformArtifact(key=key, payload=subgraph, build_seconds=0.0)

        self.catalog.get_for_key(key, build)

    # -- monotone BSP --------------------------------------------------
    def begin(
        self,
        task: int,
        algorithm: str,
        kind: str,
        degree_bound: int,
        source: Optional[int],
        kernel_backend: Optional[str] = None,
    ) -> str:
        """Initialise one monotone run; returns the overlay cache origin.

        ``kernel_backend`` is the request's ``EngineOptions`` pin
        (``None`` resolves as any engine run does, against this
        slice's edge count).
        """
        program = _PROGRAMS[algorithm]()
        scheduler, origin = self._scheduler_for(kind, degree_bound)
        values = program.initial_values(self.subgraph.num_nodes, source)
        step = PushStep(
            scheduler, program, EngineOptions(kernel_backend=kernel_backend)
        )
        with self._lock:
            self._tasks[task] = _MonotoneTask(
                step=step, values=values, pending=values.copy()
            )
        return origin

    def _scheduler_for(self, kind: str, degree_bound: int) -> Tuple[Scheduler, str]:
        """The slice's engine view for one plan kind.

        Virtual plans get a virtual overlay *of the slice*, cached in
        this shard's catalog under ``(partition fingerprint, kind,
        K)``.  ``none`` and ``udt`` plans run the raw slice: physical
        splitting rewrites destination ids, which destination
        ownership cannot survive, and the monotone fixpoint is
        transform-invariant regardless.
        """
        if kind in ("virtual", "virtual+") and self.subgraph.num_edges:
            artifact, origin = self.catalog.get_or_build_with_origin(
                self.subgraph, kind, degree_bound
            )
            return VirtualScheduler(artifact.payload), origin
        return NodeScheduler(self.subgraph), ""

    def step(
        self, task: int, ids: np.ndarray, vals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One superstep: apply the merged updates, relax, report changes.

        ``ids``/``vals`` are the previous superstep's merged changes
        across *all* shards (the frontier); the return value is the
        owned destinations whose value improved, left uncommitted —
        they come back through the next merge, which keeps every
        shard's view identical to the router's.
        """
        state = self._monotone(task)
        values, pending = state.values, state.pending
        ids = np.ascontiguousarray(ids, dtype=NODE_DTYPE)
        if len(ids):
            values[ids] = vals
            pending[ids] = vals
        changed, _ = state.step(pending, values, ids)
        improved = pending[changed]
        pending[changed] = values[changed]
        return changed, improved

    # -- pagerank ------------------------------------------------------
    def pr_begin(
        self, task: int, inv_deg: np.ndarray,
        kernel_backend: Optional[str] = None,
    ) -> None:
        """Set up this slice's :class:`RankStep` for a PageRank run.

        ``inv_deg`` is the *global* inverse outdegree vector (a shard
        cannot derive full outdegrees from its in-edge slice, so the
        router broadcasts it once per run).
        """
        step = RankStep(
            NodeScheduler(self.subgraph), inv_deg,
            kernel_backend=kernel_backend,
        )
        with self._lock:
            self._tasks[task] = step

    def pr_step(self, task: int, rank: np.ndarray) -> np.ndarray:
        """Scatter one iteration's contributions; returns ``contrib[owned]``.

        The slice's edges sit in global CSR edge order (the
        destination partition filters without reordering), so each
        owned destination accumulates exactly the addition sequence
        the unsharded kernel performs — bitwise-equal partial sums.
        """
        return self._pagerank(task).scatter(rank)[self.owned]

    # -- lifecycle -----------------------------------------------------
    def finish(self, task: int) -> None:
        with self._lock:
            self._tasks.pop(task, None)

    def close(self) -> None:
        with self._lock:
            self._tasks.clear()

    def _monotone(self, task: int) -> _MonotoneTask:
        with self._lock:
            state = self._tasks.get(task)
        if not isinstance(state, _MonotoneTask):
            raise ServiceError(f"shard {self.index}: unknown monotone task {task}")
        return state

    def _pagerank(self, task: int) -> RankStep:
        with self._lock:
            state = self._tasks.get(task)
        if not isinstance(state, RankStep):
            raise ServiceError(f"shard {self.index}: unknown pagerank task {task}")
        return state


class RemoteShardHandle:
    """A shard whose executor lives behind ``tcp://host:port``.

    Speaks one JSON object per line (arrays as base64 raw bytes) to a
    :class:`ShardHostServer`, reusing the trace transport's framing
    discipline.  Any socket failure — refused connection, dropped
    peer, an operation exceeding ``op_timeout_s`` — tears the
    connection down and raises the typed :class:`ShardLost`, which the
    sharded service maps to its single-engine fallback exactly like
    the process backend maps :class:`~repro.errors.WorkerLost`.
    """

    def __init__(
        self,
        index: int,
        owned: np.ndarray,
        address: Tuple[str, int],
        key: str,
        *,
        op_timeout_s: float = SHARD_OP_TIMEOUT_S,
    ) -> None:
        self.index = int(index)
        self.owned = np.ascontiguousarray(owned, dtype=NODE_DTYPE)
        self.address = address
        self.key = key
        self.op_timeout_s = op_timeout_s
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file = None

    def load(self, subgraph: CSRGraph) -> None:
        """Ship the slice (CSR arrays + owned set) to the host."""
        payload: Dict[str, object] = {
            "op": "load",
            "key": self.key,
            "shard": self.index,
            "offsets": _encode_array(subgraph.offsets),
            "targets": _encode_array(subgraph.targets),
            "owned": _encode_array(self.owned),
        }
        if subgraph.weights is not None:
            payload["weights"] = _encode_array(subgraph.weights)
        self._call(payload)

    def begin(
        self,
        task: int,
        algorithm: str,
        kind: str,
        degree_bound: int,
        source: Optional[int],
        kernel_backend: Optional[str] = None,
    ) -> str:
        reply = self._call(
            {
                "op": "begin",
                "key": self.key,
                "task": task,
                "algorithm": algorithm,
                "kind": kind,
                "degree_bound": int(degree_bound),
                "source": source,
                # optional on the wire: null/absent = the host resolves
                "kernel_backend": kernel_backend,
            }
        )
        return str(reply.get("cache", ""))

    def step(
        self, task: int, ids: np.ndarray, vals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        reply = self._call(
            {
                "op": "step",
                "key": self.key,
                "task": task,
                "ids": _encode_array(np.asarray(ids, dtype=NODE_DTYPE)),
                "vals": _encode_array(np.asarray(vals, dtype=np.float64)),
            }
        )
        return (
            _decode_array(reply["ids"]).astype(NODE_DTYPE),  # type: ignore[arg-type]
            _decode_array(reply["vals"]),  # type: ignore[arg-type]
        )

    def pr_begin(
        self, task: int, inv_deg: np.ndarray,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self._call(
            {
                "op": "pr_begin",
                "key": self.key,
                "task": task,
                "inv_deg": _encode_array(inv_deg),
                "kernel_backend": kernel_backend,
            }
        )

    def pr_step(self, task: int, rank: np.ndarray) -> np.ndarray:
        reply = self._call(
            {
                "op": "pr_step",
                "key": self.key,
                "task": task,
                "rank": _encode_array(rank),
            }
        )
        return _decode_array(reply["contrib"])  # type: ignore[arg-type]

    def finish(self, task: int) -> None:
        try:
            self._call({"op": "finish", "key": self.key, "task": task})
        except ShardLost:
            pass  # a dead host holds no state worth releasing

    def close(self) -> None:
        self._teardown()

    # -- plumbing ------------------------------------------------------
    def _call(self, payload: Dict[str, object]) -> Dict[str, object]:
        try:
            with self._lock:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        self.address, timeout=self.op_timeout_s
                    )
                    self._file = self._sock.makefile("rwb")
                line = json.dumps(payload, separators=(",", ":")) + "\n"
                self._file.write(line.encode("ascii"))
                self._file.flush()
                raw = self._file.readline()
        except OSError as exc:
            self._teardown()
            raise ShardLost(
                f"remote shard at {self.address[0]}:{self.address[1]} "
                f"unreachable: {exc}",
                shard=self.index,
            ) from exc
        if not raw:
            self._teardown()
            raise ShardLost(
                f"remote shard at {self.address[0]}:{self.address[1]} "
                f"closed the connection mid-operation",
                shard=self.index,
            )
        try:
            reply = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardLost(
                f"remote shard sent an unparseable reply: {exc}",
                shard=self.index,
            ) from exc
        if reply.get("error"):
            # the host's library errors are real errors, not lost
            # workers — surface them like BatchReply.error does
            raise ServiceError(f"shard {self.index} host: {reply['error']}")
        return reply

    def _teardown(self) -> None:
        with self._lock:
            file, sock = self._file, self._sock
            self._file = None
            self._sock = None
        for closeable in (file, sock):
            if closeable is not None:
                try:
                    closeable.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Shard host: the remote-executor server side
# ----------------------------------------------------------------------
def _host_dispatch(
    shards: Dict[str, LocalShard], payload: Dict[str, object]
) -> Dict[str, object]:
    op = payload.get("op")
    if op == "load":
        weights = payload.get("weights")
        subgraph = CSRGraph(
            _decode_array(payload["offsets"]),  # type: ignore[arg-type]
            _decode_array(payload["targets"]),  # type: ignore[arg-type]
            None if weights is None else _decode_array(weights),  # type: ignore[arg-type]
            validate=False,
        )
        shards[str(payload["key"])] = LocalShard(
            int(payload.get("shard", 0)),
            subgraph,
            _decode_array(payload["owned"]),  # type: ignore[arg-type]
        )
        return {"ok": True}
    shard = shards.get(str(payload.get("key")))
    if shard is None:
        return {"error": f"unknown shard key {payload.get('key')!r} (load first)"}
    task = int(payload.get("task", 0))
    if op == "begin":
        source = payload.get("source")
        origin = shard.begin(
            task,
            str(payload["algorithm"]),
            str(payload["kind"]),
            int(payload["degree_bound"]),
            None if source is None else int(source),
            payload.get("kernel_backend"),  # type: ignore[arg-type]
        )
        return {"ok": True, "cache": origin}
    if op == "step":
        ids, vals = shard.step(
            task,
            _decode_array(payload["ids"]),  # type: ignore[arg-type]
            _decode_array(payload["vals"]),  # type: ignore[arg-type]
        )
        return {"ok": True, "ids": _encode_array(ids), "vals": _encode_array(vals)}
    if op == "pr_begin":
        shard.pr_begin(
            task,
            _decode_array(payload["inv_deg"]),  # type: ignore[arg-type]
            payload.get("kernel_backend"),  # type: ignore[arg-type]
        )
        return {"ok": True}
    if op == "pr_step":
        contrib = shard.pr_step(task, _decode_array(payload["rank"]))  # type: ignore[arg-type]
        return {"ok": True, "contrib": _encode_array(contrib)}
    if op == "finish":
        shard.finish(task)
        return {"ok": True}
    return {"error": f"unknown op {op!r}"}


class _ShardHostHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        shards: Dict[str, LocalShard] = {}
        for raw in self.rfile:
            try:
                payload = json.loads(raw.decode("utf-8"))
                reply = _host_dispatch(shards, payload)
            except TigrError as exc:
                reply = {"error": str(exc)}
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
                reply = {"error": f"malformed request: {exc}"}
            except Exception as exc:  # defensive: never kill the host loop
                reply = {"error": f"internal error: {exc!r}"}
            self.wfile.write(
                (json.dumps(reply, separators=(",", ":")) + "\n").encode("ascii")
            )


class ShardHostServer(socketserver.ThreadingTCPServer):
    """``repro shard-host``: serves shard slices over TCP.

    One thread per connection; each connection owns its shards and
    tasks (state never crosses connections, so two services pointing
    at one host cannot interfere).  ``server_address`` after
    construction carries the actual bound port — pass port 0 to let
    the OS pick.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__(address, _ShardHostHandler)


def parse_host_port(text: str) -> Tuple[str, int]:
    """``host:port`` (or ``tcp://host:port``) -> address tuple."""
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ServiceError(
            f"shard address must be host:port, got {text!r}"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# The scatter-gather router
# ----------------------------------------------------------------------
@dataclass
class ShardRunStats:
    """What one sharded batch cost the shard tier."""

    supersteps: int = 0
    exchange_bytes: int = 0
    per_shard_steps: Dict[int, int] = field(default_factory=dict)
    cache_origins: List[str] = field(default_factory=list)

    def count_step(self, shards: Sequence[object], nbytes: int) -> None:
        self.supersteps += 1
        self.exchange_bytes += nbytes
        for shard in shards:
            index = shard.index  # type: ignore[attr-defined]
            self.per_shard_steps[index] = self.per_shard_steps.get(index, 0) + 1


class ShardSet:
    """All shards of one prepared graph plus their superstep pool.

    One executor thread per shard: each superstep submits every
    shard's step concurrently and joins the results (numpy releases
    the GIL across slices; remote shards overlap on the network).
    """

    def __init__(self, prepared: CSRGraph, shards: List[object]) -> None:
        self.prepared = prepared
        self.shards = shards
        self._pool = ThreadPoolExecutor(
            max_workers=max(len(shards), 1),
            thread_name_prefix="repro-shard",
        )

    @staticmethod
    def build(
        prepared: CSRGraph,
        count: int,
        *,
        remotes: Sequence[Tuple[str, int]] = (),
        op_timeout_s: float = SHARD_OP_TIMEOUT_S,
    ) -> "ShardSet":
        """Partition ``prepared`` destination-wise into ``count`` shards.

        The first ``len(remotes)`` shards are hosted remotely (slices
        are shipped at build time); the rest run in-process.
        """
        if count < 1:
            raise ServiceError(f"need at least one shard, got {count}")
        partitions = inedge_partition(prepared, count)
        fingerprint = prepared.fingerprint()
        shards: List[object] = []
        for part in partitions:
            label = f"shard{part.device}of{count}"
            if part.device < len(remotes):
                handle = RemoteShardHandle(
                    part.device,
                    part.owned,
                    remotes[part.device],
                    key=f"{fingerprint[:24]}/{label}",
                    op_timeout_s=op_timeout_s,
                )
                handle.load(part.subgraph)
                shards.append(handle)
            else:
                shards.append(
                    LocalShard(
                        part.device, part.subgraph, part.owned, label=label
                    )
                )
        return ShardSet(prepared, shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # -- scatter helpers ----------------------------------------------
    def _on_all(self, call: Callable[[object], object]) -> List[object]:
        futures = [self._pool.submit(call, shard) for shard in self.shards]
        results = []
        error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # join every future before raising
                error = error or exc
        if error is not None:
            raise error
        return results

    # -- monotone analytics -------------------------------------------
    def run_monotone(
        self,
        algorithm: str,
        kind: str,
        degree_bound: int,
        sources: Tuple[int, ...],
        *,
        max_iterations: int = 100_000,
        kernel_backend: Optional[str] = None,
        stats: Optional[ShardRunStats] = None,
    ) -> Dict[int, np.ndarray]:
        """Scatter-gather BSP to the fixpoint, one run per source.

        Returns the same ``source -> values`` mapping (key ``-1`` for
        cc) as :func:`~repro.service.batching.run_sources_on_target`,
        bitwise-equal to the single-engine answer.
        """
        stats = stats if stats is not None else ShardRunStats()
        per_source: Dict[int, np.ndarray] = {}
        for source in sources or (None,):
            values = self._run_one_monotone(
                algorithm, kind, degree_bound, source,
                max_iterations=max_iterations,
                kernel_backend=kernel_backend, stats=stats,
            )
            per_source[-1 if source is None else int(source)] = values
        return per_source

    def _run_one_monotone(
        self,
        algorithm: str,
        kind: str,
        degree_bound: int,
        source: Optional[int],
        *,
        max_iterations: int,
        kernel_backend: Optional[str],
        stats: ShardRunStats,
    ) -> np.ndarray:
        program = _PROGRAMS[algorithm]()
        n = self.prepared.num_nodes
        values = program.initial_values(n, source)
        task = next(_task_ids)
        origins = self._on_all(
            lambda shard: shard.begin(  # type: ignore[attr-defined]
                task, algorithm, kind, degree_bound, source, kernel_backend
            )
        )
        stats.cache_origins.extend(str(origin) for origin in origins)
        try:
            upd_ids = program.initial_frontier(n, source).astype(NODE_DTYPE)
            upd_vals = values[upd_ids]
            supersteps = 0
            while len(upd_ids):
                if supersteps >= max_iterations:
                    raise ServiceError(
                        f"sharded {algorithm} did not converge within "
                        f"{max_iterations} supersteps"
                    )
                supersteps += 1
                ids, vals = upd_ids, upd_vals
                parts = self._on_all(
                    lambda shard: shard.step(task, ids, vals)  # type: ignore[attr-defined]
                )
                changed = [part[0] for part in parts]  # type: ignore[index]
                changed_vals = [part[1] for part in parts]  # type: ignore[index]
                merged_ids = np.concatenate(changed) if changed else upd_ids[:0]
                merged_vals = (
                    np.concatenate(changed_vals) if changed_vals else upd_vals[:0]
                )
                # owned sets are disjoint, so the merge is an ordering
                # choice only; sort for a deterministic frontier
                order = np.argsort(merged_ids, kind="stable")
                upd_ids = merged_ids[order]
                upd_vals = merged_vals[order]
                if len(upd_ids):
                    values[upd_ids] = upd_vals
                stats.count_step(
                    self.shards,
                    _nbytes(ids, vals) * len(self.shards)
                    + _nbytes(merged_ids, merged_vals),
                )
            return values
        finally:
            self._finish(task)

    # -- pagerank ------------------------------------------------------
    def run_pagerank(
        self,
        *,
        kernel_backend: Optional[str] = None,
        stats: Optional[ShardRunStats] = None,
    ) -> Dict[int, np.ndarray]:
        """Sharded PageRank on the untransformed prepared graph.

        Shards scatter their global-order edge slices; the router owns
        dangling redistribution, damping, and the L1 convergence test
        — the exact float recipe of the unsharded driver, term for
        term.
        """
        stats = stats if stats is not None else ShardRunStats()
        n = self.prepared.num_nodes
        if n == 0:
            return {-1: np.zeros(0)}
        inv_deg = inverse_out_degrees(self.prepared)
        dangling = np.flatnonzero(inv_deg == 0)
        rank = np.full(n, 1.0 / n)
        spare = np.empty(n)

        task = next(_task_ids)
        self._on_all(
            lambda shard: shard.pr_begin(  # type: ignore[attr-defined]
                task, inv_deg, kernel_backend
            )
        )
        try:
            for _ in range(PR_MAX_ITERATIONS):
                current = rank
                parts = self._on_all(
                    lambda shard: shard.pr_step(task, current)  # type: ignore[attr-defined]
                )
                contrib = np.zeros(n)
                returned = 0
                for shard, part in zip(self.shards, parts):
                    contrib[shard.owned] = part  # type: ignore[attr-defined]
                    returned += int(part.nbytes)  # type: ignore[union-attr]
                stats.count_step(
                    self.shards, int(rank.nbytes) * len(self.shards) + returned
                )
                delta = damp(rank, contrib, dangling, PR_DAMPING, spare)
                rank, spare = spare, rank
                if delta < PR_TOLERANCE:
                    break
            return {-1: rank}
        finally:
            self._finish(task)

    def _finish(self, task: int) -> None:
        try:
            self._on_all(lambda shard: shard.finish(task))  # type: ignore[attr-defined]
        except (ShardLost, ServiceError):
            pass  # releasing state on a dying shard is best-effort

    def close(self) -> None:
        for shard in self.shards:
            try:
                shard.close()  # type: ignore[attr-defined]
            except (OSError, ServiceError):
                pass
        self._pool.shutdown(wait=False)


# ----------------------------------------------------------------------
# Priority submission queue
# ----------------------------------------------------------------------
class _PriorityWorkQueue(queue.Queue):
    """A :class:`queue.Queue` whose backlog drains by priority class.

    Drop-in for the executor's submission queue: same bound, same
    ``Full``/``join`` semantics (only ``_init``/``_put``/``_get`` are
    overridden), but ``get`` returns the lowest-priority-number item
    first, FIFO within a class.  The shutdown sentinel (``None``)
    sorts last so close() drains real work before stopping workers.
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


# ----------------------------------------------------------------------
# The sharded service
# ----------------------------------------------------------------------
class ShardedAnalyticsService(AnalyticsService):
    """An :class:`AnalyticsService` that scatter-gathers across shards.

    Everything about submission, batching, ticketing, tracing, and
    metrics is inherited; three hooks change:

    * the submission queue is a priority queue ordered by the routing
      policy's per-tenant priority classes;
    * :meth:`submit_batch` charges each request against its tenant's
      token quota first (typed :class:`QuotaExhaustedError` -> HTTP
      429);
    * :meth:`_run_batch` tries the scatter-gather path for shardable
      plans and falls back to the inherited single-engine path (the
      thread *or* process backend — ``backend=`` composes) for
      everything else, including after a :class:`ShardLost` when
      ``shard_fallback`` is on (results then carry ``degraded=True``,
      mirroring the process backend's worker-loss contract).

    Parameters beyond the base service:

    shards:
        Shard count (>= 1; a single shard routes everything to the
        single-engine path — the degraded-operation mode the runbook
        describes).
    shard_remotes:
        ``(host, port)`` addresses of :class:`ShardHostServer`
        instances; the first ``len(shard_remotes)`` shards run there,
        the rest in-process.
    policy:
        A :class:`~repro.service.routing.RoutingPolicy`; defaults to
        unmetered tenants and an always-shard route.
    shard_fallback:
        Whether a lost shard degrades to the single-engine path
        (default) instead of failing the batch typed.  Tests switch it
        off to observe :class:`ShardLost`.
    """

    def __init__(
        self,
        catalog: Optional[GraphCatalog] = None,
        *,
        shards: int = 2,
        shard_remotes: Sequence[Tuple[str, int]] = (),
        policy: Optional[RoutingPolicy] = None,
        shard_fallback: bool = True,
        shard_op_timeout_s: float = SHARD_OP_TIMEOUT_S,
        **kwargs,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"need at least one shard, got {shards}")
        # the base constructor calls _make_queue, which reads policy
        self.policy = policy if policy is not None else RoutingPolicy()
        self.num_shards = int(shards)
        self.shard_remotes = tuple(shard_remotes)
        self.shard_fallback = bool(shard_fallback)
        self.shard_op_timeout_s = float(shard_op_timeout_s)
        self._shardsets: Dict[str, ShardSet] = {}
        self._shardsets_lock = threading.Lock()
        super().__init__(catalog, **kwargs)
        self.metrics.shards_configured(self.num_shards)

    # -- policy hooks --------------------------------------------------
    def _make_queue(self, queue_size: int) -> "queue.Queue":
        def priority_of(item: object) -> int:
            tickets = getattr(item, "tickets", ())
            return min(
                (self.policy.priority_for(t.request) for t in tickets),
                default=self.policy.default_priority,
            )

        return _PriorityWorkQueue(queue_size, priority_of)

    def submit_batch(
        self,
        requests: List[QueryRequest],
        *,
        block: bool = True,
        submit_timeout_s: Optional[float] = None,
    ) -> list:
        """Quota-admit, then submit (priority-ordered) as usual.

        Each request charges one token against its tenant's bucket as
        it is admitted; the first refusal rejects the whole submission
        (tokens already charged for earlier members stay spent — the
        caller is over budget either way).
        """
        for request in requests:
            wait_s = self.policy.try_admit(request.tenant)
            if wait_s > 0.0:
                self.metrics.quota_rejected_observed()
                raise QuotaExhaustedError(request.tenant, retry_after_s=wait_s)
        return super().submit_batch(
            requests, block=block, submit_timeout_s=submit_timeout_s
        )

    # -- execution -----------------------------------------------------
    def _run_batch(self, batch: QueryBatch, remaining_s: float) -> BatchOutcome:
        try:
            return self._run_sharded(batch, remaining_s)
        except _ShardRouteMiss:
            return self._run_batch_single(batch, remaining_s)
        except ShardLost:
            self.metrics.shard_fallback_observed()
            self._drop_shardsets()
            if not self.shard_fallback:
                raise
            outcome = self._run_batch_single(batch, remaining_s)
            return replace(outcome, degraded=True)

    def _run_batch_single(
        self, batch: QueryBatch, remaining_s: float
    ) -> BatchOutcome:
        """The inherited single-engine path (threads or processes)."""
        return super()._run_batch(batch, remaining_s)

    def _run_sharded(self, batch: QueryBatch, remaining_s: float) -> BatchOutcome:
        """Plan, route, and scatter-gather one batch.

        Raises :class:`_ShardRouteMiss` whenever the single-engine
        path should serve this batch instead: unshardable algorithm,
        transformed PR plan, or the policy routing it away.  Planner
        errors (pr/udt and friends) raise their usual typed errors
        here, with the same messages the unsharded pipeline produces —
        the planner is shared, so the error surface is too.
        """
        algorithm = batch.algorithm
        if algorithm not in SHARDABLE_ALGORITHMS:
            raise _ShardRouteMiss
        plan_start = time.perf_counter()
        prepared = self._prepare(batch.graph, algorithm)
        representative = QueryRequest(
            algorithm=algorithm,
            graph=batch.graph.fingerprint(),
            sources=batch.sources,
            transform=batch.transform,
            degree_bound=batch.degree_bound or None,
            options=batch.options,
        )
        plan = plan_query(representative, prepared)
        if plan.caches:
            plan = degrade_for_deadline(
                plan, prepared, remaining_s,
                artifact_cached=self.catalog.cached(transform_key(prepared, plan)),
            )
        if algorithm == "pr" and plan.transform != "none":
            # a transformed PR run sums contributions in the overlay's
            # edge order; only the untransformed plan is reproducible
            # shard-by-shard, so the rest keep the single-engine path
            raise _ShardRouteMiss
        decision = self.policy.choose_route(
            shardable=True,
            num_edges=prepared.num_edges,
            shards=self.num_shards,
        )
        if decision.route != "sharded":
            raise _ShardRouteMiss
        plan_s = time.perf_counter() - plan_start

        transform_start = time.perf_counter()
        shardset = self._shardset_for(prepared)
        transform_s = time.perf_counter() - transform_start

        execute_start = time.perf_counter()
        stats = ShardRunStats()
        if algorithm == "pr":
            per_source = shardset.run_pagerank(
                kernel_backend=batch.options.kernel_backend, stats=stats
            )
        else:
            per_source = shardset.run_monotone(
                algorithm,
                plan.transform,
                plan.degree_bound,
                batch.sources,
                max_iterations=batch.options.max_iterations,
                kernel_backend=batch.options.kernel_backend,
                stats=stats,
            )
        execute_s = time.perf_counter() - execute_start

        self.metrics.sharded_observed(
            supersteps=stats.supersteps,
            exchange_bytes=stats.exchange_bytes,
            per_shard_steps=stats.per_shard_steps,
        )
        runs = max(len(batch.sources), 1)
        return BatchOutcome(
            per_source=per_source,
            transform=plan.transform,
            degree_bound=plan.degree_bound,
            degraded=plan.degraded,
            cache_hit=bool(stats.cache_origins)
            and all(origin in ("memory", "disk") for origin in stats.cache_origins),
            plan_s=plan_s,
            transform_s=transform_s,
            execute_s=execute_s,
            execution=BatchExecution(
                traversals=runs, lanes=runs, traversals_saved=0,
                strategy="sharded",
            ),
        )

    def _shardset_for(self, prepared: CSRGraph) -> ShardSet:
        """The (cached) shard set of one prepared graph.

        Keyed by content fingerprint, so bfs and pr on one dataset
        share slices (both prepare to the weight-stripped graph) while
        cc's symmetrised preparation gets its own.
        """
        fingerprint = prepared.fingerprint()
        with self._shardsets_lock:
            shardset = self._shardsets.get(fingerprint)
            if shardset is None:
                shardset = ShardSet.build(
                    prepared,
                    self.num_shards,
                    remotes=self.shard_remotes,
                    op_timeout_s=self.shard_op_timeout_s,
                )
                self._shardsets[fingerprint] = shardset
            return shardset

    def _drop_shardsets(self) -> None:
        """Forget cached shard sets after a loss (rebuilt on demand).

        A lost remote shard poisons every shard set holding a handle
        to it; dropping them forces the next sharded batch to re-ship
        slices — which either heals (host restarted) or loses again
        and falls back, never wedges.
        """
        with self._shardsets_lock:
            dropped, self._shardsets = self._shardsets, {}
        for shardset in dropped.values():
            shardset.close()

    # -- lifecycle -----------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        super().close(wait=wait)
        if wait:
            self._drop_shardsets()
