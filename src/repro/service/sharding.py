"""Sharded serving tier: scatter-gather analytics over shard executors.

The single-engine service answers each batch with one engine run.
This module splits that run across **shards**: the prepared graph is
partitioned by *destination ownership* (:func:`repro.multigpu.
partition.inedge_partition` — every node's complete in-edge set lands
on exactly one shard), one executor per shard runs the per-superstep
edge work (in-process, or remote over one length-prefixed binary
frame, :func:`encode_frame`), and a router on the
dispatcher thread fans each superstep out and reduces the answers
back per algorithm:

* **bfs / sssp / sswp** — min-plus (or max-min) BSP: each shard
  relaxes the frontier's edges it owns and returns the destinations
  whose value improved; because MIN/MAX folds are exact in float64 and
  each destination's in-edges never straddle shards, the merged
  per-superstep state — and therefore the final fixpoint — is
  **bitwise identical** to the single-engine run under any transform
  (monotone analytics are transform-invariant);
* **cc** — one exchange: each shard labels its slice's weak
  components (the compiled ``components`` union-find), and the router
  folds the S label arrays with the same unit — an edge ``v -> L[v]``
  per array joins exactly what that slice joined, so the fold's least
  ids are the whole graph's, bitwise what min-label propagation
  reaches;
* **pr** — weighted merge: shards gather ``rank/outdeg`` over their
  edge slices *in global CSR edge order* (the destination partition
  preserves it), the router assembles the disjoint owned
  contributions and applies damping, dangling redistribution, and the
  L1 convergence test exactly as :func:`repro.algorithms.pagerank.
  pagerank` does — term-for-term the same float additions, so ranks
  match bitwise under any plan (every walk hands each destination its
  sources in ascending order, so every plan's ranks are the
  untransformed run's; ``run_pagerank`` ignores the plan);
* **bc** — routed to the single-engine path unchanged.

That bitwise contract is what lets the golden traces replay through
the sharded router with zero digest mismatches — the acceptance gate
``serve --trace … --shards N`` enforces.

A shard is its slice and a superstep: it caches nothing and builds
no transform.  Every request serves the CSR, so the one thing the
tier builds is its shard set, kept per graph until a loss drops it.
(Transform × partition composition, the paper's §7.2 claim, is
:mod:`repro.multigpu`'s.)

Failure containment is the service's one rule, not this module's: a
shard executor that dies mid-batch (remote host unreachable,
connection dropped) raises the typed :class:`~repro.errors.ShardLost`
out of :meth:`ShardTier.run`, and :class:`~repro.service.executor.
AnalyticsService` moves the batch to its next place with
``degraded=True`` on the results — a slower answer beats none.  The
tier is one *place* a batch can run (the first the service tries when
``shards`` is set); it owns the shard-set cache and drops it on a
loss, nothing else.  Policy — the cost-model route choice, like the
tenant quotas and priority classes the service applies at admission —
lives in :mod:`repro.service.routing`; this module only asks it for
decisions.

The host loop (:func:`serve_frames`) serves two kinds of peer over one
frame: ``repro shard-host`` connections, and the service's own
:class:`LocalHost` processes — its process place — whose extra ``run``
op executes one whole batch (:func:`~repro.service.workers.
execute_pipeline`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.cc import weak_components
from repro.algorithms.programs import BFSProgram, SSSPProgram, SSWPProgram
from repro.engine.push import EngineOptions, PushStep
from repro.engine.rank import RankStep, damp, inverse_out_degrees
from repro.engine.schedule import NodeScheduler
from repro.errors import ServiceError, ShardLost, TigrError
from repro.graph.csr import CSRGraph, NODE_DTYPE
from repro.graph.io import load_npz
from repro.multigpu.partition import inedge_partition
from repro.service.batching import BatchExecution, QueryBatch
from repro.service.metrics import ServiceMetrics
from repro.service.routing import RoutingPolicy
from repro.service.workers import (
    CRASH_SOURCE_ENV,
    BatchOutcome,
    BatchSpec,
    execute_pipeline,
    prepare,
)

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

_PROGRAMS = {
    "bfs": BFSProgram,
    "sssp": SSSPProgram,
    "sswp": SSWPProgram,
}

_task_ids = itertools.count(1)


# ----------------------------------------------------------------------
# The frame: every host, local or ``tcp://``, speaks only this
# ----------------------------------------------------------------------
#: dtypes an array may carry on the wire: node ids and offsets, values
#: and weights.  Anything else (objects, strings) is a bad frame.
WIRE_DTYPES = ("<i8", "<f8")

#: bytes a frame's JSON header may announce; a bigger one is a bad frame
MAX_HEADER_BYTES = 1 << 20

_PREFIX = struct.Struct("<I")


def encode_frame(message: Dict[str, object]) -> bytes:
    """``message`` as one frame.

    A little-endian ``u32`` header length, then the JSON header
    ``{"message": ..., "arrays": [[dtype, shape, nbytes], ...]}`` where
    each array in ``message`` is replaced by ``{"@": index}`` (tuples
    travel as lists), then each array's raw bytes.
    """
    arrays: List[np.ndarray] = []
    specs: List[List[object]] = []

    def reference(value: object) -> Dict[str, int]:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} cannot cross the wire")
        arrays.append(np.ascontiguousarray(value))
        specs.append([arrays[-1].dtype.str, arrays[-1].shape, arrays[-1].nbytes])
        return {"@": len(arrays) - 1}

    # "message" encodes first, so ``specs`` is complete when "arrays" is
    header = json.dumps(
        {"message": message, "arrays": specs}, default=reference,
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([_PREFIX.pack(len(header)), header, *arrays])


def write_frame(stream, message: Dict[str, object]) -> int:
    """Write one frame and flush; returns its size in bytes."""
    frame = encode_frame(message)
    stream.write(frame)
    stream.flush()
    return len(frame)


def read_frame(stream) -> Tuple[Optional[Dict[str, object]], int]:
    """One frame off ``stream``: ``(message, its size in bytes)``.

    ``(None, 0)`` is a clean end of stream.  Anything that is not one
    whole frame — truncated, a header over :data:`MAX_HEADER_BYTES`, a
    dtype off :data:`WIRE_DTYPES`, a byte count that is not dtype x
    shape — raises ``ValueError``: the stream cannot be trusted after it.
    """
    prefix = stream.read(_PREFIX.size)
    if not prefix:
        return None, 0
    if len(prefix) < _PREFIX.size:
        raise ValueError("truncated frame")
    (size,) = _PREFIX.unpack(prefix)
    if size > MAX_HEADER_BYTES:
        raise ValueError(f"frame header of {size} bytes is over the "
                         f"{MAX_HEADER_BYTES}-byte cap")
    header = _read_exactly(stream, bytearray(size))
    try:
        arrays = [_read_array(stream, *spec) for spec in json.loads(header)["arrays"]]
        message = json.loads(header, object_hook=lambda obj: (
            arrays[obj["@"]] if list(obj) == ["@"] else obj))["message"]
    except (KeyError, TypeError, IndexError, MemoryError) as exc:
        raise ValueError(f"malformed frame: {exc!r}") from exc
    if not isinstance(message, dict):
        raise ValueError("a frame carries one JSON object")
    return message, _PREFIX.size + size + sum(a.nbytes for a in arrays)


def _read_array(stream, dtype: str, shape: List[int], nbytes: int) -> np.ndarray:
    if dtype not in WIRE_DTYPES:
        raise ValueError(f"dtype {dtype!r} is not one of {WIRE_DTYPES}")
    if not all(type(d) is int and d >= 0 for d in shape) or (
            math.prod(shape) * np.dtype(dtype).itemsize != nbytes):
        raise ValueError(f"{nbytes!r} bytes are not a {dtype} array of shape {shape!r}")
    array = np.empty(shape, dtype)
    _read_exactly(stream, array.reshape(-1).view(np.uint8))
    return array


def _read_exactly(stream, buffer):
    """Fill ``buffer`` from a buffered ``stream``, which reads until it
    is full or the stream ends (a truncated frame)."""
    if stream.readinto(buffer) < memoryview(buffer).nbytes:
        raise ValueError("truncated frame")
    return buffer


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
    """One shard's slice and per-task superstep state.

    Holds the destination-owned subgraph (global node ids, only the
    owned nodes' in-edges) and steps it under every plan.  Task state
    is keyed by router-issued task ids so concurrent batches never
    share value arrays.
    """

    def __init__(self, index: int, subgraph: CSRGraph, owned: np.ndarray) -> None:
        self.index = int(index)
        self.subgraph = subgraph
        self.owned = np.ascontiguousarray(owned, dtype=NODE_DTYPE)
        self._tasks: Dict[int, object] = {}
        self._lock = threading.Lock()

    # -- monotone BSP --------------------------------------------------
    def begin(
        self,
        task: int,
        algorithm: str,
        source: Optional[int],
        kernel_backend: Optional[str] = None,
    ) -> None:
        """Initialise one monotone run on the slice.

        ``kernel_backend`` is the request's ``EngineOptions`` pin
        (``None`` resolves as any engine run does, against this
        slice's edge count).
        """
        program = _PROGRAMS[algorithm]()
        values = program.initial_values(self.subgraph.num_nodes, source)
        step = PushStep(
            NodeScheduler(self.subgraph), program,
            EngineOptions(kernel_backend=kernel_backend),
        )
        with self._lock:
            self._tasks[task] = _MonotoneTask(
                step=step, values=values, pending=values.copy()
            )

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
        state = self._task(task, _MonotoneTask, "monotone")
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
        """Gather one iteration's contributions; returns ``contrib[owned]``.

        The slice's edges sit in global CSR edge order (the
        destination partition filters without reordering), so each
        owned destination accumulates exactly the addition sequence
        the unsharded kernel performs — bitwise-equal partial sums.
        """
        return self._task(task, RankStep, "pagerank").gather(rank)[self.owned]

    # -- connected components ----------------------------------------
    def components(self, kernel_backend: Optional[str] = None) -> np.ndarray:
        """The weak component labels of this slice (the owned nodes'
        in-edges, direction ignored): each node's least id among the
        nodes those edges join it to.  One call; it keeps no task."""
        return weak_components(
            self.subgraph, options=EngineOptions(kernel_backend=kernel_backend))

    # -- lifecycle -----------------------------------------------------
    def finish(self, task: int) -> None:
        with self._lock:
            self._tasks.pop(task, None)

    def close(self) -> None:
        with self._lock:
            self._tasks.clear()

    def _task(self, task: int, kind: type, label: str):
        with self._lock:
            state = self._tasks.get(task)
        if not isinstance(state, kind):
            raise ServiceError(f"shard {self.index}: unknown {label} task {task}")
        return state


#: the superstep ops a shard answers, local or remote — the allow-list
#: the shard host dispatches on and the names :class:`RemoteShardHandle`
#: forwards.  ``load`` (it *constructs* the shard) and ``run`` (a whole
#: batch, local hosts only) are the two hand-written ops.
SHARD_OPS = ("begin", "step", "pr_begin", "pr_step", "components", "finish")


#: each op's parameters minus ``self`` (bound to no shard):
#: :class:`LocalShard`'s own parameter names *are* the wire fields.
_OP_SIGNATURES = {
    op: inspect.signature(functools.partial(getattr(LocalShard, op), None))
    for op in SHARD_OPS
}


def run_request(spec: BatchSpec) -> Dict[str, object]:
    """The ``run`` op's request: ``spec``'s fields, its options' fields."""
    return {"op": "run", "spec": {**vars(spec), "options": vars(spec.options)}}


class RemoteShardHandle:
    """A host behind ``tcp://host:port`` or one end of a socketpair.

    One frame out per op, one back (:func:`encode_frame`).  A socket
    failure — refused connection, dropped peer, an op exceeding
    ``op_timeout_s`` (``None``: no bound), a reply that is not a frame
    — tears the connection down (a socket ``address`` never reconnects)
    and raises the typed :class:`ShardLost`, which the service's
    fallback rule treats like any lost place: the batch moves to the
    next one.  So do a refused request and a reply that is not what
    :class:`LocalShard` (for ``run``: ``execute_pipeline``) returns.
    """

    def __init__(
        self,
        index: int,
        owned: np.ndarray,
        address,
        key: str,
        *,
        op_timeout_s: Optional[float] = SHARD_OP_TIMEOUT_S,
    ) -> None:
        self.index = int(index)
        self.owned = np.ascontiguousarray(owned, dtype=NODE_DTYPE)
        self.address = address
        self.key = key
        self.op_timeout_s = op_timeout_s
        #: frame bytes sent and received, over the handle's lifetime
        self.wire_bytes = 0
        #: the loaded slice's node count (what a ``components`` reply labels)
        self.num_nodes: Optional[int] = None
        self.where = (
            f"remote shard at {address[0]}:{address[1]}"
            if isinstance(address, tuple) else "local host"
        )
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._file = None

    def load(self, subgraph: CSRGraph) -> None:
        """Ship the slice (CSR arrays + owned set) to the host."""
        message: Dict[str, object] = {
            "op": "load",
            "key": self.key,
            "shard": self.index,
            "offsets": subgraph.offsets,
            "targets": subgraph.targets,
            "owned": self.owned,
        }
        if subgraph.weights is not None:
            message["weights"] = subgraph.weights
        self._call(message)
        self.num_nodes = subgraph.num_nodes

    def run(self, spec: BatchSpec, num_nodes: int) -> BatchOutcome:
        """Execute one whole batch in the host process."""
        reply = self._call(run_request(spec))
        return self._checked("run", reply.get("result"),
                             (spec.sources or (-1,), num_nodes))

    def __getattr__(self, op: str) -> Callable[..., object]:
        """Every :data:`SHARD_OPS` name is a method: one frame out, one back.

        A new superstep op is one :class:`LocalShard` method and one
        ``SHARD_OPS`` entry; nothing here names an op.
        """
        if op not in SHARD_OPS:
            raise AttributeError(op)

        def call(*args: object, **kwargs: object) -> object:
            bound = _OP_SIGNATURES[op].bind(*args, **kwargs)
            # defaults ride along (``kernel_backend`` travels as null:
            # optional on the wire, null/absent = the host resolves)
            bound.apply_defaults()
            reply = self._call({"op": op, "key": self.key, **bound.arguments})
            return self._checked(op, reply.get("result"))

        return call

    def _checked(self, op: str, value: object, expect: Tuple = ()) -> object:
        """Check ``op``'s result is what :class:`LocalShard` (for ``run``:
        ``execute_pipeline``, with ``expect = (sources, nodes)``) returns
        before anyone indexes with it: a reply that fails is a lost shard
        (and the batch falls back), never an answer."""
        try:
            if op == "step":
                # every id owned (``owned`` is sorted; an id past the
                # last one indexes out of range)
                ids, vals = value
                ok = (ids.dtype == NODE_DTYPE and ids.ndim == 1
                      and vals.dtype == np.float64 and vals.shape == ids.shape
                      and np.array_equal(
                          self.owned[np.searchsorted(self.owned, ids)], ids))
            elif op == "pr_step":
                ok = value.dtype == np.float64 and value.shape == self.owned.shape
            elif op == "components":
                # 0 <= L[v] <= v: the fold hands them to C as node ids
                ok = (value.dtype == np.float64 and value.shape == (self.num_nodes,)
                      and bool(np.all((value >= 0)
                                      & (value <= np.arange(len(value))))))
            elif op == "run":
                sources, nodes = expect
                value = BatchOutcome(**{
                    **value, "per_source": dict(value["per_source"]),
                    "execution": BatchExecution(**value["execution"]),
                })
                ok = set(value.per_source) == set(sources) and all(
                    values.dtype == np.float64 and values.shape == (nodes,)
                    for values in value.per_source.values())
            else:
                ok = True
        except (ValueError, TypeError, KeyError, AttributeError, IndexError):
            ok = False  # not the arrays the op returns
        if not ok:
            raise ShardLost(f"{self.where} sent a malformed {op!r} reply",
                            shard=self.index)
        return value

    # -- plumbing ------------------------------------------------------
    def _call(self, message: Dict[str, object]) -> Dict[str, object]:
        try:
            with self._lock:
                if self._file is None:
                    self._sock = (
                        socket.create_connection(self.address, self.op_timeout_s)
                        if isinstance(self.address, tuple) else self.address
                    )
                    self._file = self._sock.makefile("rwb")
                self._sock.settimeout(self.op_timeout_s)
                sent = write_frame(self._file, message)
                reply, received = read_frame(self._file)
                self.wire_bytes += sent + received
        except (OSError, ValueError) as exc:
            self.close()
            raise ShardLost(f"{self.where} unreachable: {exc}",
                            shard=self.index) from exc
        if reply is None:
            self.close()
            raise ShardLost(f"{self.where} closed the connection mid-operation",
                            shard=self.index)
        if reply.get("refused"):
            raise ShardLost(f"{self.where} refused the request: {reply['refused']}",
                            shard=self.index)
        if reply.get("error"):
            # the host's library errors are real errors, not lost places:
            # the same message the op raises in process
            raise ServiceError(str(reply["error"]))
        return reply

    def close(self) -> None:
        """Tear the connection down (a ``tcp://`` one reopens lazily; a
        closed socketpair end fails the next op, which is a lost host)."""
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
# The host loop: ``repro shard-host`` connections and local hosts
# ----------------------------------------------------------------------
def serve_frames(
    rfile, wfile, run: Optional[Callable[[Dict], Dict]] = None
) -> None:
    """One connection: a frame in, a frame out, until the peer hangs up.

    A reply is ``{"ok": true, "result": ...}``, ``{"error": ...}`` (the
    op raised a library error) or ``{"refused": ...}`` (no such op, key
    or arguments; ``run`` on a host started without one).  Something
    that is not a frame ends the connection: the stream cannot be
    trusted after it.  Each connection owns its shards, so peers never
    share state.
    """
    shards: Dict[str, LocalShard] = {}
    try:
        while True:
            message, _ = read_frame(rfile)
            if message is None:
                return
            try:
                reply = _host_dispatch(shards, message, run)
            except TigrError as exc:
                reply = {"error": str(exc)}
            except KeyError as exc:
                reply = {"refused": f"malformed request: missing {exc}"}
            except Exception as exc:  # defensive: never kill the host loop
                reply = {"error": f"internal error: {exc!r}"}
            write_frame(wfile, reply)
    except (OSError, ValueError):
        return  # the peer went away, or sent something that is not a frame


def _host_dispatch(
    shards: Dict[str, LocalShard],
    message: Dict[str, object],
    run: Optional[Callable[[Dict], Dict]] = None,
) -> Dict[str, object]:
    op = message.get("op")
    if op == "run":
        if run is None:
            return {"refused": "'run' is served only by a service's own hosts"}
        return {"ok": True, "result": run(message["spec"])}  # type: ignore[arg-type]
    if op == "load":
        # the slice comes off the network: validate it (a target >= n
        # would reach a compiled step, whose gates trust the graph)
        subgraph = CSRGraph(
            message["offsets"], message["targets"], message.get("weights"),  # type: ignore[arg-type]
        )
        owned = np.asarray(message["owned"])
        n = subgraph.num_nodes
        if (owned.ndim != 1 or owned.dtype.kind not in "iu"
                or len(owned) and (owned.min() < 0 or owned.max() >= n)):
            raise ServiceError(f"owned ids must be 1-D integers in [0, {n})")
        shards[str(message["key"])] = LocalShard(
            int(message.get("shard", 0)), subgraph, owned  # type: ignore[arg-type]
        )
        return {"ok": True}
    shard = shards.get(str(message.get("key")))
    if shard is None:
        return {"refused": f"unknown shard key {message.get('key')!r} (load first)"}
    if op not in SHARD_OPS:
        return {"refused": f"unknown op {op!r}"}
    fields = {k: v for k, v in message.items() if k not in ("op", "key")}
    try:
        _OP_SIGNATURES[op].bind(**fields)
    except TypeError as exc:
        return {"refused": f"bad arguments for op {op!r}: {exc}"}
    return {"ok": True, "result": getattr(shard, op)(**fields)}


def _run(graphs: Dict[str, CSRGraph], fields: Dict[str, object]) -> Dict[str, object]:
    """The ``run`` op: one :class:`BatchSpec` through ``execute_pipeline``
    in a local host, its graph memoised in ``graphs``."""
    spec = BatchSpec(**{  # type: ignore[arg-type]
        **fields, "sources": tuple(fields["sources"]),  # type: ignore[arg-type]
        "options": EngineOptions(**fields["options"]),  # type: ignore[arg-type]
    })
    crash_on = os.environ.get(CRASH_SOURCE_ENV)
    if crash_on is not None and int(crash_on) in spec.sources:
        os._exit(17)  # test hook: simulate a host crash
    graph = graphs.get(spec.graph_fingerprint)
    if graph is None:
        if not os.path.exists(spec.graph_path):
            raise ServiceError(
                f"graph {spec.graph_fingerprint[:12]} not found in shared "
                f"store at {spec.graph_path}"
            )
        graph = graphs[spec.graph_fingerprint] = load_npz(spec.graph_path)
    outcome = execute_pipeline(
        graph, algorithm=spec.algorithm,
        options=spec.options, sources=spec.sources,
    )
    return {
        **vars(outcome),
        "per_source": list(outcome.per_source.items()),
        "execution": vars(outcome.execution),
    }


class _ShardHostHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        serve_frames(self.rfile, self.wfile)


class ShardHostServer(socketserver.ThreadingTCPServer):
    """``repro shard-host``: serves shard slices over TCP.

    One thread per connection, each running :func:`serve_frames`
    without ``run``.  ``server_address`` after construction carries the
    actual bound port — pass port 0 to let the OS pick.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int]) -> None:
        super().__init__(address, _ShardHostHandler)


def _host_main(sock: socket.socket) -> None:
    """A local host process: the host loop with ``run`` over ``sock``."""
    with sock:
        serve_frames(sock.makefile("rb"), sock.makefile("wb"),
                     functools.partial(_run, {}))


#: held while a pair is made and its host started, so no host is
#: forked holding another host's end (whose crash it would then hide)
_START_LOCK = threading.Lock()


class LocalHost(RemoteShardHandle):
    """A service's own host: a forked (else spawned) process serving
    :func:`serve_frames` with ``run`` over one end of a
    ``socket.socketpair()``, and the handle speaking to it.  Graphs
    reach it by path (:class:`BatchSpec`), never over the socket."""

    def __init__(self) -> None:
        import multiprocessing  # here: a threads boot never loads it

        # fork reuses this imported interpreter (~ms); spawn boots one (~s)
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with _START_LOCK:
            ours, theirs = socket.socketpair()
            self.process = multiprocessing.get_context(method).Process(
                target=_host_main, name="repro-host", daemon=True,
                args=(theirs,),
            )
            try:
                self.process.start()
            finally:
                theirs.close()
        super().__init__(-1, (), ours, key="")

    def kill(self) -> None:
        self.close()
        self.process.kill()
        self.process.join()


def parse_host_port(text: str, what: str = "shard address") -> Tuple[str, int]:
    """``host:port`` (or ``tcp://host:port``) -> address tuple; an empty
    host is ``127.0.0.1``, and port 0 asks a listener to pick one."""
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdecimal() or int(port) > 65535:
        raise ServiceError(
            f"{what} must be host:port with a port in 0-65535, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


# ----------------------------------------------------------------------
# The scatter-gather router
# ----------------------------------------------------------------------
@dataclass
class ShardRunStats:
    """What one sharded batch cost the shard tier."""

    supersteps: int = 0
    exchange_bytes: int = 0

    def count_step(self, nbytes: int) -> None:
        self.supersteps += 1
        self.exchange_bytes += nbytes


class ShardSet:
    """All shards of one prepared graph, and a pool for the remote ones.

    Each superstep puts every remote shard's op in flight on the pool
    (one thread per remote: they overlap on the network), steps the
    in-process slices on the calling thread meanwhile, then joins.  A
    pool buys in-process slices nothing: their steps hold the GIL for
    most of a superstep, and the hand-offs cost more than the overlap
    (``docs/sharding.md``).  A set with no remote shard starts no pool.
    """

    def __init__(self, prepared: CSRGraph, shards: List[object]) -> None:
        self.prepared = prepared
        self.shards = shards
        remotes = sum(isinstance(s, RemoteShardHandle) for s in shards)
        self._pool = ThreadPoolExecutor(
            max_workers=remotes, thread_name_prefix="repro-shard",
        ) if remotes else None

    @staticmethod
    def build(
        prepared: CSRGraph,
        count: int,
        *,
        remotes: Sequence[Tuple[str, int]] = (),
    ) -> "ShardSet":
        """Partition ``prepared`` destination-wise into ``count`` shards.

        The first ``len(remotes)`` shards are hosted remotely (slices
        are shipped at build time); the rest run in-process.  A failed
        build closes every connection it opened before re-raising.
        """
        if count < 1:
            raise ServiceError(f"need at least one shard, got {count}")
        partitions = inedge_partition(prepared, count)
        fingerprint = prepared.fingerprint()
        shards: List[object] = []
        try:
            for part in partitions:
                if part.device < len(remotes):
                    handle = RemoteShardHandle(
                        part.device,
                        part.owned,
                        remotes[part.device],
                        key=f"{fingerprint[:24]}/shard{part.device}of{count}",
                    )
                    shards.append(handle)
                    handle.load(part.subgraph)
                else:
                    shards.append(
                        LocalShard(part.device, part.subgraph, part.owned)
                    )
        except BaseException:
            for shard in shards:
                shard.close()  # type: ignore[attr-defined]
            raise
        return ShardSet(prepared, shards)

    # -- scatter helpers ----------------------------------------------
    def _on_all(self, call: Callable[[object], object]) -> List[object]:
        """``call(shard)`` for every shard -> the results in shard order;
        every call ends before the first error is raised."""
        futures = {
            index: self._pool.submit(call, shard)  # type: ignore[union-attr]
            for index, shard in enumerate(self.shards)
            if isinstance(shard, RemoteShardHandle)
        }
        results: List[object] = [None] * len(self.shards)
        error: Optional[BaseException] = None
        # the in-process slices first, while the remote ones are in flight
        for index in [i for i in range(len(self.shards)) if i not in futures] + [*futures]:
            try:
                results[index] = (futures[index].result() if index in futures
                                  else call(self.shards[index]))
            except BaseException as exc:  # join every future before raising
                error = error or exc
        if error is not None:
            raise error
        return results

    # -- monotone analytics -------------------------------------------
    def run_monotone(
        self,
        algorithm: str,
        sources: Tuple[int, ...],
        *,
        max_iterations: int = 100_000,
        kernel_backend: Optional[str] = None,
        stats: Optional[ShardRunStats] = None,
    ) -> Dict[int, np.ndarray]:
        """Scatter-gather BSP to the fixpoint, one run per source.

        Returns the same ``source -> values`` mapping as
        :func:`~repro.service.batching.run_sources_on_target`,
        bitwise-equal to the single-engine answer under any plan.
        """
        stats = stats if stats is not None else ShardRunStats()
        return {
            int(source): self._run_one_monotone(
                algorithm, source, max_iterations=max_iterations,
                kernel_backend=kernel_backend, stats=stats,
            )
            for source in sources
        }

    def _run_one_monotone(
        self,
        algorithm: str,
        source: int,
        *,
        max_iterations: int,
        kernel_backend: Optional[str],
        stats: ShardRunStats,
    ) -> np.ndarray:
        program = _PROGRAMS[algorithm]()
        n = self.prepared.num_nodes
        values = program.initial_values(n, source)
        task = next(_task_ids)
        self._on_all(
            lambda shard: shard.begin(  # type: ignore[attr-defined]
                task, algorithm, source, kernel_backend
            )
        )
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
                    _nbytes(ids, vals) * len(self.shards)
                    + _nbytes(merged_ids, merged_vals)
                )
            return values
        finally:
            self._finish(task)

    # -- connected components ----------------------------------------
    def run_components(
        self,
        *,
        kernel_backend: Optional[str] = None,
        stats: Optional[ShardRunStats] = None,
    ) -> Dict[int, np.ndarray]:
        """Sharded cc in one exchange: every shard's slice labels, folded.

        The fold is one more ``components`` run, over a graph whose row
        ``v`` holds ``L[v]`` of each of the S label arrays: it joins what
        each slice joined, so its least ids are the whole graph's.  One
        superstep; its exchange is the S label arrays.
        """
        stats = stats if stats is not None else ShardRunStats()
        labels = self._on_all(
            lambda shard: shard.components(kernel_backend)  # type: ignore[attr-defined]
        )
        n, count = self.prepared.num_nodes, len(labels)
        stats.count_step(_nbytes(*labels))  # type: ignore[arg-type]
        rows = np.empty((n, count), dtype=NODE_DTYPE)
        for column, part in enumerate(labels):
            rows[:, column] = part
        fold = CSRGraph(np.arange(n + 1, dtype=NODE_DTYPE) * count,
                        rows.reshape(-1), validate=False)
        return {-1: weak_components(
            fold, options=EngineOptions(kernel_backend=kernel_backend))}

    # -- pagerank ------------------------------------------------------
    def run_pagerank(
        self,
        *,
        kernel_backend: Optional[str] = None,
        stats: Optional[ShardRunStats] = None,
    ) -> Dict[int, np.ndarray]:
        """Sharded PageRank on the prepared graph, under any plan.

        Shards gather over their global-order edge slices; the router owns
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
                stats.count_step(int(rank.nbytes) * len(self.shards) + returned)
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
        if self._pool is not None:
            self._pool.shutdown(wait=False)


# ----------------------------------------------------------------------
# The shard tier: one place a batch can run
# ----------------------------------------------------------------------
class ShardTier:
    """The scatter-gather *place* :class:`~repro.service.executor.
    AnalyticsService` tries first when ``shards`` is set.

    Owns what outlives a batch — the shard-set cache and its
    drop-on-loss — and nothing about admission, queueing, or what a
    loss means: :meth:`run` answers a batch, passes on it (``None``:
    unshardable algorithm, policy routes it away), or raises the typed
    :class:`ShardLost` for the service's fallback rule to handle.
    Parameters are the service's ``shards``, ``shard_remotes`` and
    ``policy``.  A remote shard operation may take
    :data:`SHARD_OP_TIMEOUT_S` before the shard is declared lost.
    """

    def __init__(
        self,
        shards: int,
        *,
        remotes: Sequence[Tuple[str, int]] = (),
        policy: RoutingPolicy,
        metrics: ServiceMetrics,
    ) -> None:
        self.num_shards = int(shards)
        self.remotes = tuple(remotes)
        self.policy = policy
        self.metrics = metrics
        self._shardsets: Dict[str, ShardSet] = {}
        self._lock = threading.Lock()

    def run(self, batch: QueryBatch, remaining_s: float) -> Optional[BatchOutcome]:
        """Prepare, route, and scatter-gather one batch (``None`` = pass).

        ``remaining_s`` is the place signature's and is not read.  A
        batch that builds its shard set marks ``batch.built_shardset``,
        answered or lost.  ``plan_s`` covers the preparation and the
        shard-set build.
        """
        algorithm = batch.algorithm
        if algorithm not in SHARDABLE_ALGORITHMS:
            return None
        plan_start = time.perf_counter()
        prepared = prepare(batch.graph, algorithm)
        decision = self.policy.choose_route(
            shardable=True,
            num_edges=prepared.num_edges,
            shards=self.num_shards,
            remotes=len(self.remotes),
        )
        if decision.route != "sharded":
            return None

        stats = ShardRunStats()
        try:
            shardset, batch.built_shardset = self._shardset_for(prepared)
            plan_s = time.perf_counter() - plan_start

            execute_start = time.perf_counter()
            if algorithm == "pr":
                per_source = shardset.run_pagerank(
                    kernel_backend=batch.options.kernel_backend, stats=stats
                )
            elif algorithm == "cc":
                per_source = shardset.run_components(
                    kernel_backend=batch.options.kernel_backend, stats=stats
                )
            else:
                per_source = shardset.run_monotone(
                    algorithm, batch.sources,
                    max_iterations=batch.options.max_iterations,
                    kernel_backend=batch.options.kernel_backend,
                    stats=stats,
                )
            execute_s = time.perf_counter() - execute_start
        except ShardLost:
            self.metrics.count(shard_fallbacks=1)
            self.drop()
            raise

        self.metrics.count(
            sharded_batches=1,
            shard_supersteps=stats.supersteps,
            shard_exchange_bytes=stats.exchange_bytes,
        )
        runs = max(len(batch.sources), 1)
        return BatchOutcome(
            per_source=per_source,
            plan_s=plan_s,
            execute_s=execute_s,
            execution=BatchExecution(
                traversals=runs, lanes=runs, traversals_saved=0,
                strategy="sharded",
            ),
        )

    def _shardset_for(self, prepared: CSRGraph) -> Tuple[ShardSet, bool]:
        """The (cached) shard set of one prepared graph, and whether
        this call built it.

        Keyed by content fingerprint, so bfs, cc and pr on one dataset
        share slices (all read the graph's one unweighted view, whose
        fingerprint is hashed once).
        """
        fingerprint = prepared.fingerprint()
        with self._lock:
            shardset = self._shardsets.get(fingerprint)
            if shardset is not None:
                return shardset, False
            shardset = self._shardsets[fingerprint] = ShardSet.build(
                prepared, self.num_shards, remotes=self.remotes)
            return shardset, True

    def drop(self) -> None:
        """Forget cached shard sets (after a loss, or at close).

        A lost remote shard poisons every shard set holding a handle
        to it; dropping them forces the next sharded batch to re-ship
        slices — which either heals (host restarted) or loses again
        and falls back, never wedges.
        """
        with self._lock:
            dropped, self._shardsets = self._shardsets, {}
        for shardset in dropped.values():
            shardset.close()
