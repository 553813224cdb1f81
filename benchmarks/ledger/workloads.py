"""The six ledger workloads and their seeded request streams.

A workload is a server configuration plus a *generated* stream of
trace-v1 requests.  Everything random — source pools, block order,
which source rides which request — comes from ``--seed``; the program
under test sees only the generated HTTP bodies.

Streams are built from **blocks**: every block carries the workload's
traffic mix in exact proportion, shuffled by the seed.  The measured
window always ends on a block boundary, so two runs (or two seeds)
time the same mixture and differ only in order and sources — without
this a 6-analytic mix whose latencies span 10x makes throughput a
function of which analytics happened to fall inside the window.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: server flags every workload passes explicitly (hermetic runs: no
#: default may silently change under the benchmark).
BASE_SERVER_FLAGS = (
    "--workers", "2", "--backend", "threads",
    "--kernel-backend", "auto", "--catalog-policy", "lru",
    "--queue-size", "128", "--route", "sharded",
)

#: degree bounds the cold_churn key space sweeps.
CHURN_KS = (4, 6, 8, 10, 12, 16, 20, 24, 32, 48)
CHURN_KINDS = ("udt", "virtual+")
CHURN_ALGORITHMS = ("bfs", "sssp", "cc")
#: Zipf exponent of cold_churn key popularity.
CHURN_ZIPF = 0.9

#: sources per batch_lanes request line (its mix is lines per window).
BATCH_SOURCES_PER_LINE = 4


@dataclass(frozen=True)
class Request:
    """One trace-v1 request line (what the oracle keys answers by)."""

    algorithm: str
    graph: str
    sources: Tuple[int, ...] = ()
    transform: str = "auto"
    k: int = 0

    def line(self, trace_id: int) -> dict:
        return {
            "type": "request", "id": trace_id,
            "algorithm": self.algorithm, "graph": self.graph,
            "sources": list(self.sources),
            "transform": self.transform, "k": self.k,
        }


@dataclass(frozen=True)
class Operation:
    """One HTTP call: its wire bytes and the requests it carries.

    ``/v1/query`` operations carry one request; ``/v1/batch`` windows
    carry one line per mix entry, whose line ids are their 1-based
    position in the window (how result lines are correlated back).
    """

    path: str
    body: bytes
    requests: Tuple[Request, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (registered name, Table 3 stand-in, scale)
    graphs: Tuple[Tuple[str, str, float], ...]
    #: (algorithm, requests per block) — the exact traffic mix (for
    #: batch_lanes: request lines per window).
    mix: Tuple[Tuple[str, int], ...]
    #: seeded source-pool size per graph.
    pool: int
    #: blocks in the generated stream (cycled if a window outlasts it).
    blocks: int
    #: operations in the traced run's fixed-count window, and how many
    #: of them the in-process layer walk replays.
    trace_ops: int
    walk_ops: int
    #: caps on the walked prefix for the two slow whole-path passes
    #: (sharded service, process backend); 0 = the whole prefix.
    shard_ops: int = 0
    process_ops: int = 50
    #: --shards (0 = the plain single-engine service).
    shards: int = 0
    #: --cache-mb, the catalog's memory budget.
    cache_mb: int = 256
    endpoint: str = "query"
    include_values: bool = False
    #: warm workloads send one request per artifact before the window;
    #: cold_churn measures from an empty catalog.
    warm: bool = True

    @property
    def server_flags(self) -> Tuple[str, ...]:
        return BASE_SERVER_FLAGS + (
            "--shards", str(self.shards), "--cache-mb", str(self.cache_mb),
        )


# The all-analytics mix is deliberately uneven: sorted by latency the
# sourceless analytics (cc, pr — no per-source spread) own the 50th
# percentile on both warm graphs, so latency_p50_ms does not sit on
# the boundary between two modes.
ALL_SIX = (("bfs", 2), ("sssp", 2), ("sswp", 1), ("cc", 3), ("pr", 2), ("bc", 2))

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="warm_small",
        why="6k-edge graph, engine under half of latency: HTTP framing, "
            "protocol, digest, queue hop and planner costs show here",
        graphs=(("pokec", "pokec", 0.2),),
        mix=ALL_SIX, pool=64, blocks=600, trace_ops=1200, walk_ops=300,
    ),
    Workload(
        name="warm_large",
        why="264k-edge graph, engine and kernels are most of latency: "
            "kernel, layout and IR changes show here, edge changes do not",
        graphs=(("sinaweibo", "sinaweibo", 0.5),),
        mix=ALL_SIX, pool=6, blocks=40, trace_ops=36, walk_ops=24, process_ops=12,
    ),
    Workload(
        name="sharded_large",
        why="same graph through --shards 2 scatter-gather: per-slice "
            "supersteps plus router reduce, diverges from warm_large when "
            "a kernel gain costs the sharded path",
        graphs=(("sinaweibo", "sinaweibo", 0.5),),
        # sswp is left out: its cost varies 3x with the source, and at
        # any weight it would own latency_p95_ms.  bfs (narrow) holds
        # p50 and cc (sourceless) holds p95.
        mix=(("bfs", 5), ("sssp", 1), ("cc", 2)),
        pool=6, blocks=40, trace_ops=32, walk_ops=16, process_ops=8,
        shards=2,
    ),
    Workload(
        name="cold_churn",
        why="60 transform artifacts Zipf-drawn against a catalog half "
            "their size, no warm-up: udt_transform, prepare_graph and "
            "catalog build/evict do most of the work",
        graphs=(
            ("livejournal", "livejournal", 0.5),
            ("orkut", "orkut", 0.25),
            ("twitter", "twitter", 0.15),
        ),
        mix=(), pool=4, blocks=8, trace_ops=222, walk_ops=100,
        cache_mb=12, warm=False,
    ),
    Workload(
        name="batch_lanes",
        why="POST /v1/batch windows of 32 lines x 4 sources: executor "
            "queue, group_requests, source dedup, lane-parallel push and "
            "NDJSON streaming, which no single-query workload touches",
        graphs=(("livejournal", "livejournal", 1.0),),
        mix=(("bfs", 21), ("sssp", 11)), pool=96, blocks=200,
        trace_ops=40, walk_ops=12, shard_ops=2, process_ops=6,
        endpoint="batch",
    ),
    Workload(
        name="values_export",
        why="include_values answers (~97 KB JSON each): value "
            "serialisation is over half of latency here and nowhere else",
        graphs=(("livejournal", "livejournal", 1.0),),
        mix=(("bfs", 64),), pool=64, blocks=100,
        trace_ops=384, walk_ops=128, include_values=True,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def source_pool(graph, size: int, rng: random.Random) -> List[int]:
    """``size`` seeded sources among the graph's highest-degree nodes.

    Eligible are the top 2 % of nodes by out-degree (at least 4x the
    pool size).  Hubs all sit in the giant component and reach it in
    the same few levels, so a traversal's cost barely depends on which
    of them the seed drew: on sinaweibo bc from a hub varies by 6 %
    (sd/mean) against 33 % from an arbitrary above-mean-degree node.
    """
    degrees = np.asarray(graph.out_degrees())
    eligible = max(4 * size, len(degrees) // 50)
    hubs = np.argsort(degrees, kind="stable")[-eligible:]
    return [int(s) for s in rng.sample(hubs.tolist(), size)]


class _Cursor:
    """Round-robin over a shuffled pool: every source equally often."""

    def __init__(self, pool: Sequence[int], rng: random.Random) -> None:
        self._pool = list(pool)
        rng.shuffle(self._pool)
        self._next = 0

    def take(self, count: int = 1) -> Tuple[int, ...]:
        out = []
        for _ in range(count):
            out.append(self._pool[self._next % len(self._pool)])
            self._next += 1
        return tuple(out)


def churn_keys(workload: Workload) -> List[Tuple[str, str, int, str]]:
    """cold_churn's 60 artifact keys in *fixed* popularity order.

    ``(graph, kind, K, algorithm)``, most popular first.  The order
    interleaves graphs, kinds and degree bounds so every popularity
    decile mixes cheap (virtual+) and expensive (udt) builds on all
    three graphs; it is not seeded, so the seed changes the arrival
    order and the sources but not which artifacts are hot.
    """
    keys = []
    for ki, k in enumerate(CHURN_KS):
        for kind_i, kind in enumerate(CHURN_KINDS):
            for gi, (graph, _dataset, _scale) in enumerate(workload.graphs):
                algorithm = CHURN_ALGORITHMS[(ki + kind_i + gi) % 3]
                keys.append((graph, kind, k, algorithm))
    return keys


def churn_block_counts(num_keys: int) -> List[int]:
    """Requests per key per block: integer Zipf weights, rarest = 1."""
    scale = num_keys ** CHURN_ZIPF
    return [max(1, round(scale / (rank ** CHURN_ZIPF)))
            for rank in range(1, num_keys + 1)]


def _query_operation(request: Request, trace_id: int, include_values: bool) -> Operation:
    payload = request.line(trace_id)
    if include_values:
        payload["include_values"] = True
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return Operation("/v1/query", body, (request,))


def generate(workload: Workload, seed: int, graphs: Dict[str, object]) -> Tuple[List[Operation], int]:
    """The workload's operation stream and its block length.

    Deterministic in ``(workload, seed)``: the same seed yields a
    byte-identical stream (:func:`stream_bytes`), a different seed a
    different one.
    """
    rng = random.Random(f"ledger:{workload.name}:{seed}")
    pools = {
        name: source_pool(graphs[name], workload.pool, rng)
        for name, _dataset, _scale in workload.graphs
    }
    if workload.name == "cold_churn":
        return _generate_churn(workload, rng, pools)
    if workload.endpoint == "batch":
        return _generate_batch(workload, rng, pools)
    graph = workload.graphs[0][0]
    cursors = {alg: _Cursor(pools[graph], rng) for alg, _ in workload.mix}
    template = [alg for alg, count in workload.mix for _ in range(count)]
    operations: List[Operation] = []
    for _ in range(workload.blocks):
        block = list(template)
        rng.shuffle(block)
        for algorithm in block:
            sources = () if algorithm in ("cc", "pr") else cursors[algorithm].take()
            request = Request(algorithm, graph, sources)
            operations.append(_query_operation(
                request, len(operations) + 1, workload.include_values
            ))
    return operations, len(template)


#: strata per cold_churn block (see _generate_churn).
CHURN_STRATA = 12


def _generate_churn(workload, rng, pools):
    """Zipf-proportioned blocks, shuffled within strata.

    One block is 222 requests: key *r* appears round(60^0.9 / r^0.9)
    times.  The block is dealt round-robin (in popularity order) into
    CHURN_STRATA strata, each shuffled by the seed.  A key's copies
    are thereby spread evenly over the block, as they are on average
    in an i.i.d. Zipf stream, instead of clumping wherever a full
    shuffle drops them — reuse distances, and with them the LRU miss
    count, then vary far less from seed to seed.
    """
    keys = churn_keys(workload)
    counts = churn_block_counts(len(keys))
    cursors = {graph: _Cursor(pool, rng) for graph, pool in pools.items()}
    template = [key for key, count in zip(keys, counts) for _ in range(count)]
    operations: List[Operation] = []
    for _ in range(workload.blocks):
        for stratum in range(CHURN_STRATA):
            dealt = template[stratum::CHURN_STRATA]
            rng.shuffle(dealt)
            for graph, kind, k, algorithm in dealt:
                sources = () if algorithm == "cc" else cursors[graph].take()
                request = Request(algorithm, graph, sources, transform=kind, k=k)
                operations.append(
                    _query_operation(request, len(operations) + 1, False)
                )
    return operations, len(template)


def _generate_batch(workload, rng, pools):
    graph = workload.graphs[0][0]
    cursor = _Cursor(pools[graph], rng)
    template = [alg for alg, count in workload.mix for _ in range(count)]
    operations: List[Operation] = []
    for _ in range(workload.blocks):
        lines = list(template)
        rng.shuffle(lines)
        requests = tuple(
            Request(algorithm, graph, cursor.take(BATCH_SOURCES_PER_LINE))
            for algorithm in lines
        )
        body = "".join(
            json.dumps(request.line(i), separators=(",", ":")) + "\n"
            for i, request in enumerate(requests, start=1)
        ).encode("utf-8")
        operations.append(Operation("/v1/batch", body, requests))
    return operations, 1


def stream_bytes(operations: Sequence[Operation]) -> bytes:
    """The whole stream as the bytes the server will be sent."""
    return b"".join(
        op.path.encode("ascii") + b"\n" + op.body + b"\n" for op in operations
    )


def warmup_operations(workload: Workload, operations: Sequence[Operation]) -> List[Operation]:
    """One ``/v1/query`` per distinct artifact the stream touches.

    Caching is per (algorithm, graph, transform, K) — the source is
    irrelevant — so the first request of each such key warms it.
    """
    if not workload.warm:
        return []
    seen = set()
    out: List[Operation] = []
    for op in operations:
        for request in op.requests:
            key = (request.algorithm, request.graph, request.transform, request.k)
            if key not in seen:
                seen.add(key)
                single = Request(
                    request.algorithm, request.graph, request.sources[:1],
                    request.transform, request.k,
                )
                out.append(_query_operation(single, len(out) + 1, False))
    return out
