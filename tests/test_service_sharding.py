"""Sharded serving tier: partition invariants, digest parity, policy.

The tier's one load-bearing promise is that scatter-gather answers are
*bitwise* the single-engine answers — the golden traces replay with
zero digest mismatches at any shard count, on either execution
backend, with shards in-process or remote.  These tests pin that
promise from the bottom up: partition invariants first, per-algorithm
value parity next, then whole-trace replays, the ShardLost fallback
contract, and the routing policy (quotas, priorities, cost-model
placement).  CI's ``sharded-replay`` job re-runs this file and the CLI
replay gate across the full shards x backend matrix.
"""

import hashlib
import io
import json
import socket
import struct
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines._run import run_algorithm
from repro.baselines.base import prepare_graph
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.errors import QuotaExhaustedError, ServiceError, ShardLost
import repro.graph.csr as csr_module
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.multigpu import inedge_owner, inedge_partition
from repro.service import (
    QueryRequest,
    RoutingPolicy,
    ShardHostServer,
    ShardSet,
    ShardedAnalyticsService,
    TenantQuota,
    parse_host_port,
    parse_priority_arg,
    parse_quota_arg,
    replay_trace,
    result_digest,
)
from repro.service.batching import QueryBatch
from repro.service.executor import _PriorityWorkQueue
from repro.service.sharding import (
    MAX_HEADER_BYTES,
    LocalShard,
    RemoteShardHandle,
    _host_dispatch,
    encode_frame,
    read_frame,
)
from repro.service.workers import BatchSpec

TRACES = Path(__file__).parent / "traces"
GOLDEN = sorted(p.name for p in TRACES.glob("*.jsonl"))

MONOTONE = ("bfs", "sssp", "sswp", "cc")


def _served(graph, algorithm):
    """The graph the tier shards for ``algorithm`` (cc: the unweighted
    view bfs shards too, not a symmetrised copy)."""
    return graph.without_weights() if algorithm == "cc" else prepare_graph(graph, algorithm)


def _sharded(shardset, algorithm, sources, **kwargs):
    """What the tier runs: cc in one exchange, the rest as BSP."""
    if algorithm == "cc":
        return shardset.run_components(**kwargs)
    return shardset.run_monotone(algorithm, sources, **kwargs)
#: kernel backends the shards can be pinned to on this machine
KERNEL_BACKENDS = ["numpy"] + [
    name for name in ("cjit",) if kernels.get_backend(name).is_available()
]
needs_cjit = pytest.mark.skipif(
    "cjit" not in KERNEL_BACKENDS, reason="no C compiler"
)


def _engaged(name="cjit"):
    return kernels.get_backend(name).engaged


@pytest.fixture(scope="module")
def graph():
    return rmat(256, 2048, seed=7, weight_range=(0.5, 2.0))


@pytest.fixture(scope="module")
def shard_host():
    server = ShardHostServer(("127.0.0.1", 0))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()


def _exchange(address, messages):
    """Send each message as a frame on one connection; the replies."""
    with socket.create_connection(address, timeout=30) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for message in messages:
            stream.write(encode_frame(message))
            stream.flush()
            replies.append(read_frame(stream)[0])
    return replies


def _frame(header, payload=b""):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack("<I", len(raw)) + raw + payload


_BEGIN = {"op": "begin", "key": "k", "task": 1, "algorithm": "bfs", "source": 0}

#: what a host must refuse to read as a frame
HOSTILE_FRAMES = {
    "truncated": _frame({"message": _BEGIN, "arrays": []})[:-3],
    "header over the cap": struct.pack("<I", MAX_HEADER_BYTES + 1) + b"{}",
    "header not json": _frame(b"{nope"),
    "object dtype": _frame(
        {"message": dict(_BEGIN, ids={"@": 0}), "arrays": [["|O", [1], 8]]}, bytes(8)),
    "string dtype": _frame(
        {"message": dict(_BEGIN, ids={"@": 0}), "arrays": [["<U8", [1], 32]]}, bytes(32)),
    "byte count off": _frame(
        {"message": dict(_BEGIN, ids={"@": 0}), "arrays": [["<i8", [2], 8]]}, bytes(8)),
}


class TestInedgePartition:
    """Destination ownership: the invariant the reduces lean on."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_owned_sets_partition_the_nodes(self, graph, shards):
        parts = inedge_partition(graph, shards)
        owned = np.concatenate([p.owned for p in parts])
        assert np.array_equal(np.sort(owned), np.arange(graph.num_nodes))

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_every_edge_lands_with_its_destination(self, graph, shards):
        parts = inedge_partition(graph, shards)
        owner = inedge_owner(graph, shards)
        assert sum(p.num_edges for p in parts) == graph.num_edges
        for part in parts:
            dst = part.subgraph.targets
            assert np.all(owner[dst] == part.device)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_slice_preserves_global_edge_order(self, graph, shards):
        """A slice's CSR edge list is the global list, filtered.

        This is what makes sharded PageRank bitwise: each shard's
        ``np.add.at`` walks its edges in exactly the order the
        unsharded kernel would have reached them.
        """
        owner = inedge_owner(graph, shards)
        src_all, dst_all = graph.edge_sources(), graph.targets
        for part in inedge_partition(graph, shards):
            keep = owner[dst_all] == part.device
            assert np.array_equal(part.subgraph.edge_sources(), src_all[keep])
            assert np.array_equal(part.subgraph.targets, dst_all[keep])

    def test_subgraph_keeps_global_node_count(self, graph):
        for part in inedge_partition(graph, 3):
            assert part.subgraph.num_nodes == graph.num_nodes


class TestScatterGatherParity:
    """Sharded answers == single-engine answers, bit for bit."""

    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("algorithm", MONOTONE)
    def test_monotone_bitwise(self, graph, algorithm, shards):
        prepared = prepare_graph(graph, algorithm)
        shardset = ShardSet.build(_served(graph, algorithm), shards)
        try:
            sources = () if algorithm == "cc" else (0, 5)
            per_source = _sharded(shardset, algorithm, sources)
            for source in sources or (None,):
                want, _ = run_algorithm(
                    prepared, algorithm, source, EngineOptions()
                )
                key = -1 if source is None else source
                assert np.array_equal(per_source[key], want)
        finally:
            shardset.close()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_pagerank_bitwise(self, graph, shards):
        prepared = prepare_graph(graph, "pr")
        want, _ = run_algorithm(prepared, "pr", None, EngineOptions())
        shardset = ShardSet.build(prepared, shards)
        try:
            assert np.array_equal(shardset.run_pagerank()[-1], want)
        finally:
            shardset.close()

    @pytest.mark.parametrize("algorithm, kind", [
        ("pr", "virtual"), ("pr", "virtual+"),
        ("bfs", "virtual+"), ("sssp", "virtual+"), ("bfs", "udt"), ("sssp", "udt"),
    ])
    def test_transformed_plans_shard_bitwise(self, graph, algorithm, kind):
        # every named transform plans `none`, so it shards and answers
        # as the single engine does; the tier builds what the `none`
        # plan builds (the shard set, once) and reports `none`.
        sources = () if algorithm == "pr" else (0, 5)
        answers = []
        for shards, plan in ((2, kind), (1, kind), (2, "none")):
            with ShardedAnalyticsService(shards=shards, workers=2) as service:
                service.register("g", graph)
                results = [
                    service.run(QueryRequest(
                        algorithm, "g", sources=sources, transform=plan,
                        degree_bound=4))
                    for _ in range(2)
                ]
                assert all(r.ok and r.transform == "none" and not r.degraded
                           for r in results)
                # the first sharded request builds the shard set; on the
                # single engine every one reads the raw CSR or its
                # unweighted view and builds nothing
                cold = shards > 1
                assert [r.cache_hit for r in results] == [not cold, True]
                summary = service.metrics.summary()
                assert summary["sharded_batches"] == 2 * (shards > 1)
            answers.append({k: v.tobytes() for k, v in results[0].values.items()})
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.parametrize("kind", ["virtual+", "udt"])
    def test_a_deadline_degrades_no_sharded_plan(self, graph, kind):
        # no plan builds a transform, so no deadline degrades one: the
        # shard tier and the single engine both run the `none` plan
        request = QueryRequest.single("bfs", "g", 0, transform=kind, degree_bound=4)
        batch = QueryBatch(graph, "bfs", EngineOptions(), [request])
        with ShardedAnalyticsService(shards=2, workers=1) as service:
            sharded = service._shards.run(batch, 1e-9)
            single = service._run_here(batch, 1e-9)
        assert not sharded.degraded and not single.degraded
        assert sharded.per_source[0].tobytes() == single.per_source[0].tobytes()


class TestShardsRunTheEngineStep:
    """Shards execute the engine's ``PushStep`` — compiled when the
    backend engages — and honour the request's kernel-backend pin."""

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_plan_lattice_bitwise(self, graph, shards, backend):
        for algorithm in MONOTONE:
            prepared = prepare_graph(graph, algorithm)
            sources = () if algorithm == "cc" else (0, 5)
            want = {
                -1 if s is None else s: run_algorithm(
                    prepared, algorithm, s,
                    EngineOptions(kernel_backend="numpy"),
                )[0]
                for s in sources or (None,)
            }
            shardset = ShardSet.build(_served(graph, algorithm), shards)
            try:
                before = _engaged(backend)
                got = _sharded(shardset, algorithm, sources, kernel_backend=backend)
                for key, values in want.items():
                    assert got[key].tobytes() == values.tobytes(), (
                        algorithm, key
                    )
                # engagement is asserted, not assumed
                assert (_engaged(backend) > before) == (backend != "numpy")
            finally:
                shardset.close()

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_rank_step_bitwise_on_router_shards_and_single_engine(
        self, graph, backend, shards
    ):
        # three users of one RankStep: the single engine's fused call,
        # the shards' gather half, the router's `damp`
        prepared = prepare_graph(graph, "pr")
        options = EngineOptions(kernel_backend=backend)
        want, _ = run_algorithm(
            prepared, "pr", None, EngineOptions(kernel_backend="numpy")
        )
        fused, _ = run_algorithm(prepared, "pr", None, options)
        assert fused.tobytes() == want.tobytes()
        shardset = ShardSet.build(prepared, shards)
        try:
            got = shardset.run_pagerank(kernel_backend=backend)[-1]
            assert got.tobytes() == want.tobytes()
        finally:
            shardset.close()

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_pagerank_gather_runs_on_the_pinned_backend(self, graph, backend):
        prepared = prepare_graph(graph, "pr")
        want, _ = run_algorithm(
            prepared, "pr", None, EngineOptions(kernel_backend="numpy")
        )
        shardset = ShardSet.build(prepared, 3)
        try:
            before = _engaged(backend)
            got = shardset.run_pagerank(kernel_backend=backend)[-1]
            assert got.tobytes() == want.tobytes()
            assert (_engaged(backend) > before) == (backend != "numpy")
        finally:
            shardset.close()

    @needs_cjit
    @pytest.mark.parametrize("name", GOLDEN)
    def test_golden_traces_digest_clean_with_cjit_engaged(
        self, name, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cjit")
        before = _engaged()
        service = ShardedAnalyticsService(shards=2, workers=2)
        try:
            report = replay_trace(str(TRACES / name), service=service)
            summary = service.metrics.summary()
        finally:
            service.close()
        assert report.ok, "\n".join(str(m) for m in report.mismatches)
        assert summary["sharded_batches"] > 0
        assert _engaged() > before
        # ... and the server's own output says so
        assert summary["kernel_backend"] == "cjit"
        assert summary["kernel_engaged"] >= _engaged() - before

    @needs_cjit
    def test_per_request_pin_beats_the_environment(self, graph, monkeypatch):
        service = ShardedAnalyticsService(shards=2, workers=1)

        def run(pin):
            before = _engaged()
            result = service.submit(QueryRequest(
                algorithm="sssp", graph=graph, sources=(0,), transform="none",
                options=EngineOptions(kernel_backend=pin),
            )).result(timeout=60)
            assert result.ok, result.error
            return result.values[0], _engaged() - before

        try:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cjit")
            pinned_numpy, engaged = run("numpy")
            assert engaged == 0
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
            pinned_cjit, engaged = run("cjit")
            assert engaged > 0
            assert service.metrics.summary()["sharded_batches"] == 2
        finally:
            service.close()
        assert pinned_numpy.tobytes() == pinned_cjit.tobytes()

    def test_pin_crosses_the_shard_host_wire(self, graph, shard_host):
        prepared = prepare_graph(graph, "sssp")
        want, _ = run_algorithm(
            prepared, "sssp", 0, EngineOptions(kernel_backend="numpy")
        )
        shardset = ShardSet.build(prepared, 2, remotes=[shard_host, shard_host])
        try:
            for backend in KERNEL_BACKENDS:
                before = _engaged(backend)
                got = shardset.run_monotone(
                    "sssp", (0,), kernel_backend=backend
                )[0]
                assert got.tobytes() == want.tobytes()
                # the host serves from this process, so its launches count
                assert (_engaged(backend) > before) == (backend != "numpy")
            # the field reaches the host: it is what rejects a bad name
            with pytest.raises(ServiceError, match="unknown kernel backend"):
                shardset.run_monotone(
                    "sssp", (0,), kernel_backend="simd-unproven"
                )
        finally:
            shardset.close()

    def test_host_resolves_as_before_without_the_field(self, graph):
        prepared = prepare_graph(graph, "bfs")
        shards = {}
        part = inedge_partition(prepared, 2)[0]
        assert _host_dispatch(shards, {
            "op": "load", "key": "k", "shard": 0,
            "offsets": part.subgraph.offsets,
            "targets": part.subgraph.targets,
            "owned": part.owned,
        }) == {"ok": True}
        reply = _host_dispatch(shards, {
            "op": "begin", "key": "k", "task": 1, "algorithm": "bfs",
            "source": 0,
        })
        assert reply["ok"] is True

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_concurrent_batches_never_share_scratch(self, graph, backend):
        prepared = prepare_graph(graph, "sssp")
        sources = list(range(12))
        want = {
            s: run_algorithm(
                prepared, "sssp", s, EngineOptions(kernel_backend="numpy")
            )[0]
            for s in sources
        }
        shardset = ShardSet.build(prepared, 2)
        failures = []

        def worker(mine):
            try:
                for round_ in range(6):
                    got = shardset.run_monotone(
                        "sssp", tuple(mine), kernel_backend=backend
                    )
                    for s in mine:
                        if got[s].tobytes() != want[s].tobytes():
                            failures.append((round_, s))
            except Exception as exc:  # surfaced below, never swallowed
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(sources[i::4],))
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            shardset.close()
        assert failures == []


class TestGoldenTracesSharded:
    """The acceptance gate: golden traces through the sharded router."""

    @pytest.mark.parametrize("name", GOLDEN)
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_replays_digest_clean(self, name, shards, backend):
        service = ShardedAnalyticsService(shards=shards, workers=2, backend=backend)
        try:
            report = replay_trace(str(TRACES / name), service=service)
            summary = service.metrics.summary()
        finally:
            service.close()
        assert report.ok, "\n".join(str(m) for m in report.mismatches)
        assert report.digests_checked == report.requests_submitted
        assert summary["shards"] == shards
        # every sharded batch ran at least one superstep on all shards
        assert summary["shard_supersteps"] >= summary["sharded_batches"] > 0

    def test_single_shard_is_the_degraded_mode(self):
        """shards=1 answers everything through the single-engine path."""
        service = ShardedAnalyticsService(shards=1, workers=2)
        try:
            report = replay_trace(str(TRACES / "mixed.jsonl"), service=service)
            summary = service.metrics.summary()
        finally:
            service.close()
        assert report.ok
        assert summary["sharded_batches"] == 0


class TestRouteMisses:
    """What must *not* shard, quietly taking the single-engine path."""

    def test_bc_routes_to_single_engine(self, graph):
        with ShardedAnalyticsService(shards=2, workers=2) as service:
            service.register("g", graph)
            result = service.run(QueryRequest.single("bc", "g", 0))
            assert result.ok
            assert service.metrics.summary()["sharded_batches"] == 0

    def test_planner_errors_survive_sharding(self, graph):
        """pr/udt must fail with the planner's exact message."""
        with ShardedAnalyticsService(shards=2, workers=2) as service:
            service.register("g", graph)
            sharded = service.run(QueryRequest("pr", "g", transform="udt"))
        with ShardedAnalyticsService(shards=1, workers=2) as service:
            service.register("g", graph)
            single = service.run(QueryRequest("pr", "g", transform="udt"))
        assert not sharded.ok and sharded.error == single.error

    def test_auto_route_consults_edge_threshold(self, graph, shard_host):
        # with a shard on a remote host, the break-even decides
        for threshold, sharded in ((10**9, 0), (1, 1)):
            policy = RoutingPolicy(route="auto", min_sharded_edges=threshold)
            with ShardedAnalyticsService(
                shards=2, workers=2, policy=policy, shard_remotes=[shard_host]
            ) as service:
                service.register("g", graph)
                assert service.run(QueryRequest.single("bfs", "g", 0)).ok
                assert service.metrics.summary()["sharded_batches"] == sharded

    @pytest.mark.parametrize("route, shards", [
        ("single", 2), ("auto", 2), ("sharded", 1),
    ])
    def test_a_passed_batch_reports_what_the_tier_built(
        self, graph, route, shards
    ):
        # the tier prepares cc's graph before the policy routes the batch
        # away, and that preparation builds nothing (cc reads the CSR as
        # it is): both requests, passed to the single engine, are hits
        with ShardedAnalyticsService(
            shards=shards, workers=1, policy=RoutingPolicy(route=route)
        ) as service:
            service.register("g", graph)
            results = [service.run(QueryRequest("cc", "g"))
                       for _ in range(2)]
            summary = service.metrics.summary()
        assert [r.cache_hit for r in results] == [True, True]
        assert summary["sharded_batches"] == 0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_ten_batches_hash_the_csr_once(self, graph, weighted, monkeypatch):
        # every batch reads one prepared object per registered graph (the
        # graph, or its memoised unweighted view), so the shard-set key
        # is hashed once, not once per batch
        hashes = []

        def sha256(*args):
            hashes.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(csr_module, "hashlib", SimpleNamespace(sha256=sha256))
        g = graph if weighted else graph.without_weights()
        unhashed = CSRGraph(g.offsets, g.targets, g.weights)
        with ShardedAnalyticsService(shards=2, workers=1) as service:
            service.register("g", unhashed)
            for source in range(10):
                assert service.run(QueryRequest.single("bfs", "g", source)).ok
            assert service.metrics.summary()["sharded_batches"] == 10
        # the registered graph, plus its view when it carries weights
        assert len(hashes) == 1 + weighted

    def test_auto_route_keeps_in_process_shards_single(self, shard_host):
        # every shard in this process: above the break-even too, `auto`
        # keeps each batch on the single engine, answers unchanged; one
        # shard on a shard host, and the break-even sends them out
        graph = load_dataset("sinaweibo", scale=0.5)
        policy = RoutingPolicy(route="auto")
        assert graph.num_edges >= policy.min_sharded_edges(2)
        decision = policy.choose_route(
            shardable=True, num_edges=graph.num_edges, shards=2, remotes=0)
        assert decision.route == "single"
        assert decision.reason == "no remote shard host configured"
        hubs = np.argsort(graph.out_degrees())[-3:].tolist()
        requests = [QueryRequest.single(algorithm, "g", hub)
                    for algorithm in ("bfs", "sssp") for hub in hubs]
        digests = []
        for shards, remotes, sharded in ((2, [], 0), (0, [], 0),
                                         (2, [shard_host], len(requests))):
            with ShardedAnalyticsService(
                shards=shards, workers=2, shard_remotes=remotes,
                policy=RoutingPolicy(route="auto"),
            ) as service:
                service.register("g", graph)
                digests.append([result_digest(service.run(request))
                                for request in requests])
                summary = service.metrics.summary()
                assert summary["sharded_batches"] == sharded
        assert digests[0] == digests[1] == digests[2]


class TestRemoteShards:
    """The tcp:// shard transport: parity, then the loss contract."""

    def test_remote_parity_and_trace_replay(self, graph, shard_host):
        prepared = prepare_graph(graph, "sssp")
        shardset = ShardSet.build(prepared, 3, remotes=[shard_host])
        try:
            want, _ = run_algorithm(
                prepared, "sssp", 0, EngineOptions()
            )
            per_source = shardset.run_monotone("sssp", (0,))
            assert np.array_equal(per_source[0], want)
        finally:
            shardset.close()
        service = ShardedAnalyticsService(
            shards=2, workers=2, shard_remotes=[shard_host]
        )
        try:
            report = replay_trace(
                str(TRACES / "mixed.jsonl"), service=service
            )
            assert report.ok, "\n".join(str(m) for m in report.mismatches)
            assert service.metrics.summary()["sharded_batches"] > 0
        finally:
            service.close()

    def _dead_address(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        return address

    def test_lost_shard_degrades_to_single_engine(self, graph):
        with ShardedAnalyticsService(
            shards=2, workers=2, shard_remotes=[self._dead_address()]
        ) as service:
            service.register("g", graph)
            result = service.run(QueryRequest("cc", "g"))
            summary = service.metrics.summary()
        assert result.ok and result.degraded
        assert summary["shard_fallbacks"] == 1
        # cc's preparation builds nothing and the lost tier's shard set
        # never finished, so nothing was built for this request
        assert result.cache_hit

    def test_lost_shard_is_typed_when_fallback_disabled(self, graph):
        with ShardedAnalyticsService(
            shards=2, workers=2,
            shard_remotes=[self._dead_address()], fallback=False,
        ) as service:
            service.register("g", graph)
            result = service.run(QueryRequest.single("bfs", "g", 0))
        assert not result.ok
        assert "lost" in result.error and "unreachable" in result.error

    def test_a_failed_build_closes_the_connections_it_made(
        self, graph, shard_host, monkeypatch
    ):
        opened = []
        connect = socket.create_connection

        def spied(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", spied)
        with pytest.raises(ShardLost):
            ShardSet.build(prepare_graph(graph, "bfs"), 2,
                           remotes=[shard_host, self._dead_address()])
        assert len(opened) == 1 and opened[0].fileno() == -1

    def _serve_corrupted(self, shard_host, monkeypatch, corrupt):
        """sssp from 0 on a 500-node R-MAT over two shards, the remote
        one's non-empty ``step`` replies with their ids replaced by
        ``corrupt(ids)`` before framing: ``(result, metrics, the single
        engine's values)``."""
        from repro.service import sharding

        real = sharding._host_dispatch

        def dispatch(shards, payload, store=None):
            reply = real(shards, payload, store)
            if payload.get("op") == "step":
                ids, vals = reply["result"]
                if len(ids):
                    reply["result"] = (corrupt(ids), vals)
            return reply

        monkeypatch.setattr(sharding, "_host_dispatch", dispatch)
        graph = rmat(500, 4000, seed=1, weight_range=(1.0, 8.0))
        want, _ = run_algorithm(
            prepare_graph(graph, "sssp"), "sssp", 0, EngineOptions()
        )
        with ShardedAnalyticsService(
            shards=2, workers=1, shard_remotes=[shard_host]
        ) as service:
            service.register("g", graph)
            result = service.run(QueryRequest.single("sssp", "g", 0))
            summary = service.metrics.summary()
        return result, summary, want

    def test_a_step_reply_with_a_foreign_id_is_a_lost_shard(
        self, shard_host, monkeypatch
    ):
        # -1 is no shard's node (numpy would wrap it onto the last one)
        def foreign(ids):
            ids = ids.copy()
            ids[0] = -1
            return ids

        result, summary, want = self._serve_corrupted(
            shard_host, monkeypatch, foreign
        )
        assert result.ok and result.degraded, result.error
        assert summary["shard_fallbacks"] == 1
        (values,) = result.values.values()
        assert np.array_equal(values, want)

    def test_an_undecodable_step_reply_is_a_lost_shard(
        self, shard_host, monkeypatch
    ):
        def undecodable(ids):
            return {"b64": "", "dtype": "<i8", "shape": [len(ids)]}

        result, summary, want = self._serve_corrupted(
            shard_host, monkeypatch, undecodable
        )
        assert result.ok and result.degraded, result.error
        assert summary["shard_fallbacks"] == 1
        (values,) = result.values.values()
        assert np.array_equal(values, want)

    def test_shard_lost_names_the_shard(self):
        exc = ShardLost("no route to host", shard=1)
        assert "shard" in str(exc) and "no route to host" in str(exc)

    def test_parse_host_port(self):
        assert parse_host_port("10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert parse_host_port("tcp://h:1") == ("h", 1)
        assert parse_host_port(":0") == ("127.0.0.1", 0)
        for bad in ("no-port", "h:70000", "h:-1", "h:²"):
            with pytest.raises(ServiceError, match="0-65535"):
                parse_host_port(bad)


class TestQuotas:
    """Token buckets at submission, 429 at the HTTP edge."""

    def test_bucket_refills_at_rate(self):
        clock = [0.0]
        policy = RoutingPolicy(
            quotas={"a": TenantQuota(rate=1.0, burst=2.0)},
            clock=lambda: clock[0],
        )
        assert policy.try_admit("a") == 0.0
        assert policy.try_admit("a") == 0.0
        wait = policy.try_admit("a")
        assert wait == pytest.approx(1.0)
        clock[0] = 1.5
        assert policy.try_admit("a") == 0.0
        # unmetered tenants (the default tenant included) always pass
        for _ in range(100):
            assert policy.try_admit("") == 0.0

    def test_admit_raises_typed_with_retry_after(self):
        policy = RoutingPolicy(
            quotas={"a": TenantQuota(rate=2.0, burst=1.0)}, clock=lambda: 0.0
        )
        policy.admit(QueryRequest("pr", "g", tenant="a"))
        with pytest.raises(QuotaExhaustedError) as info:
            policy.admit(QueryRequest("pr", "g", tenant="a"))
        assert info.value.tenant == "a"
        assert info.value.retry_after_s == pytest.approx(0.5)

    def test_service_refuses_over_quota_submissions(self, graph):
        policy = RoutingPolicy(quotas={"a": TenantQuota(rate=0.001, burst=1.0)})
        with ShardedAnalyticsService(
            shards=2, workers=2, policy=policy
        ) as service:
            service.register("g", graph)
            first = QueryRequest.single("bfs", "g", 0, tenant="a")
            assert service.run(first).ok
            with pytest.raises(QuotaExhaustedError):
                service.submit(QueryRequest.single("bfs", "g", 1, tenant="a"))
            assert service.metrics.summary()["quota_rejected"] == 1
            # other tenants are unaffected
            assert service.run(QueryRequest.single("bfs", "g", 2)).ok

    def test_http_maps_quota_to_429(self):
        from repro.service.api.protocol import error_response

        response = error_response(QuotaExhaustedError("a", retry_after_s=3.2))
        assert response.status == 429
        assert response.payload["error"]["type"] == "quota_exhausted"
        assert response.headers["retry-after"] == "4"

    def test_parse_quota_arg(self):
        tenant, quota = parse_quota_arg("alice=2.5:8")
        assert tenant == "alice" and quota == TenantQuota(rate=2.5, burst=8.0)
        assert parse_quota_arg("bob=0.5")[1].burst == 1.0
        for bad in ("alice", "alice=", "=2", "alice=fast"):
            with pytest.raises(ServiceError):
                parse_quota_arg(bad)

    @pytest.mark.parametrize("spec", [
        "alice=nan", "alice=inf", "alice=2:0.5", "alice=2:nan", "alice=0",
        "alice=-1:4",
    ])
    def test_a_bucket_that_cannot_meter_is_refused(self, spec):
        # a nan wait never exceeds 0.0 (the tenant would run unmetered);
        # a bucket under one token deep could never admit
        with pytest.raises(ServiceError, match="token bucket"):
            parse_quota_arg(spec)


class TestPriorities:
    """Priority classes order the backlog; FIFO within a class."""

    def test_parse_priority_arg(self):
        assert parse_priority_arg("a=interactive") == ("a", 0)
        assert parse_priority_arg("b=batch") == ("b", 20)
        assert parse_priority_arg("c=7") == ("c", 7)
        with pytest.raises(ServiceError):
            parse_priority_arg("c=urgent")

    def test_queue_orders_by_priority_then_fifo(self):
        q = _PriorityWorkQueue(0, priority_of=lambda item: item[0])
        q.put((20, "batch-1"))
        q.put((0, "interactive"))
        q.put((20, "batch-2"))
        q.put(None)  # shutdown sentinel drains after real work
        assert q.get() == (0, "interactive")
        assert q.get() == (20, "batch-1")
        assert q.get() == (20, "batch-2")
        assert q.get() is None

    def test_service_serves_interactive_before_batch(self, graph, monkeypatch):
        """With one held dispatcher, queued interactive work overtakes batch."""
        policy = RoutingPolicy(priorities={"vip": 0, "bulk": 20})
        order = []
        gate = threading.Event()
        original = ShardedAnalyticsService._run_batch

        def recording(self, batch, remaining_s):
            tenant = batch.requests[0].tenant
            if tenant == "":
                gate.wait(30)  # hold the dispatcher while others queue
            else:
                order.append(tenant)
            return original(self, batch, remaining_s)

        monkeypatch.setattr(ShardedAnalyticsService, "_run_batch", recording)
        with ShardedAnalyticsService(
            shards=1, workers=1, policy=policy
        ) as service:
            service.register("g", graph)
            blocker = service.submit(QueryRequest.single("bfs", "g", 0))
            bulk = [
                service.submit(
                    QueryRequest.single("bfs", "g", i, tenant="bulk")
                )
                for i in range(1, 4)
            ]
            vip = service.submit(
                QueryRequest.single("bfs", "g", 9, tenant="vip")
            )
            gate.set()
            for ticket in [blocker, vip, *bulk]:
                assert ticket.result(timeout=60).ok
        assert order[0] == "vip"


class TestTenantWire:
    """Tenant tags survive the trace wire; old traces stay identical."""

    def test_tenant_round_trips_through_recorded_trace(self, graph, tmp_path):
        from repro.service import TraceRecorder, load_trace

        path = tmp_path / "t.jsonl"
        recorder = TraceRecorder(str(path), graphs={})
        with ShardedAnalyticsService(
            shards=2, workers=2, recorder=recorder
        ) as service:
            service.register("g", graph)
            assert service.run(
                QueryRequest.single("bfs", "g", 0, tenant="alice")
            ).ok
        recorder.close()
        trace = load_trace(str(path))
        assert trace.requests[0].tenant == "alice"
        assert trace.requests[0].to_query_request().tenant == "alice"

    def test_untenanted_requests_emit_no_tenant_field(self):
        from repro.service.ingest import TraceRequest, format_trace_line

        line = format_trace_line(
            TraceRequest(trace_id=1, algorithm="pr", graph="g")
        )
        assert "tenant" not in line


class TestShardOpTable:
    """One allow-list drives the handle and the host; errors stay typed."""

    @pytest.fixture
    def loaded(self, graph):
        prepared = prepare_graph(graph, "bfs")
        part = inedge_partition(prepared, 2)[0]
        shards = {}
        assert _host_dispatch(shards, {
            "op": "load", "key": "k", "shard": 0,
            "offsets": part.subgraph.offsets,
            "targets": part.subgraph.targets,
            "owned": part.owned,
        }) == {"ok": True}
        return shards

    def test_every_op_is_a_local_shard_method(self):
        from repro.service.sharding import SHARD_OPS, LocalShard

        assert SHARD_OPS == (
            "begin", "step", "pr_begin", "pr_step", "components", "finish")
        assert all(callable(getattr(LocalShard, op)) for op in SHARD_OPS)

    def test_components_is_dispatched_like_every_op(self, loaded, graph):
        reply = _host_dispatch(loaded, {"op": "components", "key": "k"})
        labels = reply["result"]
        assert labels.dtype == np.float64 and labels.shape == (graph.num_nodes,)
        assert np.all(labels <= np.arange(graph.num_nodes))
        assert "bad arguments for op 'components'" in _host_dispatch(
            loaded, {"op": "components", "key": "k", "task": 1})["refused"]

    def test_unknown_op_key_and_attribute_are_typed_refusals(self, loaded):
        assert "unknown op" in _host_dispatch(
            loaded, {"op": "lane_step", "key": "k", "task": 1}
        )["refused"]
        assert "unknown shard key" in _host_dispatch(
            loaded, {"op": "begin", "key": "nope", "task": 1}
        )["refused"]
        # real LocalShard attributes that are not superstep ops
        for attribute in ("close", "_task", "subgraph", "__init__", None, 7):
            reply = _host_dispatch(loaded, {"op": attribute, "key": "k"})
            assert "unknown op" in reply["refused"], attribute
        assert "k" in loaded  # nothing above closed or replaced the shard

    def test_bad_missing_and_extra_arguments_are_typed_refusals(self, loaded):
        begin = {
            "op": "begin", "key": "k", "task": 1, "algorithm": "bfs",
            "source": 0,
        }
        extra = _host_dispatch(loaded, dict(begin, shard=3))
        assert "bad arguments for op 'begin'" in extra["refused"]
        missing = _host_dispatch(
            loaded, {k: v for k, v in begin.items() if k != "algorithm"}
        )
        assert "bad arguments for op 'begin'" in missing["refused"]
        # neither half-ran: the task was never created
        with pytest.raises(ServiceError, match="unknown monotone task 1"):
            _host_dispatch(loaded, {
                "op": "step", "key": "k", "task": 1,
                "ids": np.zeros(0, dtype=np.int64),
                "vals": np.zeros(0),
            })
        assert _host_dispatch(loaded, begin) == {"ok": True, "result": None}

    def test_bad_requests_never_kill_the_host_loop(self, graph, shard_host):
        prepared = prepare_graph(graph, "bfs")
        part = inedge_partition(prepared, 2)[0]
        begin = {"op": "begin", "key": "k", "task": 1, "algorithm": "bfs",
                 "source": 0}
        requests = [
            {"op": "begin", "key": "k", "task": 1},
            {"op": "load", "key": "k", "shard": 0,
             "offsets": part.subgraph.offsets,
             "targets": part.subgraph.targets,
             "owned": part.owned},
            {"op": "_task", "key": "k", "task": 1},
            dict(begin, surprise=1),
            {"op": "step", "key": "k", "task": 9, "ids": {"b64": "!"}, "vals": 3},
            begin,
        ]
        replies = _exchange(shard_host, requests)
        assert [sorted(r) for r in replies] == [
            ["refused"], ["ok"], ["refused"], ["refused"], ["error"],
            ["ok", "result"],
        ]
        assert replies[-1] == {"ok": True, "result": None}

    def test_a_peer_cannot_load_an_out_of_range_slice(self, graph, shard_host):
        # a target >= n would reach the compiled push_step, whose gates
        # bound the frontier but trust the graph: the host refuses the
        # slice with a typed error and keeps serving the connection
        part = inedge_partition(prepare_graph(graph, "bfs"), 2)[0]
        n = part.subgraph.num_nodes
        targets = part.subgraph.targets.copy()
        targets[0] = n + 1000
        load = {
            "op": "load", "key": "k", "shard": 0,
            "offsets": part.subgraph.offsets,
            "targets": part.subgraph.targets,
            "owned": part.owned,
        }
        replies = _exchange(shard_host, [
            dict(load, targets=targets),
            dict(load, owned=np.array([0, n])),
            dict(load, owned=np.array([0.0, 1.0])),
            load,
            {"op": "begin", "key": "k", "task": 1, "algorithm": "bfs",
             "source": 0},
        ])
        assert "edge targets must lie in" in replies[0]["error"]
        assert "owned ids" in replies[1]["error"]
        assert "owned ids" in replies[2]["error"]
        assert replies[3:] == [{"ok": True}, {"ok": True, "result": None}]

    @pytest.mark.parametrize("hostile", [*HOSTILE_FRAMES, "run"])
    def test_a_hostile_frame_costs_only_its_connection(
        self, graph, shard_host, monkeypatch, hostile
    ):
        # the host drops a frame it cannot trust (and refuses `run`,
        # which only a service's own hosts serve); the client's answer
        # is ShardLost, and the next connection is served as before
        from repro.service import sharding

        part = inedge_partition(prepare_graph(graph, "bfs"), 2)[0]
        nodes = part.subgraph.num_nodes
        handle = RemoteShardHandle(0, part.owned, shard_host, key="k",
                                   op_timeout_s=2.0)
        handle.load(part.subgraph)
        if hostile != "run":
            monkeypatch.setattr(
                sharding, "encode_frame", lambda message: HOSTILE_FRAMES[hostile]
            )
        why = {"run": "refused the request", "truncated": "timed out"}
        with pytest.raises(ShardLost, match=why.get(hostile, "closed the connection")):
            handle.run(BatchSpec("f" * 64, "/nowhere.npz", "bfs",
                                 EngineOptions(), (0,)), nodes)
        handle.close()
        monkeypatch.undo()
        fresh = RemoteShardHandle(0, part.owned, shard_host, key="k")
        try:
            fresh.load(part.subgraph)
            assert fresh.begin(1, "bfs", 0) is None
        finally:
            fresh.close()

    @pytest.mark.parametrize("hostile", HOSTILE_FRAMES)
    def test_read_frame_rejects_what_is_not_a_frame(self, hostile):
        with pytest.raises(ValueError):
            read_frame(io.BytesIO(HOSTILE_FRAMES[hostile]))

    def test_frames_round_trip_arrays_and_scalars(self):
        ids, vals = np.array([2, 5], dtype=np.int64), np.array([1.0, np.inf])
        message = {"op": "step", "task": 7, "source": None, "remaining_s": float("inf"),
                   "pair": (ids, vals), "rank": np.zeros((2, 0))}
        raw = encode_frame(message)
        got, nbytes = read_frame(io.BytesIO(raw + raw))
        assert nbytes == len(raw)
        assert got["pair"][0].dtype == np.int64 and got["pair"][1].dtype == np.float64
        assert [a.tobytes() for a in got["pair"]] == [ids.tobytes(), vals.tobytes()]
        assert got["rank"].shape == (2, 0)
        assert got["remaining_s"] == float("inf") and got["source"] is None
        assert got["pair"][0].flags.writeable  # a host may index-assign into it
        assert read_frame(io.BytesIO(b"")) == (None, 0)

    def test_handle_sends_the_parents_request_frames(self, monkeypatch):
        """Wire fields are LocalShard's parameter names, in order."""
        sent = []
        handle = RemoteShardHandle(1, np.arange(3), ("h", 1), key="fp/shard1of2")
        ids, vals = np.array([2, 5], dtype=np.int64), np.array([1.0, 2.5])
        # each op's reply is what a LocalShard owning 0..2 returns
        results = {
            "step": [ids[:1], vals[:1]],
            "pr_step": np.zeros(3),
            "components": np.array([0.0, 0.0, 2.0]),
        }
        monkeypatch.setattr(
            handle, "_call",
            lambda payload: sent.append(payload) or {
                "ok": True, "result": results.get(payload["op"])},
        )
        handle.num_nodes = 3  # what ``load`` records of a 3-node slice
        handle.begin(7, "sssp", 3, None)
        handle.step(7, ids, vals)
        handle.pr_begin(8, vals, "numpy")
        handle.pr_step(8, vals)
        handle.components()
        handle.finish(8)
        key = "fp/shard1of2"
        assert [encode_frame(m) for m in sent] == [encode_frame(m) for m in [
            {"op": "begin", "key": key, "task": 7, "algorithm": "sssp",
             "source": 3, "kernel_backend": None},
            {"op": "step", "key": key, "task": 7, "ids": ids, "vals": vals},
            {"op": "pr_begin", "key": key, "task": 8,
             "inv_deg": vals, "kernel_backend": "numpy"},
            {"op": "pr_step", "key": key, "task": 8, "rank": vals},
            {"op": "components", "key": key, "kernel_backend": None},
            {"op": "finish", "key": key, "task": 8},
        ]]
        assert [list(p) for p in sent[:1]] == [[
            "op", "key", "task", "algorithm", "source", "kernel_backend",
        ]]
        with pytest.raises(AttributeError):
            handle.load_everything
        with pytest.raises(TypeError):
            handle.step(7, ids)  # a bad call fails here, not on the host


#: ``components`` replies a 3-node slice must not accept: a label above
#: its index, a negative or NaN one, the wrong dtype, the wrong shape.
MALFORMED_LABELS = {
    "above-index": np.array([0.0, 2.0, 2.0]),
    "negative": np.array([0.0, -1.0, 2.0]),
    "nan": np.array([0.0, np.nan, 2.0]),
    "int64": np.array([0, 0, 2], dtype=np.int64),
    "short": np.array([0.0, 0.0]),
    "2-d": np.zeros((3, 1)),
}


class TestComponentsReply:
    """cc's one exchange: a remote slice's labels reach the C fold only
    if they are ``float64``, one per node, and ``0 <= L[v] <= v``."""

    def _handle(self, monkeypatch, labels):
        handle = RemoteShardHandle(0, np.arange(3), ("h", 1), key="k")
        handle.num_nodes = 3
        monkeypatch.setattr(handle, "_call", lambda payload: {
            "ok": True, "result": labels})
        return handle

    @pytest.mark.parametrize("bad", MALFORMED_LABELS)
    def test_a_malformed_reply_is_a_lost_shard(self, monkeypatch, bad):
        handle = self._handle(monkeypatch, MALFORMED_LABELS[bad])
        with pytest.raises(ShardLost, match="malformed 'components' reply"):
            handle.components()

    def test_a_well_formed_reply_passes(self, monkeypatch):
        labels = np.array([0.0, 0.0, 2.0])
        assert self._handle(monkeypatch, labels).components() is labels

    @pytest.mark.parametrize("bad", ["above-index", "int64", "short"])
    def test_the_batch_answers_degraded_from_the_single_engine(
        self, graph, shard_host, monkeypatch, bad
    ):
        # the host (a thread of this process) replies with bad labels
        wrong = {"above-index": lambda labels: labels + 1.0,
                 "int64": lambda labels: labels.astype(np.int64),
                 "short": lambda labels: labels[:-1]}[bad]
        honest = LocalShard.components
        monkeypatch.setattr(LocalShard, "components", lambda self, *args, **kwargs: (
            wrong(honest(self, *args, **kwargs))))
        want, _ = run_algorithm(prepare_graph(graph, "cc"), "cc", None,
                                EngineOptions())
        with ShardedAnalyticsService(
            shards=2, workers=1, shard_remotes=[shard_host]
        ) as service:
            service.register("g", graph)
            result = service.run(QueryRequest("cc", "g"))
            summary = service.metrics.summary()
        assert result.ok and result.degraded
        assert result.values[-1].tobytes() == want.tobytes()
        assert summary["shard_fallbacks"] == 1 and summary["sharded_batches"] == 0


class TestComponentsExchange:
    """The counter contract of a sharded cc batch."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_one_superstep_exchanging_the_label_arrays(self, graph, shards):
        with ShardedAnalyticsService(shards=shards, workers=1) as service:
            service.register("g", graph)
            assert service.run(QueryRequest.single("bfs", "g", 0)).ok
            before = service.metrics.summary()
            result = service.run(QueryRequest("cc", "g"))
            after = service.metrics.summary()
        assert result.ok and result.cache_hit  # bfs's shard set, reused
        assert after["sharded_batches"] - before["sharded_batches"] == 1
        assert after["shard_supersteps"] - before["shard_supersteps"] == 1
        assert (after["shard_exchange_bytes"] - before["shard_exchange_bytes"]
                == shards * graph.num_nodes * 8)

    def test_in_process_shards_start_no_pool(self, graph, shard_host):
        local = ShardSet.build(graph.without_weights(), 3)
        mixed = ShardSet.build(graph.without_weights(), 3, remotes=[shard_host])
        try:
            assert local._pool is None
            assert mixed._pool is not None and mixed._pool._max_workers == 1
            want = local.run_components()[-1]
            assert mixed.run_components()[-1].tobytes() == want.tobytes()
        finally:
            local.close()
            mixed.close()
