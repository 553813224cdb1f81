"""Cache economics: GDSF policy math and trace-driven pre-warming.

Covers both layers of :mod:`repro.service.economics` —

* the GDSF priority arithmetic and its interaction with the catalog
  (clock inflation, frequency persistence across eviction, and
  price agreement across a spill/hydrate round-trip, which is what
  lets process workers evict by the same rules as the parent);
* the pre-warmer, including the golden-trace end-to-end: replaying
  ``tests/traces/bfs-heavy.jsonl`` prewarmed under every
  (policy × backend) pair must reproduce the recorded digests.
"""

import os
from dataclasses import replace

import pytest

from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    ArtifactKey,
    GdsfPolicy,
    GraphCatalog,
    LruPolicy,
    Prewarmer,
    load_trace,
    make_policy,
    replay_trace,
    resolve_policy,
    resolve_trace_graphs,
)
from repro.service.economics import CATALOG_POLICY_ENV
from repro.service.workers import prepared_key
from tests.catalog_cells import get

TRACES = os.path.join(os.path.dirname(__file__), "traces")
BFS_HEAVY = os.path.join(TRACES, "bfs-heavy.jsonl")
MIXED = os.path.join(TRACES, "mixed.jsonl")


class FakeArtifact:
    """Duck-typed artifact for pure policy math: fixed cost and size."""

    def __init__(self, build_seconds, size):
        self.build_seconds = build_seconds
        self._size = size

    def nbytes(self):
        return self._size


def fake_key(tag):
    return ArtifactKey(graph_fingerprint=f"{tag:0>64s}", recipe="none")


class TestPolicyResolution:
    def test_default_is_lru(self, monkeypatch):
        monkeypatch.delenv(CATALOG_POLICY_ENV, raising=False)
        assert resolve_policy(None) == "lru"
        assert isinstance(make_policy(None), LruPolicy)
        assert GraphCatalog().policy == "lru"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(CATALOG_POLICY_ENV, "gdsf")
        assert resolve_policy(None) == "gdsf"
        assert isinstance(make_policy(None), GdsfPolicy)
        assert GraphCatalog().policy == "gdsf"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(CATALOG_POLICY_ENV, "gdsf")
        assert resolve_policy("lru") == "lru"
        assert GraphCatalog(policy="lru").policy == "lru"

    def test_unknown_policy_rejected(self, monkeypatch):
        with pytest.raises(ServiceError):
            resolve_policy("clock-pro")
        monkeypatch.setenv(CATALOG_POLICY_ENV, "mru")
        with pytest.raises(ServiceError):
            GraphCatalog()


class TestGdsfArithmetic:
    def test_priority_formula(self):
        policy = GdsfPolicy()
        key = fake_key("a")
        policy.record_insert(key, FakeArtifact(build_seconds=2.0, size=1000))
        # clock 0, frequency 1: priority = 1 * 2.0 / 1000
        assert policy.priority_of(key) == pytest.approx(0.002)
        policy.record_access(key, FakeArtifact(build_seconds=2.0, size=1000))
        assert policy.frequency_of(key) == 2
        assert policy.priority_of(key) == pytest.approx(0.004)

    def test_clock_rises_to_victim_priority(self):
        policy = GdsfPolicy()
        cheap, dear = fake_key("cheap"), fake_key("dear")
        policy.record_insert(cheap, FakeArtifact(0.1, 1000))
        policy.record_insert(dear, FakeArtifact(10.0, 1000))
        entries = {cheap: None, dear: None}
        assert policy.select_victim(entries) is cheap
        policy.record_evict(cheap)
        assert policy.clock == pytest.approx(0.1 / 1000)
        # later inserts are priced on top of the inflated clock
        late = fake_key("late")
        policy.record_insert(late, FakeArtifact(0.1, 1000))
        assert policy.priority_of(late) == pytest.approx(2 * 0.1 / 1000)

    def test_frequency_survives_eviction(self):
        policy = GdsfPolicy()
        key = fake_key("comeback")
        artifact = FakeArtifact(1.0, 1000)
        policy.record_insert(key, artifact)
        policy.record_access(key, artifact)
        policy.record_evict(key)
        assert policy.frequency_of(key) == 2
        assert policy.priority_of(key) == 0.0  # not resident
        # a disk-tier comeback resumes the count instead of restarting
        policy.record_insert(key, artifact)
        assert policy.frequency_of(key) == 3

    def test_tie_breaks_to_lru_front(self):
        policy = GdsfPolicy()
        first, second = fake_key("first"), fake_key("second")
        same = FakeArtifact(1.0, 1000)
        policy.record_insert(first, same)
        policy.record_insert(second, same)
        assert policy.select_victim({first: None, second: None}) is first

    def test_expensive_hot_entry_survives_one_shot_scan(self):
        """The motivating workload: GDSF keeps what LRU flushes."""
        hot = fake_key("hot")
        hot_artifact = FakeArtifact(build_seconds=5.0, size=100)
        scan = [
            (fake_key(f"scan{i}"), FakeArtifact(0.001, 100))
            for i in range(6)
        ]
        survivors = {}
        for name in ("lru", "gdsf"):
            catalog = GraphCatalog(max_entries=2, policy=name)
            catalog.put(hot, hot_artifact)
            for _ in range(3):  # traffic loves this artifact
                catalog.get_for_key(hot, lambda: hot_artifact)
            for key, artifact in scan:  # one-shot cold scan
                catalog.put(key, artifact)
            survivors[name] = hot in catalog
        assert survivors["gdsf"] is True
        assert survivors["lru"] is False


class TestSpillHydrateRepricing:
    def test_worker_reprices_identically_after_hydrate(self, tmp_path):
        graph = rmat(100, 700, seed=11)
        parent = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy="gdsf"
        )
        built, _ = get(parent, graph)
        key = built.key
        parent_priority = parent.eviction_policy().priority_of(key)
        assert parent_priority > 0
        # a sibling catalog (a process worker, conceptually) hydrates
        # the artifact from the shared tier and prices it the same:
        # build_seconds rides in the .npz and nbytes() recomputes.
        worker = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy="gdsf"
        )
        hydrated = worker.hydrate(key)
        assert hydrated is not None
        assert hydrated.build_seconds == built.build_seconds
        assert hydrated.nbytes() == built.nbytes()
        worker_priority = worker.eviction_policy().priority_of(key)
        assert worker_priority == pytest.approx(parent_priority)


class TestPrewarmer:
    def test_prewarm_then_replay_hits_warm_cache(self, tmp_path):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy="gdsf"
        )
        with AnalyticsService(catalog, workers=2, backend="threads") as service:
            prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
            # cc's symmetrised graph, the one artifact the trace reads;
            # the udt bc request is rejected, as traffic rejects it
            assert prewarmer.built == 1
            assert prewarmer.already_warm == 0
            assert prewarmer.skipped == 1 and len(prewarmer.errors) == 1
            assert catalog.stats.prewarm_built == 1
            report = replay_trace(trace, service=service, graphs=graphs)
        assert report.ok and report.digests_checked > 0
        assert catalog.stats.builds == 1  # traffic built nothing
        # every request that answered was served without a build
        summary = service.metrics.summary()
        assert summary["queries_failed"] == 1
        assert summary["cache_hit_rate"] == pytest.approx(
            1 - 1 / summary["queries_total"])
        assert summary["prewarm_built"] == 1

    def test_every_replay_hit_is_a_prewarm_hit(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=2, backend="threads") as service:
            Prewarmer(service, trace, graphs=graphs).run_inline()
            # the pass's own re-reads of the prepared graph are not hits
            # on a pre-warmed key: the keys are marked when it ends
            assert catalog.stats.prewarm_hits == 0
            hits_before = catalog.stats.hits
            report = replay_trace(trace, service=service, graphs=graphs)
        assert report.ok
        replay_hits = catalog.stats.hits - hits_before
        # the one cc request reads the prepared graph; no other request
        # reads a catalog artifact, and the one read is pre-warmed
        assert catalog.stats.prewarm_hits == replay_hits == 1

    def test_a_trace_without_cc_warms_nothing(self):
        trace = load_trace(BFS_HEAVY)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1) as service:
            prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
        # bfs reads the graph's unweighted view: no artifact to build
        assert (prewarmer.built, prewarmer.already_warm) == (0, 0)
        assert prewarmer.skipped == 0 and not prewarmer.errors
        assert catalog.stats.builds == catalog.stats.prewarm_built == 0
        assert not catalog.keys()

    def test_second_pass_finds_everything_warm(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1) as service:
            Prewarmer(service, trace, graphs=graphs).run_inline()
            again = Prewarmer(service, trace, graphs=graphs).run_inline()
        assert again.built == 0 and again.already_warm == 1
        assert catalog.stats.prewarm_built == 1

    def test_signatures_warm_once_in_first_arrival_order(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        seen = []

        class Recording(Prewarmer):
            def _warm_one(self, graph, algorithm):
                seen.append(algorithm)
                super()._warm_one(graph, algorithm)

        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Recording(service, trace, graphs=graphs).run_inline()
        # one graph with an admitted cc request: warmed once; every
        # signature is still admitted, so bc's udt request is skipped
        assert seen == ["cc"]
        assert prewarmer.skipped == 1
        assert prewarmer.errors[0].startswith("pokec/bc udt: ")

    def test_planner_rejection_skips_only_that_signature(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        trace.requests[0] = replace(trace.requests[0], transform="bogus")
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
        # the bogus bfs request and the udt bc request
        assert prewarmer.skipped == 2
        assert len(prewarmer.errors) == 2 and "bogus" in prewarmer.errors[0]
        # the cc request still warms its prepared graph
        assert prewarmer.built == 1

    def test_prepared_graph_of_a_rejected_signature_counts_as_built(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        (cc,) = [r for r in trace.requests if r.algorithm == "cc"]
        trace.requests.insert(0, replace(cc, transform="bogus"))
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1) as service:
            prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
        # the admitted cc request builds the prepared graph the rejected
        # one names: one fresh build on an empty catalog
        assert (prewarmer.built, prewarmer.already_warm) == (1, 0)
        assert catalog.stats.builds == catalog.stats.prewarm_built == 1

    def test_rejected_request_warms_nothing(self):
        # cc's only request names a transform traffic rejects: its
        # prepared graph is not built for it
        trace = load_trace(BFS_HEAVY)
        graphs = resolve_trace_graphs(trace)
        trace.requests = [replace(trace.requests[0], algorithm="cc",
                                  sources=(), transform="bogus")]
        catalog = GraphCatalog()
        with AnalyticsService(catalog, workers=1) as service:
            prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
        assert (prewarmer.built, prewarmer.skipped) == (0, 1)
        assert "bogus" in prewarmer.errors[0]
        assert catalog.stats.bytes_in_memory == 0 and catalog.stats.builds == 0

    def test_registered_graph_needs_no_trace_recipe(self):
        trace = load_trace(MIXED)
        graph = resolve_trace_graphs(trace)["pokec"]
        trace.header = replace(trace.header, graphs={})
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            service.register("pokec", graph)
            prewarmer = Prewarmer(service, trace).run_inline()
            assert prewarmer.built == 1
            assert prewarmer.skipped == 1  # the udt bc request alone
            assert prepared_key(graph) in service.catalog

    def test_prepared_graph_is_published_to_shared_tier(self):
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        with AnalyticsService(
            GraphCatalog(), workers=1, backend="processes"
        ) as service:
            Prewarmer(service, trace, graphs=graphs).run_inline()
            shared = GraphCatalog(spill_dir=service.shared_artifact_dir)
            key = prepared_key(graphs["pokec"])
            assert shared.hydrate(key) is not None

    def test_unresolvable_graph_is_skipped_not_fatal(self):
        trace = load_trace(MIXED)
        # drop the recipes and point every request at a graph nobody
        # registered: nothing is resolvable
        trace.header = replace(trace.header, graphs={})
        trace.requests = [replace(r, graph="ghost") for r in trace.requests]
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Prewarmer(service, trace).run_inline()
        assert prewarmer.built == 0
        # the udt bc signature, and the cc graph that cannot be found
        assert prewarmer.skipped == 2
        assert "ghost/cc udt: graph not registered" in prewarmer.errors[-1]

    @pytest.mark.parametrize("prewarm, hydrations", [(True, 1), (False, 0)])
    def test_process_workers_hydrate_prewarmed_artifacts(self, prewarm, hydrations):
        # Workers never see the front-end memory tier: without the
        # publish-to-shared-tier step the prewarm work would be wasted
        # on the process backend. The witness is hydrate_hits — worker
        # cache fills served from disk instead of rebuilds: the one
        # pre-warmed artifact (cc's symmetrised graph) is read once, by
        # the host that serves cc; a graph-store load is not a hydration.
        trace = load_trace(MIXED)
        graphs = resolve_trace_graphs(trace)
        with AnalyticsService(
            GraphCatalog(policy="gdsf"), workers=2, backend="processes"
        ) as service:
            assert service.shared_artifact_dir is not None
            if prewarm:
                prewarmer = Prewarmer(service, trace, graphs=graphs).run_inline()
                assert prewarmer.built == 1
            report = replay_trace(trace, service=service, graphs=graphs)
            summary = service.metrics.summary()
        assert report.ok
        assert summary["hydrate_hits"] == hydrations

    @pytest.mark.parametrize("trace, line, digests", [
        (MIXED, "prewarm: built=1 already_warm=0 skipped=1", "12/12"),
        (BFS_HEAVY, "prewarm: built=0 already_warm=0 skipped=0", "16/16"),
    ], ids=["mixed", "bfs-heavy"])
    def test_serve_prewarm_from_trace_cli(self, capsys, trace, line, digests):
        from repro.__main__ import main

        assert main([
            "serve", "--trace", trace, "--workers", "1",
            "--prewarm-from-trace", trace, "--prewarm-wait", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert line in out
        assert f"digests: {digests} matched" in out

    def test_background_start_is_idempotent(self):
        trace = load_trace(BFS_HEAVY)
        trace.requests = []  # nothing to warm: finishes immediately
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Prewarmer(service, trace)
            assert prewarmer.start() is prewarmer
            assert prewarmer.start() is prewarmer
            assert prewarmer.join(timeout=10.0)
            assert prewarmer.done


class TestGoldenTraceParity:
    @pytest.mark.parametrize("backend", ("threads", "processes"))
    @pytest.mark.parametrize("policy", ("lru", "gdsf"))
    def test_prewarmed_replay_matches_recorded_digests(
        self, policy, backend, tmp_path
    ):
        trace = load_trace(BFS_HEAVY)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy=policy
        )
        with AnalyticsService(
            catalog, workers=2, backend=backend
        ) as service:
            Prewarmer(service, trace, graphs=graphs).run_inline()
            report = replay_trace(trace, service=service, graphs=graphs)
        assert report.ok, report.mismatches
        assert report.digests_checked == len(trace.results)
        assert report.results_failed == 0
