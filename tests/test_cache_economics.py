"""Cache economics: GDSF policy math, trace forecasting, pre-warming.

Covers the three layers of :mod:`repro.service.economics` —

* the GDSF priority arithmetic and its interaction with the catalog
  (clock inflation, frequency persistence across eviction, and
  price agreement across a spill/hydrate round-trip, which is what
  lets process workers evict by the same rules as the parent);
* the trace-mining forecaster and the warm-plan file format;
* the pre-warmer, including the golden-trace end-to-end: replaying
  ``tests/traces/bfs-heavy.jsonl`` prewarmed under every
  (policy × backend) pair must reproduce the recorded digests.
"""

import os

import pytest

from repro.core.weights import DumbWeight
from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    ArtifactKey,
    GdsfPolicy,
    GraphCatalog,
    LruPolicy,
    Prewarmer,
    WarmPlan,
    forecast_trace,
    forecast_traces,
    load_plan,
    load_trace,
    make_policy,
    replay_trace,
    resolve_policy,
    resolve_trace_graphs,
    save_plan,
)
from repro.service.economics import CATALOG_POLICY_ENV

TRACES = os.path.join(os.path.dirname(__file__), "traces")
BFS_HEAVY = os.path.join(TRACES, "bfs-heavy.jsonl")


class FakeArtifact:
    """Duck-typed artifact for pure policy math: fixed cost and size."""

    def __init__(self, build_seconds, size):
        self.build_seconds = build_seconds
        self._size = size

    def nbytes(self):
        return self._size


def fake_key(tag, kind="virtual+", k=8):
    return ArtifactKey(
        graph_fingerprint=f"{tag:0>64s}", kind=kind, degree_bound=k
    )


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
        built = parent.get_or_build(graph, "virtual+", 10)
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


class TestForecast:
    def test_bfs_heavy_forecast_shape(self):
        trace = load_trace(BFS_HEAVY)
        plan = forecast_trace(trace, source=BFS_HEAVY)
        assert plan.requests_total == len(trace.requests)
        # auto serves the CSR, so its requests warm nothing
        autos = sum(request.transform == "auto" for request in trace.requests)
        assert plan.entries and plan.uncacheable == autos == 6
        assert "pokec" in plan.graphs
        scores = [entry.score for entry in plan.entries]
        assert scores == sorted(scores, reverse=True)
        for entry in plan.entries:
            assert sum(entry.histogram) == entry.requests
            assert entry.score == pytest.approx(
                entry.requests * entry.est_build_s
            )
            # k=0 requests resolved to a concrete artifact identity
            assert entry.kind in ("udt", "virtual", "virtual+")
            assert entry.k > 0 and entry.fingerprint

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = forecast_trace(load_trace(BFS_HEAVY), source=BFS_HEAVY)
        path = str(tmp_path / "plan.json")
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.as_dict() == plan.as_dict()

    def test_load_plan_rejects_garbage(self, tmp_path):
        path = tmp_path / "not-a-plan.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ServiceError):
            load_plan(str(path))
        path.write_text("{nope")
        with pytest.raises(ServiceError):
            load_plan(str(path))

    def test_merging_same_trace_doubles_demand(self):
        once = forecast_traces([BFS_HEAVY])
        twice = forecast_traces([BFS_HEAVY, BFS_HEAVY])
        assert len(twice.entries) == len(once.entries)
        assert twice.requests_total == 2 * once.requests_total
        for merged, single in zip(twice.entries, once.entries):
            assert merged.requests == 2 * single.requests
            assert sum(merged.histogram) == merged.requests

    def test_top_keeps_highest_ranked(self):
        plan = forecast_trace(load_trace(BFS_HEAVY))
        top = plan.top(1)
        assert len(top.entries) == 1
        assert top.entries[0] == plan.entries[0]
        assert top.requests_total == plan.requests_total

    def test_forecast_cli_writes_plan(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "plan.json")
        assert main(["forecast", BFS_HEAVY, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "warm-set forecast" in captured
        plan = load_plan(out)
        assert plan.entries
        assert plan.sources == (BFS_HEAVY,)
        # --top truncates the *saved* plan too, not just the table
        top = str(tmp_path / "top.json")
        assert main(["forecast", BFS_HEAVY, "--top", "1", "--out", top]) == 0
        assert len(load_plan(top).entries) == 1


class TestPrewarmer:
    def test_prewarm_then_replay_hits_warm_cache(self, tmp_path):
        trace = load_trace(BFS_HEAVY)
        graphs = resolve_trace_graphs(trace)
        plan = forecast_trace(trace)
        catalog = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy="gdsf"
        )
        with AnalyticsService(catalog, workers=2, backend="threads") as service:
            prewarmer = Prewarmer(service, plan, graphs=graphs).run_inline()
            assert prewarmer.built == len(plan.entries)
            assert prewarmer.skipped == 0 and not prewarmer.errors
            assert catalog.stats.prewarm_built == len(plan.entries)
            report = replay_trace(trace, service=service, graphs=graphs)
        assert report.ok and report.digests_checked > 0
        assert catalog.stats.prewarm_hits > 0
        # every transform lookup was warm
        assert service.metrics.summary()["cache_hit_rate"] == 1.0
        assert service.metrics.summary()["prewarm_built"] == len(plan.entries)

    def test_unresolvable_graph_is_skipped_not_fatal(self):
        from dataclasses import replace

        plan = forecast_trace(load_trace(BFS_HEAVY))
        plan.graphs = {}  # drop the recipes: nothing is resolvable
        # point every entry at a graph nobody registered
        renamed = [replace(entry, graph="ghost") for entry in plan.entries]
        plan.entries = renamed
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Prewarmer(service, plan).run_inline()
        assert prewarmer.built == 0
        assert prewarmer.skipped == len(renamed)
        assert prewarmer.errors

    def test_process_workers_hydrate_prewarmed_artifacts(self):
        # Workers never see the front-end memory tier: without the
        # publish-to-shared-tier step the prewarm work would be wasted
        # on the process backend. The witness is hydrate_hits — worker
        # cache fills served from disk instead of rebuilds.
        trace = load_trace(BFS_HEAVY)
        graphs = resolve_trace_graphs(trace)
        plan = forecast_trace(trace)
        with AnalyticsService(
            GraphCatalog(policy="gdsf"), workers=2, backend="processes"
        ) as service:
            assert service.shared_artifact_dir is not None
            prewarmer = Prewarmer(service, plan, graphs=graphs).run_inline()
            assert prewarmer.built == len(plan.entries)
            report = replay_trace(trace, service=service, graphs=graphs)
            summary = service.metrics.summary()
        assert report.ok
        assert summary["hydrate_hits"] > 0

    def test_background_start_is_idempotent(self):
        plan = WarmPlan()  # empty: finishes immediately
        with AnalyticsService(GraphCatalog(), workers=1) as service:
            prewarmer = Prewarmer(service, plan)
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
            plan = forecast_trace(trace)
            Prewarmer(service, plan, graphs=graphs).run_inline()
            report = replay_trace(trace, service=service, graphs=graphs)
        assert report.ok, report.mismatches
        assert report.digests_checked == len(trace.results)
        assert report.results_failed == 0
