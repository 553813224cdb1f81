"""Cache economics: GDSF policy math, and golden traces under every policy.

* the GDSF priority arithmetic and its interaction with the catalog
  (clock inflation, frequency persistence across eviction, and
  price agreement across a spill/hydrate round-trip, which is what
  lets process workers evict by the same rules as the parent);
* the golden-trace end-to-end: replaying ``tests/traces/mixed.jsonl``
  and ``bfs-heavy.jsonl`` under every (policy × backend × shards)
  cell reproduces the recorded digests and builds nothing.
"""

import os

import pytest

from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import (
    AnalyticsService,
    ArtifactKey,
    GdsfPolicy,
    GraphCatalog,
    LruPolicy,
    load_trace,
    make_policy,
    replay_trace,
    resolve_policy,
    resolve_trace_graphs,
)
from repro.service.economics import CATALOG_POLICY_ENV
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


class TestGoldenTraceParity:
    @pytest.mark.parametrize("shards", (0, 2))
    @pytest.mark.parametrize("backend", ("threads", "processes"))
    @pytest.mark.parametrize("policy", ("lru", "gdsf"))
    @pytest.mark.parametrize("path", (MIXED, BFS_HEAVY), ids=("mixed", "bfs-heavy"))
    def test_replay_matches_recorded_digests_and_builds_nothing(
        self, path, policy, backend, shards, tmp_path
    ):
        # cc reads the CSR as it is: no replay puts anything in a catalog
        trace = load_trace(path)
        graphs = resolve_trace_graphs(trace)
        catalog = GraphCatalog(
            spill_dir=str(tmp_path), write_through=True, policy=policy
        )
        with AnalyticsService(
            catalog, workers=2, backend=backend, shards=shards
        ) as service:
            report = replay_trace(trace, service=service, graphs=graphs)
            summary = service.metrics.summary()
        assert report.ok, report.mismatches
        assert report.digests_checked == len(trace.results)
        assert summary["catalog_builds"] == summary["hydrate_hits"] == 0
        # the process backend's graph store is the only thing written
        assert set(os.listdir(tmp_path)) <= {"graphs"}
