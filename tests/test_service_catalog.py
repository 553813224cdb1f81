"""GraphCatalog: LRU semantics, byte budgets, and disk spill."""

import threading

import numpy as np
import pytest

from repro.core.udt import udt_transform
from repro.core.weights import DumbWeight
from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import (
    ArtifactKey,
    GraphCatalog,
    TransformArtifact,
    load_artifact,
)


@pytest.fixture
def graph():
    return rmat(120, 900, seed=5, weight_range=(1, 6))


def make_graphs(count, nodes=60, edges=300):
    return [rmat(nodes, edges, seed=100 + i) for i in range(count)]


class TestArtifactKey:
    def test_content_addressed(self, graph):
        twin = rmat(120, 900, seed=5, weight_range=(1, 6))
        a = ArtifactKey.for_transform(graph, "udt", 10)
        b = ArtifactKey.for_transform(twin, "udt", 10)
        assert a == b

    def test_dumb_weight_is_part_of_a_udt_key(self, graph):
        u1 = ArtifactKey.for_transform(graph, "udt", 8, DumbWeight.ZERO)
        u2 = ArtifactKey.for_transform(graph, "udt", 8, DumbWeight.INFINITY)
        assert u1 != u2

    def test_unknown_kind_rejected(self, graph):
        # the serving tier caches no overlay: virtual[+] plan `none`
        for kind in ("cliq", "virtual", "virtual+"):
            with pytest.raises(ServiceError):
                ArtifactKey.for_transform(graph, kind, 10)

    def test_filename_is_filesystem_safe(self, graph):
        key = ArtifactKey.for_transform(graph, "udt", 10, DumbWeight.INFINITY)
        name = key.filename()
        assert "/" not in name and "infinity" in name
        assert name.endswith(".npz")


class TestHitMissAccounting:
    def test_build_once_then_hit(self, graph):
        catalog = GraphCatalog()
        first = catalog.get_or_build(graph, "udt", 10)
        second = catalog.get_or_build(graph, "udt", 10)
        assert first is second
        assert catalog.stats.builds == 1
        assert catalog.stats.hits == 1
        assert catalog.stats.misses == 1
        assert catalog.stats.hit_rate == 0.5

    def test_different_k_different_artifact(self, graph):
        catalog = GraphCatalog()
        catalog.get_or_build(graph, "udt", 10)
        catalog.get_or_build(graph, "udt", 4)
        assert catalog.stats.builds == 2
        assert len(catalog) == 2

    def test_content_twin_hits(self, graph):
        catalog = GraphCatalog()
        catalog.get_or_build(graph, "udt", 10)
        twin = rmat(120, 900, seed=5, weight_range=(1, 6))
        catalog.get_or_build(twin, "udt", 10)
        assert catalog.stats.builds == 1

    def test_origin_reporting(self, graph):
        catalog = GraphCatalog()
        _, origin = catalog.get_or_build_with_origin(graph, "udt", 10)
        assert origin == "built"
        _, origin = catalog.get_or_build_with_origin(graph, "udt", 10)
        assert origin == "memory"

    def test_seconds_saved_accumulates(self, graph):
        catalog = GraphCatalog()
        catalog.get_or_build(graph, "udt", 8, dumb_weight=DumbWeight.ZERO)
        assert catalog.stats.seconds_building > 0
        before = catalog.stats.seconds_saved
        catalog.get_or_build(graph, "udt", 8, dumb_weight=DumbWeight.ZERO)
        assert catalog.stats.seconds_saved > before


class TestLRUAndBudget:
    def test_eviction_order_is_lru(self):
        graphs = make_graphs(3)
        catalog = GraphCatalog(max_entries=2)
        k0 = ArtifactKey.for_transform(graphs[0], "udt", 10)
        k1 = ArtifactKey.for_transform(graphs[1], "udt", 10)
        k2 = ArtifactKey.for_transform(graphs[2], "udt", 10)
        catalog.get_or_build(graphs[0], "udt", 10)
        catalog.get_or_build(graphs[1], "udt", 10)
        # touch graph 0 so graph 1 becomes least recently used
        catalog.get_or_build(graphs[0], "udt", 10)
        catalog.get_or_build(graphs[2], "udt", 10)
        assert k1 not in catalog
        assert k0 in catalog and k2 in catalog
        assert catalog.stats.evictions == 1

    def test_byte_budget_enforced(self):
        graphs = make_graphs(4)
        probe = GraphCatalog()
        artifact = probe.get_or_build(graphs[0], "udt", 10)
        budget = int(artifact.nbytes() * 2.5)  # fits two, not three
        catalog = GraphCatalog(memory_budget_bytes=budget)
        for g in graphs:
            catalog.get_or_build(g, "udt", 10)
        assert catalog.stats.bytes_in_memory <= budget
        assert catalog.stats.evictions >= 1
        assert len(catalog) >= 1

    def test_bytes_accounting_matches_entries(self):
        graphs = make_graphs(3)
        catalog = GraphCatalog()
        total = 0
        for g in graphs:
            total += catalog.get_or_build(g, "udt", 10).nbytes()
        assert catalog.stats.bytes_in_memory == total
        catalog.clear()
        assert catalog.stats.bytes_in_memory == 0
        assert len(catalog) == 0

    def test_oversized_artifact_served_not_retained(self, graph):
        catalog = GraphCatalog(memory_budget_bytes=1)
        artifact = catalog.get_or_build(graph, "udt", 10)
        assert artifact is not None
        assert len(catalog) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ServiceError):
            GraphCatalog(memory_budget_bytes=-1)

    def test_oversized_same_key_replacement_clears_stale_entry(self):
        # Regression: replacing a resident entry with a build that is
        # larger than the whole budget used to return early *before*
        # popping the old entry — the stale artifact stayed resident
        # (and its bytes stayed accounted) while callers held the new
        # payload.  Reachable through hydrate-after-rebuild and the
        # prewarmer's put path; the guard must drop the stale entry.
        graphs = make_graphs(2, nodes=40, edges=150)
        small = GraphCatalog().get_or_build(graphs[0], "udt", 10)
        key = small.key
        budget = small.nbytes() * 2
        catalog = GraphCatalog(memory_budget_bytes=budget)
        catalog._insert(key, small)
        assert catalog.stats.bytes_in_memory == small.nbytes()
        big = TransformArtifact(
            key=key, payload=rmat(4000, 30000, seed=9), build_seconds=0.5
        )
        assert big.nbytes() > budget
        catalog._insert(key, big)
        assert key not in catalog
        assert catalog.peek(key) is None
        assert catalog.stats.bytes_in_memory == 0


class TestDiskSpill:
    def test_spill_round_trip_udt(self, graph, tmp_path):
        artifact = GraphCatalog().get_or_build(
            graph, "udt", 6, dumb_weight=DumbWeight.ZERO
        )
        path = str(tmp_path / "u.npz")
        artifact.save_npz(path)
        loaded = load_artifact(path)
        reference = udt_transform(graph, 6, dumb_weight=DumbWeight.ZERO)
        assert loaded.payload.graph == reference.graph
        assert loaded.payload.num_original_nodes == reference.num_original_nodes
        assert loaded.payload.stats == reference.stats
        np.testing.assert_array_equal(
            loaded.payload.node_origin, reference.node_origin
        )
        np.testing.assert_array_equal(
            loaded.payload.new_edge_mask, reference.new_edge_mask
        )

    def test_evicted_artifact_reloaded_from_disk(self, tmp_path):
        graphs = make_graphs(2)
        catalog = GraphCatalog(max_entries=1, spill_dir=str(tmp_path))
        catalog.get_or_build(graphs[0], "udt", 10)
        catalog.get_or_build(graphs[1], "udt", 10)  # evicts + spills g0
        assert catalog.stats.spills == 1
        _, origin = catalog.get_or_build_with_origin(graphs[0], "udt", 10)
        assert origin == "disk"
        assert catalog.stats.disk_hits == 1
        assert catalog.stats.builds == 2  # never rebuilt

    def test_disk_tier_survives_new_catalog(self, graph, tmp_path):
        first = GraphCatalog(max_entries=4, spill_dir=str(tmp_path))
        artifact = first.get_or_build(graph, "udt", 6, dumb_weight=DumbWeight.ZERO)
        key = artifact.key
        first._spill(key, artifact)  # simulate an eviction spill
        # a fresh catalog (fresh process, conceptually) finds it on disk
        second = GraphCatalog(spill_dir=str(tmp_path))
        _, origin = second.get_or_build_with_origin(
            graph, "udt", 6, dumb_weight=DumbWeight.ZERO
        )
        assert origin == "disk"
        assert second.stats.builds == 0

    def test_corrupt_spill_is_a_miss(self, graph, tmp_path):
        catalog = GraphCatalog(spill_dir=str(tmp_path))
        key = ArtifactKey.for_transform(graph, "udt", 10)
        (tmp_path / key.filename()).write_bytes(b"not an npz")
        catalog.get_or_build(graph, "udt", 10)
        assert catalog.stats.builds == 1
        assert catalog.stats.disk_hits == 0

    def test_clear_drop_spilled(self, graph, tmp_path):
        catalog = GraphCatalog(max_entries=1, spill_dir=str(tmp_path))
        artifact = catalog.get_or_build(graph, "udt", 10)
        catalog._spill(artifact.key, artifact)
        assert list(tmp_path.glob("*.npz"))
        catalog.clear(drop_spilled=True)
        assert not list(tmp_path.glob("*.npz"))


class TestSingleFlight:
    def test_concurrent_same_key_builds_once(self, graph):
        catalog = GraphCatalog()
        build_count = []
        gate = threading.Barrier(8)

        def builder():
            build_count.append(1)
            payload = udt_transform(graph, 10, dumb_weight=DumbWeight.NONE)
            return TransformArtifact(
                key=ArtifactKey.for_transform(graph, "udt", 10),
                payload=payload,
                build_seconds=0.01,
            )

        results = []

        def worker():
            gate.wait()
            results.append(
                catalog.get_or_build(graph, "udt", 10, builder=builder)
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(build_count) == 1
        assert all(r is results[0] for r in results)

    def test_concurrent_distinct_keys_all_build(self):
        graphs = make_graphs(4)
        catalog = GraphCatalog()
        gate = threading.Barrier(4)

        def worker(g):
            gate.wait()
            catalog.get_or_build(g, "udt", 10)

        threads = [threading.Thread(target=worker, args=(g,)) for g in graphs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert catalog.stats.builds == 4
        assert len(catalog) == 4
