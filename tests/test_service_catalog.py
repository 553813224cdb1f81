"""GraphCatalog: LRU semantics, byte budgets, and disk spill."""

import threading

import numpy as np
import pytest

from repro.algorithms import prepare_graph
from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import (
    ArtifactKey,
    GraphCatalog,
    TransformArtifact,
    load_artifact,
)
from repro.service.workers import prepared_key
from tests.catalog_cells import CountedBuilder, get


@pytest.fixture
def graph():
    return rmat(120, 900, seed=5, weight_range=(1, 6))


def make_graphs(count, nodes=60, edges=300):
    return [rmat(nodes, edges, seed=100 + i) for i in range(count)]


class TestArtifactKey:
    def test_content_addressed(self, graph):
        twin = rmat(120, 900, seed=5, weight_range=(1, 6))
        assert prepared_key(graph, "cc") == prepared_key(twin, "cc")

    def test_recipe_is_part_of_a_prepared_key(self, graph):
        # symmetrised and weight-stripped forms of one graph
        assert prepared_key(graph, "cc") != prepared_key(graph, "bfs")

    def test_spill_layout_is_unchanged(self, graph, tmp_path):
        # a two-field key writes the file name and archive the
        # four-field key wrote, so existing spill directories hydrate
        key = prepared_key(graph, "cc")
        assert key == ArtifactKey(graph.fingerprint(), "sym-unw")
        assert key.filename() == f"{graph.fingerprint()[:20]}-prepared-k0-sym-unw.npz"
        artifact, _ = get(GraphCatalog(), graph, "cc")
        artifact.save_npz(str(tmp_path / key.filename()))
        with np.load(tmp_path / key.filename()) as archive:
            assert archive["meta"].tolist() == [0, 3]
            assert bytes(archive["dumb_weight"]) == b"sym-unw"

    def test_filename_is_filesystem_safe(self, graph):
        name = prepared_key(graph, "cc").filename()
        assert "/" not in name and "sym-unw" in name
        assert name.endswith(".npz")


class TestHitMissAccounting:
    def test_build_once_then_hit(self, graph):
        catalog = GraphCatalog()
        builder = CountedBuilder(graph)
        first, _ = catalog.get_for_key(builder.key, builder)
        second, _ = catalog.get_for_key(builder.key, builder)
        assert first is second
        assert builder.calls == 1
        assert catalog.stats.builds == 1
        assert catalog.stats.hits == 1
        assert catalog.stats.misses == 1
        assert catalog.stats.hit_rate == 0.5

    def test_different_recipe_different_artifact(self, graph):
        catalog = GraphCatalog()
        get(catalog, graph, "cc")
        get(catalog, graph, "bfs")
        assert catalog.stats.builds == 2
        assert len(catalog) == 2

    def test_content_twin_hits(self, graph):
        catalog = GraphCatalog()
        get(catalog, graph)
        twin = rmat(120, 900, seed=5, weight_range=(1, 6))
        get(catalog, twin)
        assert catalog.stats.builds == 1

    def test_origin_reporting(self, graph):
        catalog = GraphCatalog()
        assert get(catalog, graph)[1] == "built"
        assert get(catalog, graph)[1] == "memory"

    def test_seconds_saved_accumulates(self, graph):
        catalog = GraphCatalog()
        get(catalog, graph)
        assert catalog.stats.seconds_building > 0
        before = catalog.stats.seconds_saved
        get(catalog, graph)
        assert catalog.stats.seconds_saved > before


class TestLRUAndBudget:
    def test_eviction_order_is_lru(self):
        graphs = make_graphs(3)
        catalog = GraphCatalog(max_entries=2)
        k0, k1, k2 = (prepared_key(g, "cc") for g in graphs)
        get(catalog, graphs[0])
        get(catalog, graphs[1])
        # touch graph 0 so graph 1 becomes least recently used
        get(catalog, graphs[0])
        get(catalog, graphs[2])
        assert k1 not in catalog
        assert k0 in catalog and k2 in catalog
        assert catalog.stats.evictions == 1

    def test_byte_budget_enforced(self):
        graphs = make_graphs(4)
        artifact, _ = get(GraphCatalog(), graphs[0])
        budget = int(artifact.nbytes() * 2.5)  # fits two, not three
        catalog = GraphCatalog(memory_budget_bytes=budget)
        for g in graphs:
            get(catalog, g)
        assert catalog.stats.bytes_in_memory <= budget
        assert catalog.stats.evictions >= 1
        assert len(catalog) >= 1

    def test_bytes_accounting_matches_entries(self):
        graphs = make_graphs(3)
        catalog = GraphCatalog()
        total = 0
        for g in graphs:
            total += get(catalog, g)[0].nbytes()
        assert catalog.stats.bytes_in_memory == total
        catalog.clear()
        assert catalog.stats.bytes_in_memory == 0
        assert len(catalog) == 0

    def test_oversized_artifact_served_not_retained(self, graph):
        catalog = GraphCatalog(memory_budget_bytes=1)
        artifact, _ = get(catalog, graph)
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
        small, _ = get(GraphCatalog(), graphs[0])
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
    @pytest.mark.parametrize("algorithm", ["cc", "bfs"])
    def test_spill_round_trip_prepared(self, graph, algorithm, tmp_path):
        artifact, _ = get(GraphCatalog(), graph, algorithm)
        path = str(tmp_path / "p.npz")
        artifact.save_npz(path)
        loaded = load_artifact(path)
        assert loaded.key == artifact.key
        assert loaded.build_seconds == artifact.build_seconds
        assert loaded.payload == prepare_graph(graph, algorithm)

    def test_spill_written_before_udt_retired_still_hydrates(
        self, graph, tmp_path
    ):
        # a write-through directory from before the udt kind was retired:
        # the prepared spill's file name and archive layout are unchanged
        prepared = prepare_graph(graph, "cc")
        fingerprint = graph.fingerprint()
        np.savez_compressed(
            tmp_path / f"{fingerprint[:20]}-prepared-k0-sym-unw.npz",
            meta=np.asarray([0, 3], dtype=np.int64),
            fingerprint=np.frombuffer(fingerprint.encode("ascii"), np.uint8),
            dumb_weight=np.frombuffer(b"sym-unw", np.uint8),
            build_seconds=np.asarray([0.25]),
            offsets=prepared.offsets, targets=prepared.targets,
        )
        catalog = GraphCatalog(spill_dir=str(tmp_path))
        artifact = catalog.hydrate(prepared_key(graph, "cc"))
        assert artifact is not None and artifact.payload == prepared
        assert artifact.build_seconds == 0.25

    def test_stale_udt_spill_is_a_miss(self, graph, tmp_path):
        # kind code 0 named the retired udt transform: unknown now
        builder = CountedBuilder(graph)
        artifact = builder()
        path = str(tmp_path / builder.key.filename())
        artifact.save_npz(path)
        with np.load(path) as archive:
            fields = dict(archive)
        fields["meta"] = np.asarray([8, 0], dtype=np.int64)
        np.savez_compressed(path, **fields)
        with pytest.raises(KeyError):
            load_artifact(path)
        catalog = GraphCatalog(spill_dir=str(tmp_path))
        _, origin = catalog.get_for_key(builder.key, builder)
        assert origin == "built" and catalog.stats.disk_hits == 0

    def test_evicted_artifact_reloaded_from_disk(self, tmp_path):
        graphs = make_graphs(2)
        catalog = GraphCatalog(max_entries=1, spill_dir=str(tmp_path))
        get(catalog, graphs[0])
        get(catalog, graphs[1])  # evicts + spills g0
        assert catalog.stats.spills == 1
        builder = CountedBuilder(graphs[0])
        _, origin = catalog.get_for_key(builder.key, builder)
        assert origin == "disk"
        assert catalog.stats.disk_hits == 1
        assert builder.calls == 0 and catalog.stats.builds == 2  # never rebuilt

    def test_disk_tier_survives_new_catalog(self, graph, tmp_path):
        first = GraphCatalog(max_entries=4, spill_dir=str(tmp_path))
        artifact, _ = get(first, graph)
        first._spill(artifact.key, artifact)  # simulate an eviction spill
        # a fresh catalog (fresh process, conceptually) finds it on disk
        second = GraphCatalog(spill_dir=str(tmp_path))
        _, origin = get(second, graph)
        assert origin == "disk"
        assert second.stats.builds == 0

    def test_corrupt_spill_is_a_miss(self, graph, tmp_path):
        catalog = GraphCatalog(spill_dir=str(tmp_path))
        key = prepared_key(graph, "cc")
        (tmp_path / key.filename()).write_bytes(b"not an npz")
        get(catalog, graph)
        assert catalog.stats.builds == 1
        assert catalog.stats.disk_hits == 0

    def test_clear_drop_spilled(self, graph, tmp_path):
        catalog = GraphCatalog(max_entries=1, spill_dir=str(tmp_path))
        artifact, _ = get(catalog, graph)
        catalog._spill(artifact.key, artifact)
        assert list(tmp_path.glob("*.npz"))
        catalog.clear(drop_spilled=True)
        assert not list(tmp_path.glob("*.npz"))


class TestSingleFlight:
    def test_concurrent_same_key_builds_once(self, graph):
        catalog = GraphCatalog()
        builder = CountedBuilder(graph)
        gate = threading.Barrier(8)
        results = []

        def worker():
            gate.wait()
            results.append(catalog.get_for_key(builder.key, builder)[0])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert builder.calls == 1
        assert all(r is results[0] for r in results)

    def test_concurrent_distinct_keys_all_build(self):
        graphs = make_graphs(4)
        catalog = GraphCatalog()
        gate = threading.Barrier(4)

        def worker(g):
            gate.wait()
            get(catalog, g)

        threads = [threading.Thread(target=worker, args=(g,)) for g in graphs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert catalog.stats.builds == 4
        assert len(catalog) == 4
