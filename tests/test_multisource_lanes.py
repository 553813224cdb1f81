"""Lane-parallel multi-source execution: equivalence and accounting.

The contract under test is exact: column ``k`` of a lane-parallel run
is **bitwise identical** to the scalar run from ``sources[k]`` — on
identity, UDT, and virtual targets, through the
bit-packed BFS fast path and the generic float path, and through the
derived analytics (closeness, approximate BC) and the serving layer's
batch fan-out.  Every comparison here is ``np.array_equal``, never
``allclose``.
"""

import numpy as np
import pytest

from repro.algorithms.bc import bc, bc_lanes
from repro.algorithms.bfs import bfs
from repro.algorithms.multi_source import (
    DEFAULT_MAX_LANES,
    approximate_bc,
    closeness_centrality,
    lane_blocks,
    multi_source_distances,
)
from repro.algorithms.programs import BFSProgram, PageRankProgram, SSSPProgram
from repro.algorithms.reference import reference_bc
from repro.algorithms.sssp import sssp
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.engine import kernels
from repro.engine.push import EngineOptions, run_push, run_push_lanes
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.errors import EngineError
from repro.graph.generators import rmat
from repro.service.artifacts import TransformArtifact
from repro.service.batching import (
    QueryBatch,
    fan_out_per_request,
    run_sources_on_target,
)
from repro.service.catalog import GraphCatalog
from repro.service.metrics import ServiceMetrics
from repro.service.query import QueryRequest
from tests.catalog_cells import key_of


def make_graph(seed, *, weighted):
    graph = rmat(120, 900, seed=seed, weight_range=(1.0, 6.0))
    return graph if weighted else graph.without_weights()


def pick_sources(graph, seed, count=9):
    rng = np.random.default_rng(seed)
    return [
        int(s) for s in rng.choice(graph.num_nodes, size=count, replace=False)
    ]


TARGET_KINDS = ("identity", "udt", "virtual")


def make_target(graph, kind):
    if kind == "identity":
        return graph
    if kind == "udt":
        return udt_transform(graph, 4).graph
    return virtual_transform(graph, 4)


# ----------------------------------------------------------------------
# Engine-level equivalence
# ----------------------------------------------------------------------
class TestLaneLoopEquivalence:
    @pytest.mark.parametrize("seed", (3, 7, 21))
    @pytest.mark.parametrize("weighted", (True, False))
    @pytest.mark.parametrize("kind", TARGET_KINDS)
    def test_distance_matrix_matches_loop(self, seed, weighted, kind):
        graph = make_graph(seed, weighted=weighted)
        target = make_target(graph, kind)
        sources = pick_sources(graph, seed)
        looped = multi_source_distances(
            target, sources, weighted=weighted, mode="loop"
        )
        lanes = multi_source_distances(
            target, sources, weighted=weighted, mode="lanes"
        )
        assert np.array_equal(looped, lanes)

    def test_push_lane_columns_match_scalar_runs(self):
        graph = make_graph(5, weighted=True)
        sources = pick_sources(graph, 5)
        for scheduler in (
            NodeScheduler(graph),
            VirtualScheduler(virtual_transform(graph, 4)),
        ):
            result = run_push_lanes(scheduler, SSSPProgram(), sources)
            assert result.values.shape == (graph.num_nodes, len(sources))
            assert result.num_lanes == len(sources)
            for k, source in enumerate(sources):
                scalar = run_push(scheduler, SSSPProgram(), source)
                assert np.array_equal(result.values[:, k], scalar.values)

    def test_bitpacked_and_generic_paths_agree(self):
        """Unweighted BFS under the default options takes the
        bit-packed visited-mask path; ``sync_relaxation_blocks=2``
        forces the generic float path.  Hop counts are a unique fixed
        point, so all four runs must agree exactly."""
        graph = make_graph(9, weighted=False)
        assert graph.weights is None
        sources = pick_sources(graph, 9)
        packed = EngineOptions()
        generic = EngineOptions(sync_relaxation_blocks=2)
        results = {}
        for name, options in (("packed", packed), ("generic", generic)):
            looped = multi_source_distances(
                graph, sources, weighted=False, mode="loop", options=options
            )
            lanes = multi_source_distances(
                graph, sources, weighted=False, mode="lanes", options=options
            )
            assert np.array_equal(looped, lanes)
            results[name] = lanes
        assert np.array_equal(results["packed"], results["generic"])

    @pytest.mark.parametrize("backend", ["numpy"] + kernels.jit_backends())
    def test_both_lane_paths_count_live_lanes(self, backend):
        """``lane_iterations`` sums the lanes still live per superstep
        (``/ num_iterations`` = mean lane occupancy) on both paths.
        Unit weights put bfs on the float lanes.  Synchronous float
        lanes walk the bit-packed levels exactly, so every counter must
        agree; a JIT's float lanes relax in place, so they reach the
        same values in at most as many supersteps."""
        hop = make_graph(9, weighted=False)
        unit = hop.with_weights(np.ones(hop.num_edges))
        sources = pick_sources(hop, 9, count=64)
        options = EngineOptions(kernel_backend=backend)
        packed = run_push_lanes(
            NodeScheduler(hop), BFSProgram(), sources, options=options
        )
        floats = run_push_lanes(
            NodeScheduler(unit), BFSProgram(), sources, options=options
        )
        assert np.array_equal(packed.values, floats.values)
        assert packed.num_lanes == floats.num_lanes == 64
        if backend == "numpy":
            for field in ("num_iterations", "edges_processed",
                          "dense_iterations", "lane_iterations"):
                assert getattr(packed, field) == getattr(floats, field)
        assert floats.num_iterations <= packed.num_iterations
        # live lanes, not (node, lane) pairs: all 64 ride step 1, every
        # later step at most that many
        for run in (packed, floats):
            assert 64 < run.lane_iterations <= 64 * run.num_iterations

    def test_duplicate_sources_share_a_lane(self):
        graph = make_graph(2, weighted=False)
        sources = [4, 17, 4, 99, 17, 4]
        looped = multi_source_distances(
            graph, sources, weighted=False, mode="loop"
        )
        lanes = multi_source_distances(
            graph, sources, weighted=False, mode="lanes"
        )
        assert lanes.shape == (len(sources), graph.num_nodes)
        assert np.array_equal(looped, lanes)
        # duplicates are served from one lane's column
        assert np.array_equal(lanes[0], lanes[2])
        assert np.array_equal(lanes[0], lanes[5])

    def test_empty_sources(self):
        graph = make_graph(2, weighted=True)
        for mode in ("auto", "lanes", "loop"):
            rows = multi_source_distances(graph, [], mode=mode)
            assert rows.shape == (0, graph.num_nodes)
        result = run_push_lanes(NodeScheduler(graph), SSSPProgram(), [])
        assert result.values.shape == (graph.num_nodes, 0)
        assert result.converged

    def test_lane_blocking_matches_unblocked(self):
        graph = make_graph(13, weighted=True)
        sources = pick_sources(graph, 13, count=11)
        wide = multi_source_distances(
            graph, sources, mode="lanes", max_lanes=DEFAULT_MAX_LANES
        )
        blocked = multi_source_distances(
            graph, sources, mode="lanes", max_lanes=4
        )
        assert np.array_equal(wide, blocked)

    def test_lane_blocks_partition(self):
        slices = list(lane_blocks(10, 4))
        assert [(s.start, s.stop) for s in slices] == [(0, 4), (4, 8), (8, 10)]
        with pytest.raises(EngineError):
            list(lane_blocks(10, 0))

    def test_unsafe_program_rejected(self):
        """ADD reductions double-count under the union frontier; the
        lane engine must refuse them (SPLIT006's runtime half)."""
        graph = make_graph(2, weighted=False)
        program = PageRankProgram()
        program.set_out_degrees(graph.out_degrees())
        assert not program.lane_safe
        with pytest.raises(EngineError, match="lane-safe"):
            run_push_lanes(NodeScheduler(graph), program, [0, 1])

    def test_default_lane_relax_matches_scalar_columns(self):
        """The derived lane_relax must be the scalar relax applied per
        column — the property the engine's per-lane calls rely on."""
        rng = np.random.default_rng(0)
        src = rng.uniform(0, 10, size=(50, 4))
        w = rng.uniform(1, 5, size=(50, 1))
        for program, weights in ((BFSProgram(), None), (SSSPProgram(), w)):
            batched = program.lane_relax(src, weights)
            for k in range(src.shape[1]):
                col_w = None if weights is None else weights[:, 0]
                expect = program.relax(src[:, k], col_w)
                assert np.array_equal(batched[:, k], expect)

    def test_invalid_mode_rejected(self):
        graph = make_graph(2, weighted=True)
        with pytest.raises(EngineError, match="mode"):
            multi_source_distances(graph, [0], mode="warp")


# ----------------------------------------------------------------------
# Derived analytics ride the same lanes
# ----------------------------------------------------------------------
class TestDerivedAnalytics:
    def test_closeness_lanes_equals_loop(self):
        graph = make_graph(4, weighted=False)
        sources = pick_sources(graph, 4, count=8)
        looped = closeness_centrality(graph, sources=sources, mode="loop")
        lanes = closeness_centrality(graph, sources=sources, mode="lanes")
        assert np.array_equal(looped, lanes)

    def test_closeness_is_one_multi_source_call(self, monkeypatch):
        """The whole picked source set must go through a single
        lane-parallel traversal, not a per-source loop."""
        import repro.algorithms.multi_source as ms

        calls = []
        original = run_push_lanes

        def counting(scheduler, program, sources, **kwargs):
            calls.append(list(sources))
            return original(scheduler, program, sources, **kwargs)

        monkeypatch.setattr(ms, "run_push_lanes", counting)
        graph = make_graph(4, weighted=False)
        closeness_centrality(graph, sources=[3, 11, 25, 40, 77, 101])
        assert len(calls) == 1
        assert len(calls[0]) == 6

    def test_approximate_bc_lanes_equals_loop(self):
        # on the coalesced layout too, and against the compiled bc: every
        # route folds each row in CSR order, so each lane column is its
        # scalar run whatever the transform or backend
        graph = make_graph(6, weighted=False)
        sources = pick_sources(graph, 6, count=6)
        looped = approximate_bc(graph, sources=sources, mode="loop")
        lanes = approximate_bc(graph, sources=sources, mode="lanes")
        assert np.array_equal(looped, lanes)
        coalesced = virtual_transform(graph, 4, coalesced=True)
        for backend in kernels.available_backends():
            options = EngineOptions(kernel_backend=backend)
            columns = bc_lanes(coalesced, sources, options=options)
            for k, source in enumerate(sources):
                want = reference_bc(graph, source)
                assert np.array_equal(columns[:, k], want)
                assert np.array_equal(bc(
                    coalesced, source, options=options).centrality, want)


# ----------------------------------------------------------------------
# Serving layer: one traversal per batch, and it shows in the metrics
# ----------------------------------------------------------------------
class TestServiceLaneAccounting:
    def _batch(self, graph, algorithm, requests):
        batch = QueryBatch(
            graph=graph,
            algorithm=algorithm,
            options=EngineOptions(),
        )
        batch.requests.extend(requests)
        return batch

    def test_batch_collapses_to_one_traversal(self):
        graph = make_graph(8, weighted=False)
        batch = self._batch(graph, "bfs", [
            QueryRequest(algorithm="bfs", graph=graph, sources=(0, 5, 9)),
            QueryRequest(algorithm="bfs", graph=graph, sources=(9, 33)),
        ])
        per_source, execution = run_sources_on_target(
            "bfs", batch.sources, batch.options, graph
        )
        out = fan_out_per_request(batch.requests, per_source)
        assert execution.traversals == 1
        assert execution.lanes == 4  # sources 0, 5, 9, 33 deduplicated
        assert execution.traversals_saved == 3
        scheduler = NodeScheduler(graph)
        for request in batch.requests:
            for source in request.sources:
                expect = bfs(scheduler, source).values
                assert np.array_equal(out[request.request_id][source], expect)

    def test_batch_counts_lane_blocks(self):
        graph = make_graph(8, weighted=False)
        sources = tuple(range(DEFAULT_MAX_LANES + 6))
        batch = self._batch(graph, "bfs", [
            QueryRequest(algorithm="bfs", graph=graph, sources=sources),
        ])
        _, execution = run_sources_on_target(
            "bfs", batch.sources, batch.options, graph
        )
        assert execution.traversals == 2  # ceil(70 / 64)
        assert execution.lanes == len(sources)
        assert execution.traversals_saved == len(sources) - 2

    def test_single_source_batch_saves_nothing(self):
        graph = make_graph(8, weighted=True)
        batch = self._batch(graph, "sssp", [
            QueryRequest(algorithm="sssp", graph=graph, sources=(7,)),
        ])
        per_source, execution = run_sources_on_target(
            "sssp", batch.sources, batch.options, graph
        )
        out = fan_out_per_request(batch.requests, per_source)
        assert execution.traversals == 1
        assert execution.lanes == 1
        assert execution.traversals_saved == 0
        expect = sssp(NodeScheduler(graph), 7).values
        assert np.array_equal(
            out[batch.requests[0].request_id][7], expect
        )

    def test_metrics_summary_reports_lane_occupancy(self):
        metrics = ServiceMetrics()
        metrics.count(traversals_total=1, lanes_total=16, traversals_saved=15)
        metrics.count(traversals_total=1, lanes_total=4, traversals_saved=3)
        summary = metrics.summary()
        assert summary["lanes_per_traversal"] == pytest.approx(10.0)
        assert summary["traversals_saved"] == 18

    def test_metrics_summary_lane_fields_without_traffic(self):
        summary = ServiceMetrics().summary()
        assert summary["lanes_per_traversal"] == 0.0
        assert summary["traversals_saved"] == 0


# ----------------------------------------------------------------------
# Prepared graphs live under the catalog's byte budget
# ----------------------------------------------------------------------
class TestPreparedArtifactBudget:
    def _prepared(self, graph):
        key = key_of(graph)
        return key, TransformArtifact(
            key=key, payload=graph, build_seconds=0.01
        )

    def test_prepared_artifacts_share_budget_and_spill(self, tmp_path):
        g1 = make_graph(31, weighted=False)
        g2 = make_graph(32, weighted=False)
        key1, art1 = self._prepared(g1)
        key2, art2 = self._prepared(g2)
        budget = max(art1.nbytes(), art2.nbytes()) + 64
        catalog = GraphCatalog(budget, spill_dir=str(tmp_path))

        built, origin = catalog.get_for_key(key1, lambda: art1)
        assert origin == "built"
        assert built.payload is g1

        # same key again: memory hit, no rebuild
        def rebuilt():
            raise AssertionError("rebuilt a cached prepared graph")

        _, origin = catalog.get_for_key(key1, rebuilt)
        assert origin == "memory"

        # the second prepared graph exceeds the budget -> key1 evicts
        catalog.get_for_key(key2, lambda: art2)
        assert key1 not in catalog and key2 in catalog

        # ...but only to the disk tier: no rebuild on the way back
        reloaded, origin = catalog.get_for_key(key1, rebuilt)
        assert origin == "disk"
        assert np.array_equal(reloaded.payload.targets, g1.targets)
        assert reloaded.payload.fingerprint() == g1.fingerprint()

