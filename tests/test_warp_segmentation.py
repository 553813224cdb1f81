"""Tests for the warp segmentation scheduler ([30], §1's other
thread-execution-model technique)."""

import numpy as np
import pytest

from repro.algorithms import sssp
from repro.algorithms.reference import reference_sssp
from repro.core.virtual import virtual_transform
from repro.engine.schedule import (
    NodeScheduler,
    ThreadBatch,
    VirtualScheduler,
    WarpSegmentationScheduler,
)
from repro.errors import EngineError
from repro.gpu.simulator import GPUSimulator
from repro.gpu.warp import WorkTrace, warp_statistics
from repro.graph.builder import from_edge_list
from repro.graph.generators import rmat, star


class TestBatchConstruction:
    def test_contiguous_group_split_evenly(self):
        # 4 nodes with degrees 5,1,1,1 -> 8 edges over a 4-lane warp
        g = from_edge_list(
            [(0, t) for t in range(1, 6)] + [(1, 6), (2, 6), (3, 6)], num_nodes=7
        )
        sched = WarpSegmentationScheduler(g, warp_size=4)
        batch = sched.batch(np.array([0, 1, 2, 3]))
        assert batch.num_threads == 4
        assert batch.counts.tolist() == [2, 2, 2, 2]
        assert sorted(batch.edge_indices().tolist()) == list(range(8))

    def test_sources_derived_from_offsets(self):
        g = from_edge_list(
            [(0, t) for t in range(1, 6)] + [(1, 6), (2, 6), (3, 6)], num_nodes=7
        )
        batch = WarpSegmentationScheduler(g, warp_size=4).batch(np.array([0, 1, 2, 3]))
        src = batch.sources_per_edge()
        # the first 5 slots belong to node 0, then one each for 1,2,3
        assert src.tolist() == [0, 0, 0, 0, 0, 1, 2, 3]

    def test_non_contiguous_frontier_fallback(self):
        g = from_edge_list([(0, 1), (0, 2), (2, 3), (2, 1), (4, 0)], num_nodes=5)
        batch = WarpSegmentationScheduler(g, warp_size=2).batch(np.array([0, 4]))
        # nodes 0 and 4 are not adjacent in the edge array (node 2 sits
        # between): the scheduler falls back to per-node spans
        assert sorted(batch.edge_indices().tolist()) == [0, 1, 4]
        assert batch.sources_per_edge().tolist() == [0, 0, 4]

    def test_bad_warp_size(self, powerlaw_graph):
        with pytest.raises(EngineError):
            WarpSegmentationScheduler(powerlaw_graph, warp_size=0)

    def test_batch_requires_ownership_info(self):
        with pytest.raises(EngineError):
            ThreadBatch(None, np.array([1]), np.array([0]), np.array([1]))


class TestSemantics:
    def test_sssp_matches_reference(self, powerlaw_graph, hub_source):
        result = sssp(WarpSegmentationScheduler(powerlaw_graph), hub_source)
        assert np.allclose(result.values, reference_sssp(powerlaw_graph, hub_source))

    def test_iterations_match_node_scheduling(self, powerlaw_graph, hub_source):
        node = sssp(NodeScheduler(powerlaw_graph), hub_source)
        ws = sssp(WarpSegmentationScheduler(powerlaw_graph), hub_source)
        assert ws.num_iterations == node.num_iterations


class TestBalanceCharacter:
    def test_intra_warp_balance_is_perfect(self):
        """No lane exceeds ceil(warp_edges / 32): the warp's steps are
        bounded by the even split, whatever the degree mix."""
        g = rmat(64, 2000, seed=7)
        batch = WarpSegmentationScheduler(g).batch(np.arange(32))
        total = batch.total_edges
        assert batch.counts.max() <= -(-total // 32)

    def test_inter_warp_hub_residue_remains(self):
        """A hub's warp still takes ~d/32 steps: warp segmentation
        fixes intra-warp divergence only, the §2.3 residue Tigr's
        splitting removes."""
        hub = star(3200)  # degree 3200 hub + leaves
        sched = WarpSegmentationScheduler(hub)
        batch = sched.batch(sched.all_nodes())
        stats = warp_statistics(WorkTrace.of(batch))
        assert stats.steps.max() >= 3200 // 32

    def test_sits_between_baseline_and_tigr(self, hub_source):
        """On power-law SSSP: WS beats the plain baseline, Tigr-V+
        beats WS (it also removes the inter-warp residue)."""
        graph = rmat(2000, 40000, seed=12, weight_range=(1, 16))
        source = int(np.argmax(graph.out_degrees()))

        def timed(scheduler):
            sim = GPUSimulator()
            sssp(sim.attach(scheduler), source)
            return sim.finish().total_time_ms

        baseline = timed(NodeScheduler(graph))
        segmented = timed(WarpSegmentationScheduler(graph))
        tigr = timed(
            VirtualScheduler(virtual_transform(graph, 10, coalesced=True))
        )
        assert segmented < baseline
        assert tigr < segmented
