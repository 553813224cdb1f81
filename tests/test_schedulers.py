"""Unit tests for thread schedulers (node / virtual / maxwarp / edge)."""

import numpy as np
import pytest

from repro.core.virtual import virtual_transform
from repro.engine.schedule import (
    EdgeParallelScheduler,
    MaxWarpScheduler,
    NodeScheduler,
    VirtualScheduler,
)
from repro.errors import EngineError
from repro.graph.builder import from_edge_list


@pytest.fixture
def small_graph():
    # node 0: 5 edges, node 1: 1 edge, node 2: none
    return from_edge_list([(0, 1), (0, 2), (0, 1), (0, 2), (0, 1), (1, 2)], num_nodes=3)


class TestNodeScheduler:
    def test_batch(self, small_graph):
        batch = NodeScheduler(small_graph).batch(np.array([0, 2]))
        assert batch.phys.tolist() == [0, 2]
        assert batch.counts.tolist() == [5, 0]
        assert batch.starts.tolist() == [0, 6]
        assert batch.edge_indices().tolist() == [0, 1, 2, 3, 4]

    def test_all_nodes(self, small_graph):
        assert NodeScheduler(small_graph).all_nodes().tolist() == [0, 1, 2]

    def test_sources_per_edge(self, small_graph):
        batch = NodeScheduler(small_graph).batch(np.array([0, 1]))
        assert batch.sources_per_edge().tolist() == [0] * 5 + [1]

    def test_trace_roundtrip(self, small_graph):
        batch = NodeScheduler(small_graph).batch(np.array([0]))
        from repro.gpu.warp import WorkTrace

        trace = WorkTrace.of(batch)
        assert trace.total_edges == 5

    def test_slice(self, small_graph):
        batch = NodeScheduler(small_graph).batch(np.array([0, 1, 2]))
        sub = batch.slice(1, 3)
        assert sub.phys.tolist() == [1, 2]


class TestVirtualScheduler:
    def test_expands_to_siblings(self, small_graph):
        v = virtual_transform(small_graph, 2)
        sched = VirtualScheduler(v)
        batch = sched.batch(np.array([0]))
        # node 0 (degree 5, K=2) -> 3 virtual nodes
        assert batch.num_threads == 3
        assert batch.phys.tolist() == [0, 0, 0]
        assert batch.counts.tolist() == [2, 2, 1]

    def test_coalesced_strides(self, small_graph):
        v = virtual_transform(small_graph, 2, coalesced=True)
        batch = VirtualScheduler(v).batch(np.array([0]))
        assert batch.strides.tolist() == [3, 3, 3]
        assert np.array_equal(np.sort(batch.edge_indices()), np.arange(5))

    def test_empty_for_sink(self, small_graph):
        v = virtual_transform(small_graph, 2)
        assert VirtualScheduler(v).batch(np.array([2])).num_threads == 0


class TestMaxWarpScheduler:
    def test_lane_math(self, small_graph):
        sched = MaxWarpScheduler(small_graph, 2)
        batch = sched.batch(np.array([0]))
        # node 0, degree 5, w=2: lane 0 -> slots 0,2,4; lane 1 -> 1,3
        assert batch.num_threads == 2
        assert batch.counts.tolist() == [3, 2]
        assert batch.starts.tolist() == [0, 1]
        assert batch.strides.tolist() == [2, 2]
        assert sorted(batch.edge_indices().tolist()) == [0, 1, 2, 3, 4]

    def test_low_degree_padding(self, small_graph):
        """MW wastes lanes on low-degree nodes: degree 1, w=4."""
        batch = MaxWarpScheduler(small_graph, 4).batch(np.array([1]))
        assert batch.num_threads == 4
        assert batch.counts.tolist() == [1, 0, 0, 0]

    def test_full_coverage(self, small_graph):
        for w in (2, 4, 8):
            batch = MaxWarpScheduler(small_graph, w).batch(np.array([0, 1, 2]))
            assert sorted(batch.edge_indices().tolist()) == list(range(6))

    def test_bad_w(self, small_graph):
        with pytest.raises(EngineError):
            MaxWarpScheduler(small_graph, 0)
        with pytest.raises(EngineError):
            MaxWarpScheduler(small_graph, 64)


class TestEdgeParallelScheduler:
    def test_one_thread_per_edge(self, small_graph):
        batch = EdgeParallelScheduler(small_graph).batch(np.array([0, 1]))
        assert batch.num_threads == 6
        assert batch.counts.tolist() == [1] * 6
        assert batch.edge_indices().tolist() == list(range(6))
        assert batch.phys.tolist() == [0] * 5 + [1]

    def test_subset_of_frontier(self, small_graph):
        batch = EdgeParallelScheduler(small_graph).batch(np.array([1]))
        assert batch.edge_indices().tolist() == [5]

    def test_perfect_balance_trace(self, small_graph):
        from repro.gpu.warp import WorkTrace, warp_statistics

        batch = EdgeParallelScheduler(small_graph).batch(np.array([0, 1]))
        stats = warp_statistics(WorkTrace.of(batch))
        assert stats.steps.tolist() == [1]
