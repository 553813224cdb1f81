"""Tests for the Gunrock frontier-operator abstraction."""

import numpy as np
import pytest

from repro.algorithms.reference import (
    reference_bfs,
    reference_connected_components,
    reference_sssp,
)
from repro.baselines.gunrock_ops import (
    Operators,
    gunrock_bfs,
    gunrock_cc,
    gunrock_sssp,
)
from repro.errors import EngineError
from repro.gpu.simulator import GPUSimulator
from repro.graph.builder import from_edge_list, to_undirected


class TestOperators:
    def test_advance_visits_frontier_edges(self, diamond_graph):
        ops = Operators(diamond_graph)
        out, visited = ops.advance(
            np.array([0]), lambda src, dst, slots: np.ones(len(dst), dtype=bool)
        )
        assert out.tolist() == [1, 2]
        assert visited == 2

    def test_advance_deduplicates_output(self):
        g = from_edge_list([(0, 2), (1, 2)])
        ops = Operators(g)
        out, _ = ops.advance(
            np.array([0, 1]), lambda src, dst, slots: np.ones(len(dst), dtype=bool)
        )
        assert out.tolist() == [2]

    def test_advance_empty_frontier(self, diamond_graph):
        ops = Operators(diamond_graph)
        out, visited = ops.advance(
            np.zeros(0, dtype=np.int64),
            lambda src, dst, slots: np.ones(len(dst), dtype=bool),
        )
        assert len(out) == 0 and visited == 0

    def test_advance_bad_functor(self, diamond_graph):
        ops = Operators(diamond_graph)
        with pytest.raises(EngineError, match="boolean"):
            ops.advance(np.array([0]), lambda src, dst, slots: dst)

    def test_filter(self, diamond_graph):
        ops = Operators(diamond_graph)
        kept = ops.filter(np.array([0, 1, 2, 3]), lambda f: f % 2 == 0)
        assert kept.tolist() == [0, 2]

    def test_compute(self, diamond_graph):
        ops = Operators(diamond_graph)
        values = np.zeros(4)

        def bump(frontier):
            values[frontier] += 1

        ops.compute(np.array([1, 3]), bump)
        assert values.tolist() == [0, 1, 0, 1]

    def test_launch_counting(self, diamond_graph):
        sim = GPUSimulator()
        ops = Operators(diamond_graph, sim)
        ops.filter(np.array([0]), lambda f: f >= 0)
        ops.compute(np.array([0]), lambda f: None)
        assert ops.launches == 2
        assert sim.finish().num_iterations == 2


class TestApplications:
    def test_bfs_matches_reference(self, powerlaw_unweighted, hub_source):
        levels, launches = gunrock_bfs(powerlaw_unweighted, hub_source)
        assert np.allclose(
            levels, reference_bfs(powerlaw_unweighted, hub_source), equal_nan=True
        )
        assert launches >= 2  # advance + filter per level

    def test_sssp_matches_reference(self, powerlaw_graph, hub_source):
        dist, _ = gunrock_sssp(powerlaw_graph, hub_source)
        assert np.allclose(dist, reference_sssp(powerlaw_graph, hub_source))

    def test_sssp_requires_weights(self, powerlaw_unweighted, hub_source):
        with pytest.raises(EngineError, match="weights"):
            gunrock_sssp(powerlaw_unweighted, hub_source)

    def test_cc_matches_reference(self, powerlaw_symmetric):
        labels, _ = gunrock_cc(powerlaw_symmetric)
        assert np.array_equal(
            labels.astype(np.int64),
            reference_connected_components(powerlaw_symmetric),
        )

    def test_pipeline_cost_recorded(self, powerlaw_graph, hub_source):
        """The abstraction's price: several kernel launches per
        iteration, visible in the simulator."""
        sim = GPUSimulator()
        _, launches = gunrock_sssp(powerlaw_graph, hub_source, simulator=sim)
        metrics = sim.finish()
        assert metrics.num_iterations == launches
        # strictly more launches than the vertex-centric engine uses
        from repro.algorithms import sssp

        vertex_centric = GPUSimulator()
        sssp(vertex_centric.attach(powerlaw_graph), hub_source)
        assert launches > vertex_centric.metrics.num_iterations

    def test_small_worked_example(self):
        g = to_undirected(from_edge_list([(0, 1), (1, 2), (3, 4)]))
        labels, _ = gunrock_cc(g)
        assert labels.astype(np.int64).tolist() == [0, 0, 0, 3, 3]
