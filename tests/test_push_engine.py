"""Unit tests for the push-based BSP engine."""

import numpy as np
import pytest

from repro.algorithms.programs import BFSProgram, CCProgram, SSSPProgram
from repro.engine.program import ReduceOp
from repro.engine.push import EngineOptions, run_push
from repro.engine.schedule import NodeScheduler
from repro.errors import EngineError
from repro.gpu.simulator import GPUSimulator
from repro.graph.builder import from_edge_list


class TestReduceOp:
    def test_min_scatter_with_duplicates(self):
        values = np.array([9.0, 9.0])
        ReduceOp.MIN.scatter(values, np.array([0, 0, 1]), np.array([5.0, 3.0, 7.0]))
        assert values.tolist() == [3.0, 7.0]

    def test_max_scatter(self):
        values = np.array([0.0])
        ReduceOp.MAX.scatter(values, np.array([0, 0]), np.array([2.0, 5.0]))
        assert values[0] == 5.0

    def test_add_scatter(self):
        values = np.array([1.0])
        ReduceOp.ADD.scatter(values, np.array([0, 0]), np.array([2.0, 3.0]))
        assert values[0] == 6.0

    def test_identities(self):
        assert ReduceOp.MIN.identity == np.inf
        assert ReduceOp.MAX.identity == -np.inf
        assert ReduceOp.ADD.identity == 0.0


class TestEngineLoop:
    def test_figure2_distances(self, figure2_graph):
        """The paper's running SSSP example converges to [0, 2, 2, 3]."""
        result = run_push(NodeScheduler(figure2_graph), SSSPProgram(), 0)
        assert result.values.tolist() == [0.0, 2.0, 2.0, 3.0]
        assert result.converged

    def test_unreachable_nodes_stay_at_identity(self):
        g = from_edge_list([(0, 1, 1.0)], num_nodes=3)
        result = run_push(NodeScheduler(g), SSSPProgram(), 0)
        assert result.values[2] == np.inf

    def test_worklist_and_full_sweep_agree(self, powerlaw_graph, hub_source):
        with_wl = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                           options=EngineOptions(worklist=True))
        without = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                           options=EngineOptions(worklist=False))
        assert np.allclose(with_wl.values, without.values)

    def test_worklist_processes_fewer_edges(self, powerlaw_graph, hub_source):
        with_wl = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                           options=EngineOptions(worklist=True))
        without = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                           options=EngineOptions(worklist=False))
        assert with_wl.edges_processed < without.edges_processed

    def test_sync_relaxation_same_fixed_point(self, powerlaw_graph, hub_source):
        # strict BSP is the numpy body's (a compiled MIN step relaxes
        # in place, which is synchronization relaxation already)
        strict = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                          options=EngineOptions(kernel_backend="numpy"))
        for blocks in (2, 4, 16):
            relaxed = run_push(
                NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                options=EngineOptions(sync_relaxation_blocks=blocks,
                                      kernel_backend="numpy"),
            )
            assert np.allclose(strict.values, relaxed.values)
            assert relaxed.num_iterations <= strict.num_iterations

    def test_bad_relaxation_blocks(self, figure2_graph):
        with pytest.raises(EngineError):
            run_push(NodeScheduler(figure2_graph), SSSPProgram(), 0,
                     options=EngineOptions(sync_relaxation_blocks=0))

    def test_weights_required(self, diamond_graph):
        with pytest.raises(EngineError, match="weights"):
            run_push(NodeScheduler(diamond_graph), SSSPProgram(), 0)

    def test_max_iterations_enforced(self, powerlaw_graph, hub_source):
        with pytest.raises(EngineError, match="converge"):
            run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                     options=EngineOptions(max_iterations=1))

    def test_max_iterations_tolerated_when_not_required(self, powerlaw_graph, hub_source):
        result = run_push(NodeScheduler(powerlaw_graph), SSSPProgram(), hub_source,
                          options=EngineOptions(max_iterations=1, require_convergence=False))
        assert not result.converged
        assert result.num_iterations == 1

    def test_source_with_no_edges_converges_immediately(self):
        g = from_edge_list([(0, 1, 1.0)], num_nodes=3)
        result = run_push(NodeScheduler(g), SSSPProgram(), 2)
        assert result.converged
        assert result.values[2] == 0.0

    def test_simulator_attached(self, figure2_graph):
        sim = GPUSimulator()
        result = run_push(sim.attach(NodeScheduler(figure2_graph)), SSSPProgram(), 0)
        assert result.metrics is None
        assert sim.metrics.num_iterations == result.num_iterations
        assert sim.metrics.total_time_ms > 0

    def test_cc_all_nodes_initial_frontier(self, powerlaw_symmetric):
        result = run_push(NodeScheduler(powerlaw_symmetric), CCProgram(), None)
        assert result.converged
        labels = result.values.astype(np.int64)
        # labels are component minima: every label maps to itself
        assert np.array_equal(labels[labels], labels)

    def test_bfs_on_unweighted(self, diamond_graph):
        result = run_push(NodeScheduler(diamond_graph), BFSProgram(), 0)
        assert result.values.tolist() == [0.0, 1.0, 1.0, 2.0]

    def test_source_required(self, diamond_graph):
        with pytest.raises(EngineError, match="source"):
            run_push(NodeScheduler(diamond_graph), BFSProgram(), None)
