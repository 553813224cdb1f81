"""Tests for the direction-adaptive (push/pull switching) engine."""

import numpy as np
import pytest

from repro.algorithms.programs import BFSProgram, CCProgram, PageRankProgram, SSSPProgram
from repro.algorithms.reference import (
    reference_bfs,
    reference_connected_components,
    reference_sssp,
)
from repro.algorithms import sssp
from repro.core.virtual import virtual_transform
from repro.engine.adaptive import AdaptiveOptions, run_adaptive
from repro.engine.push import EngineOptions
from repro.engine.schedule import VirtualScheduler
from repro.errors import EngineError
from repro.gpu.simulator import GPUSimulator


class TestCorrectness:
    def test_sssp_matches_reference(self, powerlaw_graph, hub_source):
        result = run_adaptive(powerlaw_graph, SSSPProgram(), hub_source)
        assert np.allclose(result.values, reference_sssp(powerlaw_graph, hub_source))

    def test_bfs_matches_reference(self, powerlaw_unweighted, hub_source):
        result = run_adaptive(powerlaw_unweighted, BFSProgram(), hub_source)
        assert np.allclose(
            result.values, reference_bfs(powerlaw_unweighted, hub_source),
            equal_nan=True,
        )

    def test_cc_matches_reference(self, powerlaw_symmetric):
        result = run_adaptive(powerlaw_symmetric, CCProgram(), None)
        assert np.array_equal(
            result.values.astype(np.int64),
            reference_connected_components(powerlaw_symmetric),
        )

    def test_iterations_match_plain_push(self, powerlaw_graph, hub_source):
        """Direction choice never changes the BSP iteration count (of
        the synchronous bodies: a compiled MIN step relaxes in place)."""
        plain = sssp(powerlaw_graph, hub_source,
                     options=EngineOptions(kernel_backend="numpy"))
        adaptive = run_adaptive(powerlaw_graph, SSSPProgram(), hub_source,
                                options=AdaptiveOptions(kernel_backend="numpy"))
        assert adaptive.num_iterations == plain.num_iterations
        assert np.allclose(adaptive.values, plain.values)

    def test_non_monotone_program_rejected(self, powerlaw_unweighted):
        with pytest.raises(EngineError, match="monotone"):
            run_adaptive(powerlaw_unweighted, PageRankProgram(), None)

    def test_weights_required(self, powerlaw_unweighted, hub_source):
        with pytest.raises(EngineError, match="weights"):
            run_adaptive(powerlaw_unweighted, SSSPProgram(), hub_source)


class TestDirectionSwitching:
    def test_both_directions_used_on_powerlaw(self, powerlaw_graph, hub_source):
        """Power-law BFS from a hub: first/last levels sparse (push),
        middle levels dense (pull)."""
        result = run_adaptive(powerlaw_graph, SSSPProgram(), hub_source)
        assert result.pull_iterations >= 1
        assert result.push_iterations >= 1
        assert result.pull_iterations + result.push_iterations == result.num_iterations

    def test_threshold_one_is_pure_push(self, powerlaw_graph, hub_source):
        result = run_adaptive(
            powerlaw_graph, SSSPProgram(), hub_source,
            options=AdaptiveOptions(pull_threshold=1.01),
        )
        assert result.pull_iterations == 0

    def test_threshold_zero_is_pure_pull(self, powerlaw_graph, hub_source):
        result = run_adaptive(
            powerlaw_graph, SSSPProgram(), hub_source,
            options=AdaptiveOptions(pull_threshold=0.0),
        )
        assert result.push_iterations == 0
        assert np.allclose(result.values, reference_sssp(powerlaw_graph, hub_source))

    def test_any_threshold_same_results(self, powerlaw_graph, hub_source):
        ref = reference_sssp(powerlaw_graph, hub_source)
        for threshold in (0.0, 0.05, 0.3, 1.5):
            result = run_adaptive(
                powerlaw_graph, SSSPProgram(), hub_source,
                options=AdaptiveOptions(pull_threshold=threshold),
            )
            assert np.allclose(result.values, ref), threshold


class TestComposition:
    def test_tigr_virtual_pull_scheduler(self, powerlaw_graph, hub_source):
        """Direction adaptivity composes with Tigr: virtual scheduling
        of the pull sweeps over the reverse graph."""
        reverse = powerlaw_graph.reverse()
        scheduler = VirtualScheduler(virtual_transform(reverse, 8))
        result = run_adaptive(
            powerlaw_graph, SSSPProgram(), hub_source,
            reverse=reverse, pull_scheduler=scheduler,
        )
        assert np.allclose(result.values, reference_sssp(powerlaw_graph, hub_source))

    def test_simulator_attached(self, powerlaw_graph, hub_source):
        sim = GPUSimulator()
        reverse = powerlaw_graph.reverse()
        result = run_adaptive(
            powerlaw_graph, SSSPProgram(), hub_source, reverse=reverse,
            push_scheduler=sim.attach(powerlaw_graph),
            pull_scheduler=sim.attach(reverse),
        )
        assert sim.metrics.num_iterations == result.num_iterations

    def test_max_iterations_guard(self, powerlaw_graph, hub_source):
        with pytest.raises(EngineError, match="adaptive"):
            run_adaptive(powerlaw_graph, SSSPProgram(), hub_source,
                         options=AdaptiveOptions(max_iterations=1))
