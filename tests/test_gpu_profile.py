"""Tests for the run-profiling helpers."""

from dataclasses import replace

import numpy as np

from repro.algorithms import sssp
from repro.core.virtual import virtual_transform
from repro.gpu.profile import (
    bottleneck_report,
    compare_runs,
    iteration_rows,
    profile_text,
)
from repro.gpu.simulator import GPUSimulator


def profiled_run(target, source):
    sim = GPUSimulator()
    result = sssp(sim.attach(target), source)
    return replace(result, metrics=sim.metrics)


class TestProfileHelpers:
    def test_iteration_rows_shape(self, powerlaw_graph, hub_source):
        result = profiled_run(powerlaw_graph, hub_source)
        rows = iteration_rows(result.metrics)
        assert len(rows) == result.num_iterations
        assert all(r["time_ms"] > 0 for r in rows)
        assert sum(r["edges"] for r in rows) == result.edges_processed

    def test_profile_text(self, powerlaw_graph, hub_source):
        result = profiled_run(powerlaw_graph, hub_source)
        text = profile_text(result.metrics, title="sssp profile")
        assert "sssp profile" in text
        assert "totals:" in text
        assert "warp efficiency" in text

    def test_compare_runs(self, powerlaw_graph, hub_source):
        base = profiled_run(powerlaw_graph, hub_source)
        tigr = profiled_run(
            virtual_transform(powerlaw_graph, 8, coalesced=True), hub_source
        )
        text = compare_runs({"baseline": base.metrics, "tigr-v+": tigr.metrics})
        assert "baseline" in text and "tigr-v+" in text

    def test_bottleneck_report(self, powerlaw_graph, hub_source):
        result = profiled_run(powerlaw_graph, hub_source)
        report = bottleneck_report(result.metrics)
        np.testing.assert_allclose(
            report["compute_fraction"] + report["memory_fraction"], 1.0
        )
        assert report["simd_steps"] > 0
        assert report["value_transactions"] > 0
