"""Robustness of the reproduction's headline claims to cost constants.

The GPU model has tunable coefficients (issue cost, transaction cost,
launch overhead, device width).  If the paper-shape results only held
at one magic setting, the reproduction would be a curve fit, not a
mechanism.  These tests perturb each coefficient by 2× in both
directions and assert the *qualitative* Figure 13 / Table 8 claims
survive every setting:

* Tigr-V+ beats the baseline engine;
* Tigr-V+ raises warp efficiency several-fold;
* virtual transformation costs zero extra iterations while physical
  UDT inflates them — which is pure semantics, independent of any
  cost constant, and asserted here for completeness.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import sssp
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.gpu.config import GPUConfig, KernelProfile
from repro.gpu.simulator import GPUSimulator
from repro.graph.datasets import load_dataset


@pytest.fixture(scope="module")
def graph():
    return load_dataset("livejournal", scale=0.5)


@pytest.fixture(scope="module")
def source(graph):
    return int(np.argmax(graph.out_degrees()))


def run_pair(graph, source, config, profile):
    base_sim = GPUSimulator(config, profile)
    tigr_sim = GPUSimulator(config, profile)
    base = sssp(base_sim.attach(NodeScheduler(graph)), source)
    virtual = virtual_transform(graph, 10, coalesced=True)
    tigr = sssp(tigr_sim.attach(VirtualScheduler(virtual)), source)
    assert np.allclose(base.values, tigr.values)
    return (replace(base, metrics=base_sim.metrics),
            replace(tigr, metrics=tigr_sim.metrics))


PERTURBATIONS = [
    ("cycles_per_step", 0.5), ("cycles_per_step", 2.0),
    ("cycles_per_thread", 0.5), ("cycles_per_thread", 2.0),
    ("cycles_per_transaction", 0.5), ("cycles_per_transaction", 2.0),
    ("value_access_factor", 0.5), ("value_access_factor", 2.0),
]


@pytest.mark.parametrize("field,factor", PERTURBATIONS)
def test_tigr_wins_under_profile_perturbations(graph, source, field, factor):
    default = KernelProfile()
    profile = default.scaled(**{field: getattr(default, field) * factor})
    base, tigr = run_pair(graph, source, GPUConfig(), profile)
    assert tigr.metrics.total_time_ms < base.metrics.total_time_ms, (field, factor)
    assert tigr.metrics.warp_efficiency > 2 * base.metrics.warp_efficiency


@pytest.mark.parametrize("cores", [224, 448, 896, 1792, 3584])
def test_tigr_wins_across_device_widths(graph, source, cores):
    base, tigr = run_pair(graph, source, GPUConfig(cores=cores), KernelProfile())
    assert tigr.metrics.total_time_ms < base.metrics.total_time_ms


@pytest.mark.parametrize("launch_cycles", [0, 600, 6000])
def test_tigr_wins_across_launch_overheads(graph, source, launch_cycles):
    config = GPUConfig(kernel_launch_cycles=launch_cycles)
    base, tigr = run_pair(graph, source, config, KernelProfile())
    assert tigr.metrics.total_time_ms <= base.metrics.total_time_ms


def test_iteration_claims_are_cost_free(graph, source):
    """The Table 8 iteration shape needs no cost model at all."""
    options = EngineOptions(worklist=True)
    original = sssp(NodeScheduler(graph), source, options=options)
    virtual = sssp(
        VirtualScheduler(virtual_transform(graph, 8)), source, options=options
    )
    physical_graph = udt_transform(graph, 8).graph
    physical = sssp(NodeScheduler(physical_graph), source, options=options)
    assert virtual.num_iterations == original.num_iterations
    assert physical.num_iterations > original.num_iterations


def test_coalescing_gain_positive_across_transaction_costs(graph, source):
    """Tigr-V+ <= Tigr-V at any memory-cost setting; the gap widens as
    transactions get more expensive (it is a memory optimization)."""
    gaps = []
    for cost in (1.0, 3.0, 9.0):
        profile = KernelProfile(cycles_per_transaction=cost)
        times = {}
        for coalesced in (False, True):
            sim = GPUSimulator(GPUConfig(), profile)
            virtual = virtual_transform(graph, 10, coalesced=coalesced)
            sssp(sim.attach(VirtualScheduler(virtual)), source)
            times[coalesced] = sim.metrics.total_time_ms
        assert times[True] <= times[False]
        gaps.append(times[False] / times[True])
    assert gaps[-1] > gaps[0]
