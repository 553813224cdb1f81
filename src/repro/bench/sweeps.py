"""Scaling sweeps: how Tigr's benefit depends on the input's shape.

Two studies that flesh out the paper's Figure 1 narrative ("G (high
irregularity) → G' (low irregularity)") with measurements:

* :func:`skew_sweep` — speedup of Tigr-V+ over the baseline as the
  degree-distribution skew grows (power-law exponent falls, max
  degree rises).  Expected: speedup grows with skew and is ~1 on
  regular graphs — Tigr removes irregularity, so its benefit is a
  function of how much there is to remove.
* :func:`reordering_comparison` — degree sorting / BFS ordering
  (the classical mitigations) vs the virtual transformation.
  Expected: orderings recover part of the warp efficiency, but hubs
  still serialise their warps, so Tigr-V+ stays ahead — and the two
  compose (Tigr on a reordered graph is no worse).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms import sssp
from repro.bench.report import ExperimentReport
from repro.core.virtual import virtual_transform
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.graph.datasets import load_dataset
from repro.graph.generators import configuration_power_law, regular_ring
from repro.graph.reorder import bfs_ordered, degree_sorted
from repro.graph.stats import degree_stats


def _run(scheduler, source, config):
    """``(values, metrics)`` of one SSSP run costed on the warp model."""
    sim = GPUSimulator(config)
    result = sssp(sim.attach(scheduler), source,
                  options=EngineOptions(worklist=True))
    return result.values, sim.metrics


def skew_sweep(
    *,
    num_nodes: int = 8_000,
    target_edges: int = 70_000,
    max_degrees: Sequence[int] = (16, 64, 256, 1_024, 4_000),
    degree_bound: int = 10,
    seed: Optional[int] = 1,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Tigr-V+ speedup as a function of maximum degree (fixed size).

    All graphs share node/edge counts; only the tail length changes.
    The last row is a degree-regular ring — the zero-irregularity
    control.
    """
    report = ExperimentReport(
        "Sweep skew", "Tigr-V+ speedup vs degree-distribution skew (SSSP)"
    )
    config = config or GPUConfig()
    for max_degree in max_degrees:
        graph = configuration_power_law(
            num_nodes, exponent=2.0, min_degree=2, max_degree=max_degree,
            target_edges=target_edges, seed=seed, weight_range=(1, 64),
        )
        report.add_row(**_speedup_row(f"dmax={max_degree}", graph, degree_bound, config))
    ring = regular_ring(num_nodes, max(2, target_edges // num_nodes),
                        weight_range=(1, 64), seed=seed)
    report.add_row(**_speedup_row("regular ring", ring, degree_bound, config))
    return report


def _speedup_row(label: str, graph, degree_bound: int, config: GPUConfig) -> dict:
    source = int(np.argmax(graph.out_degrees()))
    stats = degree_stats(graph)
    base_values, base = _run(NodeScheduler(graph), source, config)
    virtual = virtual_transform(graph, degree_bound, coalesced=True)
    tigr_values, tigr = _run(VirtualScheduler(virtual), source, config)
    assert np.allclose(base_values, tigr_values)
    return dict(
        graph=label,
        d_max=stats.max_degree,
        cv=round(stats.coefficient_of_variation, 2),
        baseline_ms=base.total_time_ms,
        tigr_ms=tigr.total_time_ms,
        speedup=base.total_time_ms / tigr.total_time_ms,
        base_warp_eff=base.warp_efficiency,
        tigr_warp_eff=tigr.warp_efficiency,
    )


def reordering_comparison(
    *,
    dataset: str = "livejournal",
    degree_bound: int = 10,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Node reordering vs virtual transformation (SSSP).

    Four configurations on the same graph: original ids, degree-sorted
    ids, BFS-ordered ids — all baseline-scheduled — and Tigr-V+ on the
    original ids.  A final row runs Tigr-V+ *on* the degree-sorted
    graph (they compose).
    """
    report = ExperimentReport(
        "Sweep reorder", f"reordering vs transformation (SSSP, {dataset})"
    )
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)

    variants = {
        "original ids": graph,
        "degree-sorted": degree_sorted(graph),
        "bfs-ordered": bfs_ordered(graph),
    }
    for label, g in variants.items():
        source = int(np.argmax(g.out_degrees()))
        _, metrics = _run(NodeScheduler(g), source, config)
        report.add_row(
            config=label, time_ms=metrics.total_time_ms,
            warp_efficiency=metrics.warp_efficiency,
        )
    for label, g in (("tigr-v+ (original)", graph),
                     ("tigr-v+ (degree-sorted)", degree_sorted(graph))):
        source = int(np.argmax(g.out_degrees()))
        _, metrics = _run(
            VirtualScheduler(virtual_transform(g, degree_bound, coalesced=True)),
            source, config,
        )
        report.add_row(
            config=label, time_ms=metrics.total_time_ms,
            warp_efficiency=metrics.warp_efficiency,
        )
    return report
