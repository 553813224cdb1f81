"""Ablation experiments beyond the paper's tables (DESIGN.md §7).

These probe the design choices the paper discusses but does not
tabulate:

* §5: "for virtual graph transformation, we only observed marginal
  improvements by tuning K" → :func:`k_sweep_virtual`;
* §5: "for physical graph transformation (UDT), we did observe
  substantial performance variations for different values of K"
  → :func:`k_sweep_physical`;
* §5's two engine optimizations (worklist, plus edge-array coalescing
  from §4.4) → :func:`optimization_grid`;
* Table 1's trade-off realised end-to-end: how the connection topology
  changes convergence and memory when actually running SSSP
  → :func:`topology_race`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms import sssp
from repro.bench.report import ExperimentReport
from repro.bench.tables import default_source
from repro.core.splits import circular_transform, clique_transform, star_transform
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.graph.datasets import load_dataset


def _simulated_sssp(scheduler, source, config, *, worklist=True):
    """``(result, metrics)`` of one SSSP run costed on the warp model."""
    sim = GPUSimulator(config)
    result = sssp(sim.attach(scheduler), source,
                  options=EngineOptions(worklist=worklist))
    return result, sim.metrics


def k_sweep_virtual(
    *,
    dataset: str = "livejournal",
    degree_bounds: Sequence[int] = (4, 8, 10, 16, 32),
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """SSSP time vs K for the virtual transformation (Tigr-V+).

    Expected: a shallow curve — the paper picked a single K = 10 for
    all datasets because tuning barely matters.
    """
    report = ExperimentReport("Ablation V-K", f"virtual K sweep (SSSP, {dataset})")
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)
    times = []
    for k in degree_bounds:
        virtual = virtual_transform(graph, k, coalesced=True)
        result, metrics = _simulated_sssp(VirtualScheduler(virtual), source, config)
        times.append(metrics.total_time_ms)
        report.add_row(K=k, time_ms=metrics.total_time_ms,
                       warp_efficiency=metrics.warp_efficiency,
                       iterations=result.num_iterations)
    report.extras["spread"] = max(times) / min(times)
    return report


def k_sweep_physical(
    *,
    dataset: str = "livejournal",
    degree_bounds: Sequence[int] = (4, 8, 16, 64, 256),
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """SSSP time vs K for physical UDT.

    Expected: a deep curve — too-small K inflates iteration counts,
    too-large K leaves the imbalance in place; the paper tunes K per
    dataset via a d_max heuristic for exactly this reason.
    """
    report = ExperimentReport("Ablation UDT-K", f"physical K sweep (SSSP, {dataset})")
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)
    times = []
    for k in degree_bounds:
        transformed = udt_transform(graph, k)
        result, metrics = _simulated_sssp(
            NodeScheduler(transformed.graph), source, config
        )
        times.append(metrics.total_time_ms)
        report.add_row(K=k, time_ms=metrics.total_time_ms,
                       iterations=result.num_iterations,
                       warp_efficiency=metrics.warp_efficiency,
                       new_nodes=transformed.stats.new_nodes)
    report.extras["spread"] = max(times) / min(times)
    return report


def optimization_grid(
    *,
    dataset: str = "livejournal",
    degree_bound: int = 10,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Worklist x edge-array-coalescing grid for the virtual engine.

    Both §5 optimizations should help independently and compose.
    """
    report = ExperimentReport(
        "Ablation grid", f"worklist x coalescing (SSSP, {dataset}, K={degree_bound})"
    )
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)
    for worklist in (False, True):
        for coalesced in (False, True):
            virtual = virtual_transform(graph, degree_bound, coalesced=coalesced)
            _, metrics = _simulated_sssp(
                VirtualScheduler(virtual), source, config, worklist=worklist
            )
            report.add_row(
                worklist=worklist, coalesced=coalesced,
                time_ms=metrics.total_time_ms,
                transactions=metrics.total_transactions,
            )
    return report


def topology_race(
    *,
    dataset: str = "pokec",
    degree_bound: int = 8,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Table 1's trade-off, end to end: SSSP on each physical topology.

    Expected: `T_circ`'s long in-family hop chains inflate iteration
    counts far beyond UDT's; `T_cliq` pays a large edge-memory premium;
    `T_star` leaves the hub-degree imbalance; UDT is the balanced
    choice — which is why the paper adopts it.
    """
    report = ExperimentReport(
        "Ablation topologies", f"split-topology race (SSSP, {dataset}, K={degree_bound})"
    )
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)
    transforms = {
        "cliq": clique_transform,
        "circ": circular_transform,
        "star": star_transform,
        "udt": udt_transform,
    }
    baseline, metrics = _simulated_sssp(NodeScheduler(graph), source, config)
    report.add_row(topology="(none)", iterations=baseline.num_iterations,
                   time_ms=metrics.total_time_ms,
                   extra_edges=0, max_degree=graph.max_out_degree())
    for name, transform in transforms.items():
        result = transform(graph, degree_bound)
        run, metrics = _simulated_sssp(NodeScheduler(result.graph), source, config)
        assert np.allclose(result.read_values(run.values), baseline.values)
        report.add_row(
            topology=name,
            iterations=run.num_iterations,
            time_ms=metrics.total_time_ms,
            extra_edges=result.stats.new_edges,
            max_degree=result.graph.max_out_degree(),
        )
    return report


def push_vs_pull(
    *,
    dataset: str = "livejournal",
    degree_bound: int = 10,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Push vs pull vs adaptive direction for SSSP (§2.1 / [4]).

    Four engines on the same graph: push with worklist, pull with
    worklist (over the reverse graph), adaptive switching, and push
    under Tigr virtual scheduling.  All must produce identical
    distances; the interesting columns are edges processed and
    simulated time.
    """
    from repro.algorithms.programs import SSSPProgram
    from repro.engine.adaptive import run_adaptive
    from repro.engine.pull import run_pull

    report = ExperimentReport(
        "Ablation direction", f"push vs pull vs adaptive (SSSP, {dataset})"
    )
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)
    reverse = graph.reverse()

    sims = {name: GPUSimulator(config)
            for name in ("push", "pull", "adaptive", "tigr-v+ push")}
    runs = {
        "push": sssp(sims["push"].attach(graph), source),
        "pull": run_pull(
            sims["pull"].attach(reverse), SSSPProgram(), graph, source
        ),
        "adaptive": run_adaptive(
            graph, SSSPProgram(), source, reverse=reverse,
            push_scheduler=sims["adaptive"].attach(graph),
            pull_scheduler=sims["adaptive"].attach(reverse),
        ),
        "tigr-v+ push": sssp(
            sims["tigr-v+ push"].attach(
                virtual_transform(graph, degree_bound, coalesced=True)
            ),
            source,
        ),
    }
    baseline_values = runs["push"].values
    for name, result in runs.items():
        assert np.allclose(result.values, baseline_values)
        report.add_row(
            engine=name,
            iterations=result.num_iterations,
            edges_processed=result.edges_processed,
            time_ms=sims[name].metrics.total_time_ms,
            warp_efficiency=sims[name].metrics.warp_efficiency,
        )
    return report
