"""Regeneration of the paper's Tables 1 and 3–8 on the stand-ins.

Every function is deterministic under its ``seed`` / ``scale``
arguments and returns an :class:`~repro.bench.report.ExperimentReport`
whose rows mirror the paper table's layout.  See DESIGN.md §4 for the
experiment index and EXPERIMENTS.md for paper-vs-measured discussion.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines import standard_methods
from repro.baselines.base import ALGORITHMS
from repro.bench.report import ExperimentReport
from repro.core.analysis import predict_properties
from repro.core.splits import circular_transform, clique_transform, star_transform
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.core.weights import DumbWeight
from repro.engine.push import EngineOptions
from repro.engine.schedule import NodeScheduler, VirtualScheduler
from repro.algorithms import sssp
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GPUSimulator
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.generators import star
from repro.graph.stats import degree_stats, estimate_diameter

_TRANSFORMS = {
    "cliq": clique_transform,
    "circ": circular_transform,
    "star": star_transform,
    "udt": udt_transform,
}


def default_source(graph) -> int:
    """Source-node convention for all single-source benches.

    The highest-outdegree node: deterministically defined, guaranteed
    non-trivial reach, and the node whose processing most stresses
    load balance.
    """
    return int(np.argmax(graph.out_degrees()))


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_split_properties(
    degrees: Sequence[int] = (10, 100, 1_000, 10_000, 100_000),
    degree_bounds: Sequence[int] = (4, 10, 32),
) -> ExperimentReport:
    """Table 1: properties of the split transformations.

    For each topology and each ``(d, K)``, measures #new nodes, #new
    edges, family degree, and max in-family hops on a single star
    graph of degree ``d``, and checks them against the closed forms of
    :mod:`repro.core.analysis`.
    """
    report = ExperimentReport(
        "Table 1", "properties of split transformations (measured vs predicted)"
    )
    for d in degrees:
        graph = star(d)
        for k in degree_bounds:
            if d <= k:
                continue
            for topology, transform in _TRANSFORMS.items():
                if topology == "cliq" and -(-d // k) > 2_000:
                    # T_cliq adds p(p-1) edges; materialising multi-
                    # million-edge cliques teaches nothing beyond what
                    # the (verified) closed form already says.
                    continue
                predicted = predict_properties(topology, d, k)
                result = transform(graph, k)
                report.add_row(
                    topology=topology, d=d, K=k,
                    new_nodes=result.stats.new_nodes,
                    new_edges=result.stats.new_edges,
                    new_degree=result.stats.max_degree_after,
                    max_hops=result.stats.max_family_hops,
                    pred_nodes=predicted.new_nodes,
                    pred_edges=predicted.new_edges,
                    pred_degree=predicted.new_degree,
                    pred_hops=predicted.max_hops,
                    match=(
                        result.stats.new_nodes == predicted.new_nodes
                        and result.stats.new_edges == predicted.new_edges
                        and result.stats.max_degree_after == predicted.new_degree
                        and result.stats.max_family_hops == predicted.max_hops
                    ),
                )
    report.extras["all_match"] = all(r["match"] for r in report.rows)
    return report


# ---------------------------------------------------------------------------
# Table 3
# ---------------------------------------------------------------------------
def table3_datasets(
    *, scale: float = 1.0, seed: Optional[int] = None
) -> ExperimentReport:
    """Table 3: statistics of the six stand-in datasets."""
    report = ExperimentReport("Table 3", "datasets in evaluation (synthetic stand-ins)")
    for name in dataset_names():
        spec = DATASETS[name]
        graph = load_dataset(name, scale=scale, seed=seed)
        stats = degree_stats(graph)
        report.add_row(
            dataset=name,
            nodes=stats.num_nodes,
            edges=stats.num_edges,
            d_max=stats.max_degree,
            diameter=estimate_diameter(graph, num_sources=6, seed=0),
            K_udt=spec.k_udt,
            K_v=spec.k_v,
            paper_nodes=spec.paper_nodes,
            paper_edges=spec.paper_edges,
            paper_dmax=spec.paper_dmax,
            paper_diameter=spec.paper_diameter,
        )
    return report


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------
def table4_performance(
    *,
    algorithms: Iterable[str] = ("bfs", "sssp", "pr", "cc", "sswp", "bc"),
    datasets: Optional[Iterable[str]] = None,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
    extended: bool = False,
) -> ExperimentReport:
    """Table 4: simulated-time comparison of all methods.

    One row per (algorithm, dataset): the Table 2 method line-up's
    simulated kernel times (``OOM`` where the footprint model exceeds
    device memory) and the winner.  Methods lacking a primitive show
    ``-`` exactly where the paper's table does.

    ``extended=True`` widens the table beyond the paper's four columns
    to the full method zoo of this repository: baseline, Tigr-UDT,
    Tigr-V, and the hardwired primitives.
    """
    title = "performance comparison (simulated ms; OOM where modelled)"
    report = ExperimentReport(
        "Table 4" + (" (extended)" if extended else ""), title
    )
    config = config or GPUConfig()
    for name in datasets if datasets is not None else dataset_names():
        spec = DATASETS[name]
        graph = load_dataset(name, scale=scale, seed=seed)
        source = default_source(graph)
        methods = standard_methods(k_udt=spec.k_udt, k_v=spec.k_v)
        if extended:
            from repro.baselines.hardwired import hardwired_methods

            table_methods = methods + hardwired_methods()
        else:
            # Table 4 compares MW / CuSha / Gunrock / Tigr-V+ (the Tigr
            # breakdown lives in Figure 13).
            table_methods = [
                m for m in methods
                if m.name in ("mw", "cusha", "gunrock", "tigr-v+")
            ]
        for algorithm in algorithms:
            row = {"algorithm": algorithm, "dataset": name}
            best_name, best_time = None, float("inf")
            for method in table_methods:
                if not method.supports(algorithm):
                    row[method.name] = "-"
                    continue
                result = method.run(
                    graph, algorithm,
                    source if ALGORITHMS[algorithm].needs_source else None,
                    config=config,
                )
                row[method.name] = result.display_time
                if not result.oom and result.time_ms < best_time:
                    best_name, best_time = method.name, result.time_ms
            row["best"] = best_name
            report.add_row(**row)
    wins = sum(1 for r in report.rows if r["best"] == "tigr-v+")
    report.extras["tigr_v_plus_wins"] = wins
    report.extras["total_cells"] = len(report.rows)
    return report


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------
def table5_udt_space(
    *,
    degree_bounds: Sequence[int] = (100, 1_000, 10_000),
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> ExperimentReport:
    """Table 5: CSR size of the UDT-transformed graph vs original (%)."""
    report = ExperimentReport(
        "Table 5", "space cost of physical transformation (UDT), % of original CSR"
    )
    for name in dataset_names():
        graph = load_dataset(name, scale=scale, seed=seed, weighted=False)
        row = {"dataset": name}
        for k in degree_bounds:
            result = udt_transform(graph, k, dumb_weight=DumbWeight.NONE)
            ratio = result.stats.space_ratio(graph, result.graph)
            row[f"K={k}"] = f"{ratio * 100:.2f}%"
        report.add_row(**row)
    return report


# ---------------------------------------------------------------------------
# Table 6
# ---------------------------------------------------------------------------
def table6_virtual_space(
    *,
    degree_bounds: Sequence[int] = (4, 8, 16, 32, 100),
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> ExperimentReport:
    """Table 6: virtually transformed CSR size vs original (%)."""
    report = ExperimentReport(
        "Table 6", "space cost of virtual transformation, % of original CSR"
    )
    for name in dataset_names():
        graph = load_dataset(name, scale=scale, seed=seed, weighted=False)
        row = {"dataset": name}
        for k in degree_bounds:
            ratio = virtual_transform(graph, k).space_ratio()
            row[f"K={k}"] = f"{ratio * 100:.2f}%"
        report.add_row(**row)
    return report


# ---------------------------------------------------------------------------
# Table 7
# ---------------------------------------------------------------------------
def table7_transform_time(
    *, scale: float = 1.0, seed: Optional[int] = None, repeats: int = 3
) -> ExperimentReport:
    """Table 7: host-side transformation wall-clock, physical vs virtual.

    Physical UDT rewrites the whole CSR — a few vectorised O(|E|)
    passes — while virtual transformation only builds the O(|V|)
    virtual node array, so physical costs several times more on every
    dataset.  Both are array code here, so the gap is roughly the
    average degree (3x-9x), narrower than the paper's 19x-57x.

    Each time is per build, the best of ``repeats`` samples of a fixed
    number of builds, the two kinds sampled in turn (:func:`_per_build`):
    a lone sub-millisecond build is within one host hiccup of twice its
    cost.
    """
    report = ExperimentReport("Table 7", "transformation time cost (host ms)")
    for name in dataset_names():
        spec = DATASETS[name]
        graph = load_dataset(name, scale=scale, seed=seed)
        physical, virtual = _per_build(
            lambda: udt_transform(graph, spec.k_udt),
            lambda: virtual_transform(graph, spec.k_v, coalesced=True),
            repeats=repeats,
        )
        report.add_row(
            dataset=name,
            physical_ms=physical * 1e3,
            virtual_ms=virtual * 1e3,
            ratio=physical / virtual if virtual > 0 else float("inf"),
        )
    report.extras["min_ratio"] = min(r["ratio"] for r in report.rows)
    return report


#: how long one Table 7 sample lasts at least: a few ms of builds.
SAMPLE_S = 0.004


def _per_build(*builds, repeats: int) -> List[float]:
    """Seconds per call of each of ``builds``: the calls that fill
    :data:`SAMPLE_S` are counted once per build (doubling), then each
    build is sampled ``repeats`` times, the builds taking turns so that
    a slow spell of the host falls on all of them; the best sample, per
    call."""
    calls = []
    for build in builds:
        count = 1
        while _timed(build, count) < SAMPLE_S:
            count *= 2
        calls.append(count)
    best = [float("inf")] * len(builds)
    for _ in range(repeats):
        for i, build in enumerate(builds):
            best[i] = min(best[i], _timed(build, calls[i]))
    return [seconds / count for seconds, count in zip(best, calls)]


def _timed(fn, calls: int = 1) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Table 8
# ---------------------------------------------------------------------------
def table8_sssp_profile(
    *,
    dataset: str = "livejournal",
    degree_bound: int = 8,
    scale: float = 1.0,
    seed: Optional[int] = None,
    config: Optional[GPUConfig] = None,
) -> ExperimentReport:
    """Table 8: SSSP detail profile (LiveJournal, K = 8).

    Original vs physically (UDT) vs virtually transformed graph, with
    and without the worklist: iteration count, simulated time per
    iteration, instruction count, warp efficiency.
    """
    report = ExperimentReport(
        "Table 8", f"performance details (SSSP, {dataset}, K={degree_bound})"
    )
    config = config or GPUConfig()
    graph = load_dataset(dataset, scale=scale, seed=seed)
    source = default_source(graph)

    physical = udt_transform(graph, degree_bound, dumb_weight=DumbWeight.ZERO)
    virtual = virtual_transform(graph, degree_bound, coalesced=True)

    variants = {
        "original": (NodeScheduler(graph), None),
        "physical": (NodeScheduler(physical.graph), physical),
        "virtual": (VirtualScheduler(virtual), None),
    }
    for worklist in (False, True):
        for label, (scheduler, transform) in variants.items():
            sim = GPUSimulator(config)
            sssp(sim.attach(scheduler), source,
                 options=EngineOptions(worklist=worklist))
            metrics = sim.metrics
            report.add_row(
                variant=label,
                worklist="with" if worklist else "without",
                iterations=metrics.num_iterations,
                time_per_iter_ms=metrics.mean_time_per_iteration_ms,
                instructions=metrics.total_instructions,
                warp_efficiency=f"{metrics.warp_efficiency * 100:.2f}%",
                time_ms=metrics.total_time_ms,
            )
    return report
