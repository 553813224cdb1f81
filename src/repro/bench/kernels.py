"""Scalar numpy vs JIT kernel backends across the core analytics.

Not a paper table — this experiment certifies the compiled kernels
(:mod:`repro.engine.kernels`) the way the multisource bench
certifies the lane engine: every JIT backend must produce **bitwise
identical** results to the numpy baseline while actually being faster,
else the whole subsystem is risk without reward.

Rows sweep (graph, algorithm); one column pair per available JIT
backend gives the warm wall time and the speedup over numpy.  Warm
timings exclude the one-time backend setup (compile or shared-library
load), which is reported separately in the extras — a JIT that only
wins by amortising its compile over many runs must say so.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.bc import bc
from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.bench.report import ExperimentReport
from repro.engine import kernels
from repro.engine.push import EngineOptions
from repro.graph.generators import configuration_power_law, rmat

#: the analytics swept: one per compiled superstep the backends
#: provide — additive/min and propagation/min push steps, the rank
#: step and the two Brandes level steps.
ALGORITHMS = ("bfs", "sssp", "cc", "pr", "bc")


def _run(algorithm: str, graph, options: EngineOptions) -> np.ndarray:
    if algorithm == "bfs":
        return bfs(graph, 0, options=options).values
    if algorithm == "sssp":
        return sssp(graph, 0, options=options).values
    if algorithm == "cc":
        return connected_components(graph, options=options).values
    if algorithm == "pr":
        return pagerank(graph, max_iterations=20, options=options).values
    if algorithm == "bc":
        return bc(graph, 0, options=options).centrality
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _time_backend(
    algorithm: str, graph, backend_name: str, repeats: int
) -> Tuple[np.ndarray, float, int]:
    """Best-of-``repeats`` wall time plus the backend's engagement
    delta (0 means every launch fell back to the numpy path and the
    timing says nothing about the backend)."""
    options = EngineOptions(kernel_backend=backend_name)
    backend = kernels.get_backend(backend_name)
    engaged_before = backend.engaged
    best = float("inf")
    values: Optional[np.ndarray] = None
    for _ in range(repeats):
        start = time.perf_counter()
        values = _run(algorithm, graph, options)
        best = min(best, time.perf_counter() - start)
    return values, best, backend.engaged - engaged_before


#: the C kernels a cold process compiles, by what it has served so far:
#: single-source bfs / sssp / sswp / cc, then bc and pr, then
#: multi-source batches.
COMPILE_STAGES = (
    ("single_source", ("push_step",)),
    ("all_six", ("bc_run", "rank_run")),
    ("everything", ("push_lanes_step", "hop_step")),
)


def _cold_compile_seconds() -> Dict[str, float]:
    """Cumulative wall seconds of from-scratch cjit compiles, per
    :data:`COMPILE_STAGES` entry (kernels compile on first call).

    The process's cjit backend caches its shared libraries on disk *and*
    in the process, so a fresh instance pointed at an empty cache dir
    is the only honest way to measure the compile-included cost.
    """
    import tempfile

    from repro.engine.kernels import CJitBackend

    with tempfile.TemporaryDirectory(prefix="repro-kernels-cold-") as tmp:
        saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            backend = CJitBackend()
            stages = {}
            for stage, functions in COMPILE_STAGES:
                if any(backend.function(fn) is None for fn in functions):
                    return {}
                stages[stage] = backend.compile_seconds
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    return stages


def kernel_backends(
    scale: float = 1.0,
    *,
    num_nodes: int = 30_000,
    edge_factor: int = 16,
    seed: int = 7,
    repeats: int = 3,
) -> ExperimentReport:
    """Numpy baseline vs every available JIT backend, per analytic.

    Per (graph, algorithm) row: the numpy wall time, then one
    ``<backend>_s`` / ``<backend>_x`` pair per JIT backend (warm
    timings, bitwise-checked).  Extras carry what produced the rows
    (``scale``, ``host_machine``, ``host_cpus``), the one-time costs
    (``<backend>_first_run_s``, ``cjit_compile_<stage>_s``) and the
    headline ``best_jit_speedup``.
    """
    n = max(256, int(num_nodes * scale))
    graphs = {
        "rmat": rmat(n, edge_factor * n, seed=seed, weight_range=(1.0, 8.0)),
        "power-law": configuration_power_law(
            n, exponent=2.1, target_edges=edge_factor * n, seed=seed,
            weight_range=(1.0, 8.0),
        ),
    }
    jits = [name for name in kernels.available_backends() if name != "numpy"]
    report = ExperimentReport(
        "Kernel backends",
        "scalar numpy vs JIT kernel backends "
        f"(available: {', '.join(['numpy'] + jits)}), warm timings, "
        "bitwise-checked",
    )
    report.extras.update(scale=scale, host_machine=platform.machine(),
                         host_cpus=os.cpu_count())

    # One-time setup per JIT backend (compile or .so load), measured on
    # a tiny graph so the engine work itself is noise.
    tiny = rmat(256, 2048, seed=seed, weight_range=(1.0, 8.0))
    for name in jits:
        start = time.perf_counter()
        _run("sssp", tiny, EngineOptions(kernel_backend=name))
        report.extras[f"{name}_first_run_s"] = time.perf_counter() - start
    if "cjit" in jits:
        for stage, seconds in _cold_compile_seconds().items():
            report.extras[f"cjit_compile_{stage}_s"] = seconds

    all_equal = True
    all_engaged = True
    best_speedup: Dict[str, float] = {name: 0.0 for name in jits}
    for graph_name, weighted_graph in graphs.items():
        hop_graph = weighted_graph.without_weights()
        for algorithm in ALGORITHMS:
            graph = weighted_graph if algorithm == "sssp" else hop_graph
            base_values, base_s, _ = _time_backend(
                algorithm, graph, "numpy", repeats
            )
            row = {
                "graph": graph_name,
                "algorithm": algorithm,
                "numpy_s": base_s,
            }
            for name in jits:
                values, jit_s, engaged = _time_backend(
                    algorithm, graph, name, repeats
                )
                equal = bool(np.array_equal(base_values, values))
                all_equal = all_equal and equal
                all_engaged = all_engaged and engaged > 0
                speedup = base_s / jit_s if jit_s > 0 else float("inf")
                best_speedup[name] = max(best_speedup[name], speedup)
                row[f"{name}_s"] = jit_s
                row[f"{name}_x"] = speedup
                row[f"{name}_equal"] = equal
            report.add_row(**row)

    report.extras["all_bitwise_equal"] = all_equal
    report.extras["all_jit_engaged"] = all_engaged
    for name in jits:
        report.extras[f"{name}_best_speedup"] = best_speedup[name]
    report.extras["best_jit_speedup"] = max(
        best_speedup.values(), default=0.0
    )
    return report
