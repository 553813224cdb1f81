"""Lane-parallel multi-source traversal vs the per-source loop.

Not a paper table — this experiment justifies the lane engine the way
Table 8 justifies the transformations: a batch of S sources on one
graph shares every edge walk, so one lane-parallel pass carrying S
lanes must beat S scalar passes.  The experiment times both modes of
:func:`repro.algorithms.multi_source.multi_source_distances` on one
R-MAT stand-in under production defaults (both sides run their
compiled superstep where a JIT backend is available) and checks the
distance matrices are **bitwise identical** — the speedup is only
interesting if the answers are exactly the scalar answers.

Rows sweep (algorithm, source-count); BFS exercises the bit-packed
visited-mask fast path, SSSP the float lanes.  A third timed mode,
``auto``, lets the cost model's reference rates
(:mod:`repro.engine.costmodel`) pick — the experiment checks the pick
is never more than a few percent slower than the best fixed mode.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

import numpy as np

from repro.algorithms.multi_source import (
    multi_source_distances,
    resolve_multisource_mode,
)
from repro.bench.report import ExperimentReport
from repro.engine.push import EngineOptions
from repro.graph.generators import rmat

#: source counts swept per algorithm; 16 is the acceptance point.
DEFAULT_SOURCE_COUNTS = (4, 16, 64)


def _time_modes(
    graph, sources, *, weighted: bool, options: EngineOptions,
    modes: Sequence[str], repeats: int = 5,
) -> Tuple[dict, dict]:
    """Best-of-``repeats`` wall time per mode (the runs are
    deterministic, so the minimum is the least-noisy estimate of the
    actual cost).  The modes are *interleaved* round-robin so cache
    and allocator state drifts hit every mode equally — timing the
    same mode back-to-back systematically flatters whichever runs
    last."""
    rows = {}
    best = {mode: float("inf") for mode in modes}
    for _ in range(repeats):
        for mode in modes:
            start = time.perf_counter()
            rows[mode] = multi_source_distances(
                graph, sources, weighted=weighted, options=options, mode=mode
            )
            best[mode] = min(best[mode], time.perf_counter() - start)
    return rows, best


def multisource_lanes(
    scale: float = 1.0,
    *,
    num_nodes: int = 30_000,
    edge_factor: int = 32,
    source_counts: Sequence[int] = DEFAULT_SOURCE_COUNTS,
    seed: int = 11,
) -> ExperimentReport:
    """Looped vs lane-parallel multi-source distances on an R-MAT graph.

    Per (algorithm, S) row: wall time of S scalar passes (``loop``),
    of the lane engine (``lanes``) and of the cost model's dispatch
    (``auto``), the batch speedup, the per-lane cost, the model's pick
    (``auto_mode``) and the pick's penalty over the best fixed mode
    (``auto_ratio``, from the fixed-mode timings).  Every mode must
    match the looped baseline bitwise.
    """
    n = max(256, int(num_nodes * scale))
    weighted_graph = rmat(
        n, edge_factor * n, seed=seed, weight_range=(1.0, 8.0)
    )
    # hop-count batches run on the weight-stripped graph, exactly as
    # the serving layer prepares bfs queries (and as the bit-packed
    # MS-BFS fast path requires)
    hop_graph = weighted_graph.without_weights()
    rng = np.random.default_rng(seed)
    # a quarter of an R-MAT's nodes have no out-edges; a "traversal"
    # from one costs the loop one run overhead and the lane engine a
    # whole lane, so sources are drawn among nodes that can traverse
    roots = np.flatnonzero(weighted_graph.out_degrees() > 0)
    options = EngineOptions()
    # warm numpy/scheduler/JIT code paths so the first timed row is
    # not charged for one-time costs
    multi_source_distances(hop_graph, [0, 1], weighted=False, options=options)
    report = ExperimentReport(
        "Multi-source lanes",
        f"R-MAT n={weighted_graph.num_nodes} m={weighted_graph.num_edges}, "
        "loop vs lane-parallel multi_source_distances",
    )
    for algorithm, weighted in (("bfs", False), ("sssp", True)):
        graph = weighted_graph if weighted else hop_graph
        for count in source_counts:
            sources = [
                int(s) for s in rng.choice(roots, size=count, replace=False)
            ]
            rows, times = _time_modes(
                graph, sources, weighted=weighted, options=options,
                modes=("loop", "lanes", "auto"),
            )
            loop_s, lanes_s = times["loop"], times["lanes"]
            auto_mode = resolve_multisource_mode(
                algorithm=algorithm, num_sources=count,
                num_edges=graph.num_edges,
            )
            speedup = loop_s / lanes_s if lanes_s > 0 else float("inf")
            # the pick's cost is the fixed-mode measurement of the mode
            # auto chose — re-timing the identical code path would only
            # add noise to a pure strategy question
            best_s = min(loop_s, lanes_s)
            report.add_row(
                algorithm=algorithm,
                sources=count,
                loop_s=loop_s,
                lanes_s=lanes_s,
                auto_s=times["auto"],
                auto_mode=auto_mode,
                auto_ratio=(
                    times[auto_mode] / best_s if best_s > 0 else float("inf")
                ),
                speedup=speedup,
                per_lane_ms=lanes_s / count * 1e3,
                bitwise_equal=all(
                    np.array_equal(rows["loop"], r) for r in rows.values()
                ),
            )
            if count == 16:
                report.extras[f"{algorithm}_speedup_16"] = speedup
    # the acceptance headline: a 16-source hop-count batch (what the
    # serving layer's bfs traffic becomes) against the looped baseline
    report.extras["batch_speedup_16"] = report.extras["bfs_speedup_16"]
    report.extras["all_bitwise_equal"] = all(report.column("bitwise_equal"))
    # the cost model's report card: its pick is allowed measurement
    # noise over the best fixed mode, never a strategy-class miss
    report.extras["auto_worst_ratio"] = max(report.column("auto_ratio"))
    return report
