"""Reference rates: every strategy choice is a fixed prediction.

The engines expose execution strategies whose crossover points depend
on the graph: lane-parallel multi-source passes vs a scalar loop
(``results/multisource-lanes.json``: lanes lose at one or two sources
and win above), the numpy path vs the compiled ``cjit`` backend
(:mod:`repro.engine.kernels`), and the sharded vs single route
(:mod:`repro.service.routing`).  Like Tigr's per-graph degree bound
K, the rates those choices are priced at are constants, measured once
on the reference machine; nothing here reads a file or profiles the
host at run time.  Three rules consume them:

* :func:`choose_multisource_mode` — lanes vs loop per (family, S, m);
* :func:`choose_kernel_backend` — what ``auto`` resolves to;
* :func:`sharded_break_even` — the edge count above which
  ``route="auto"`` scatter-gathers.

Each is a pure *strategy* choice: both sides of every decision
produce bitwise-identical values, so a rate that is wrong for this
host can cost time, never correctness (golden-trace digests are
invariant under them).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

#: lanes must predict at least this fraction cheaper than the loop
#: before ``choose_multisource_mode`` leaves the scalar path — the
#: crossover region is where the fits are least trustworthy.
LANE_PICK_MARGIN = 0.10


def cache_dir() -> str:
    """Per-machine cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    Holds the JIT backend's compiled kernels; safe to delete at any
    time (everything regenerates).
    """
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclass(frozen=True)
class LaneFit:
    """Linear cost fit of one algorithm family's lane engine, in seconds
    per probe edge (only ratios enter predictions): ``loop_per_edge_s``
    per source for one scalar pass, ``lanes_fixed_per_edge_s + S *
    lanes_marginal_per_edge_s`` for one pass carrying ``S`` lanes
    (fitted from probes at S=4 and S=16)."""

    loop_per_edge_s: float
    lanes_fixed_per_edge_s: float
    lanes_marginal_per_edge_s: float


# The reference rates, measured on the maintainers' CI machine (x86-64,
# numpy 2.x, system gcc, 2026-09-29) on a 20 000-node / 292 277-edge
# R-MAT probe, each the median of three runs; the lane fits were taken
# under default backend resolution, so they include the JIT speed-up.

#: fixed Python cost of one engine run (scheduling, frontier setup,
#: result assembly) — dominates on small graphs.
RUN_OVERHEAD_S = 2.86e-04
#: numpy scatter (``minimum.at``) throughput, million edges / second:
#: what the shard router prices a superstep's saved work at.
SCATTER_MEDGES_S = 182.0
#: below this many edges, per-launch dispatch overhead swamps the
#: compiled kernel's win and ``auto`` stays on numpy.  Above it ``cjit``
#: wins outright: 190 vs 66.2 million edges/s on a warm sssp push.
JIT_MIN_EDGES = 4096
#: lane-vs-loop fits per algorithm family: ``bfs`` covers the bit-packed
#: unweighted hop-count path, ``sssp`` the generic float lanes every
#: weighted (or non-hop) program uses; any other family prices as sssp.
#: One more sssp lane costs about half a scalar pass and one more
#: bit-packed bfs lane a sixteenth, so on edge-dominated graphs lanes
#: win from S=2 (sssp) or S=3 (bfs, once its union walk pays back).
LANE_FITS = {
    "bfs": LaneFit(
        loop_per_edge_s=3.90e-09,
        lanes_fixed_per_edge_s=6.61e-09,
        lanes_marginal_per_edge_s=2.47e-10,
    ),
    "sssp": LaneFit(
        loop_per_edge_s=8.69e-09,
        lanes_fixed_per_edge_s=1e-12,
        lanes_marginal_per_edge_s=4.72e-09,
    ),
}


def multisource_cost(
    mode: str,
    *,
    algorithm: str,
    num_sources: int,
    num_edges: int,
    max_lanes: int = 64,
) -> float:
    """Predicted seconds to answer ``num_sources`` sources.

    ``mode`` is ``"loop"`` or ``"lanes"``; ``algorithm`` a key of
    :data:`LANE_FITS` (callers map program names onto the nearest
    family).  The lanes estimate accounts for lane blocking: every
    ``max_lanes``-wide block is its own pass with its own fixed costs.
    """
    fit = LANE_FITS.get(algorithm, LANE_FITS["sssp"])
    m = max(num_edges, 1)
    s = max(num_sources, 0)
    if mode == "loop":
        return s * (RUN_OVERHEAD_S + m * fit.loop_per_edge_s)
    if mode == "lanes":
        blocks = max(1, math.ceil(s / max(max_lanes, 1)))
        return (
            blocks * (RUN_OVERHEAD_S + m * fit.lanes_fixed_per_edge_s)
            + s * m * fit.lanes_marginal_per_edge_s
        )
    raise ValueError(f"unknown multisource mode {mode!r}")


def choose_multisource_mode(
    *,
    algorithm: str,
    num_sources: int,
    num_edges: int,
    max_lanes: int = 64,
) -> str:
    """``"loop"`` or ``"lanes"`` — whichever predicts cheaper.

    A single source is always a plain scalar run.  On small graphs
    the per-run overhead makes lanes win at any width (S runs collapse
    into one); on large graphs the per-edge fit decides — a lane
    engine whose marginal lane costs more than a scalar pass is never
    picked, without a special case.  The pick is loop-biased: lanes
    must predict at least :data:`LANE_PICK_MARGIN` cheaper, because
    near the crossover the fits' transfer error from the probe graph
    exceeds the predicted gain.
    """
    if num_sources <= 1:
        return "loop"
    shape = dict(algorithm=algorithm, num_sources=num_sources,
                 num_edges=num_edges, max_lanes=max_lanes)
    loop = multisource_cost("loop", **shape)
    lanes = multisource_cost("lanes", **shape)
    return "lanes" if lanes <= loop * (1.0 - LANE_PICK_MARGIN) else "loop"


def choose_kernel_backend(
    *, edges: int, candidates: Callable[[], Sequence[str]]
) -> str:
    """What ``auto`` runs on a graph of ``edges`` edges: ``cjit`` from
    :data:`JIT_MIN_EDGES` up when it is among the available
    ``candidates()``, else ``numpy``.  ``candidates`` is called only
    from the threshold up: until a unit loads, asking costs a compiler
    probe (PATH scans), which a small graph never needs."""
    if edges >= JIT_MIN_EDGES and "cjit" in candidates():
        return "cjit"
    return "numpy"


def sharded_break_even(shards: int) -> int:
    """Edge count above which a batch is worth scatter-gathering.

    A sharded superstep pays ~``shards`` extra dispatch overheads to
    cut scatter work by ``1 - 1/shards``, so sharding breaks even near
    ``shards^2 / (shards - 1) * RUN_OVERHEAD_S * scatter rate`` edges:
    208 208 / 234 234 / 277 610 at 2 / 3 / 4 shards, 0 below two.
    """
    if shards <= 1:
        return 0
    overhead = shards * shards / (shards - 1) * RUN_OVERHEAD_S
    return int(overhead * (SCATTER_MEDGES_S * 1e6))
