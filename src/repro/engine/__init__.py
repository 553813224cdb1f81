"""Vertex-centric BSP engines (push and pull) with pluggable scheduling.

The engine layer realises §2.1's programming model on top of the
simulated GPU:

* a :class:`~repro.engine.program.PushProgram` defines the per-edge
  relax function and the monotone reduction (MIN/MAX/ADD) — the
  ``vertex_func`` of Figure 2;
* a :class:`~repro.engine.schedule.Scheduler` decides how active
  physical nodes become GPU threads — one thread per node (baseline,
  physical transforms), one per virtual node (Tigr-V / Tigr-V+,
  Algorithms 2–3), ``w`` sub-warp lanes per node (Maximum Warp), or
  one per edge (Gunrock/CuSha-style edge parallelism);
* :func:`~repro.engine.push.run_push` and
  :func:`~repro.engine.pull.run_pull` run the BSP loop with optional
  worklist, synchronization relaxation, and GPU cost simulation.
"""

from repro.engine.adaptive import AdaptiveOptions, AdaptiveResult, run_adaptive
from repro.engine.frontier import DENSE_THRESHOLD, Frontier
from repro.engine.program import PushProgram, ReduceOp
from repro.engine.push import EngineOptions, EngineResult, run_push, run_push_lanes
from repro.engine.pull import run_pull
from repro.engine.schedule import (
    EdgeParallelScheduler,
    MaxWarpScheduler,
    NodeScheduler,
    Scheduler,
    ThreadBatch,
    VirtualScheduler,
    WarpSegmentationScheduler,
)

__all__ = [
    "Frontier",
    "AdaptiveOptions",
    "AdaptiveResult",
    "run_adaptive",
    "DENSE_THRESHOLD",
    "PushProgram",
    "ReduceOp",
    "EngineOptions",
    "EngineResult",
    "run_push",
    "run_push_lanes",
    "run_pull",
    "Scheduler",
    "ThreadBatch",
    "NodeScheduler",
    "VirtualScheduler",
    "MaxWarpScheduler",
    "EdgeParallelScheduler",
    "WarpSegmentationScheduler",
]
