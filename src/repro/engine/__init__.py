"""Vertex-centric BSP engines with pluggable scheduling.

The engine layer realises §2.1's programming model:

* a :class:`~repro.engine.program.PushProgram` defines the per-edge
  relax function and the monotone reduction (MIN/MAX/ADD) — the
  ``vertex_func`` of Figure 2;
* a :class:`~repro.engine.schedule.Scheduler` decides how active
  physical nodes become GPU threads — one thread per node (baseline,
  physical transforms), one per virtual node (Tigr-V / Tigr-V+,
  Algorithms 2–3), ``w`` sub-warp lanes per node (Maximum Warp), or
  one per edge (Gunrock/CuSha-style edge parallelism);
* :func:`~repro.engine.push.run_push` runs the BSP loop with optional
  worklist and synchronization relaxation.

The warp model is not part of the engine: it observes a run through
the scheduler it attaches to
(:meth:`repro.gpu.simulator.GPUSimulator.attach`).  The pull and
direction-adaptive engines of the paper's ablations live in
:mod:`repro.engine.pull` and :mod:`repro.engine.adaptive`; no request
reaches them, so their pull sweeps run numpy bodies only.
"""

from repro.engine.frontier import DENSE_THRESHOLD, Frontier
from repro.engine.program import PushProgram, ReduceOp
from repro.engine.push import EngineOptions, EngineResult, run_push, run_push_lanes
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
    "DENSE_THRESHOLD",
    "PushProgram",
    "ReduceOp",
    "EngineOptions",
    "EngineResult",
    "run_push",
    "run_push_lanes",
    "Scheduler",
    "ThreadBatch",
    "NodeScheduler",
    "VirtualScheduler",
    "MaxWarpScheduler",
    "EdgeParallelScheduler",
    "WarpSegmentationScheduler",
]
