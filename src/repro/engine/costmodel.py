"""Measured cost model: every strategy choice becomes a prediction.

The engines expose several execution strategies whose crossover points
are machine- and graph-dependent: lane-parallel multi-source passes vs
a scalar loop (``results/multisource-lanes.json``: lanes lose at one
or two sources and win above), the scalar numpy path vs a JIT kernel
backend (:mod:`repro.engine.kernels`), and the sharded vs single
route (:mod:`repro.service.routing`).  Instead
of hard-coded heuristics, this module calibrates a small per-machine
profile once and turns each choice into a measured prediction keyed on
(algorithm, n, m, degree profile, source count).

The profile has three ingredients:

* **a microbenchmark** — the scatter (``minimum.at``) throughput the
  shard router prices a superstep's saved work at;
* **engine probes** — full engine runs on an R-MAT probe graph: the
  per-edge cost of a scalar pass, a linear fit of the lane engine's
  cost (``fixed + marginal * S`` per edge, from probes at S=4 and
  S=16), and per-kernel-backend edge throughput;
* **a fixed per-run overhead** — the Python cost of one engine launch
  sequence, which dominates on small graphs and is why lane batching
  always wins there regardless of per-edge rates.

Predictions use *ratios* of these quantities, which transfer across
graph sizes within a degree-profile family (everything scales with
``m``), so one probe graph calibrates the whole size sweep.

The profile is cached on disk under :func:`cache_dir` (shared with the
JIT backend's compiled kernels) and refreshed with ``python -m repro
calibrate``.  Without a calibration run, :data:`BUILTIN_PROFILE` — a
conservative profile measured on the reference CI machine — applies,
so behavior is deterministic out of the box.

Every choice this model makes is a pure *strategy* choice: both sides
of each decision produce bitwise-identical values, so a stale or
wrong profile can cost time, never correctness (golden-trace digests
are invariant under the profile).
"""

from __future__ import annotations

import json
import math
import os
import platform
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

PROFILE_VERSION = 1
PROFILE_FILENAME = "calibration.json"

#: algorithm families the lane fits are keyed on: ``bfs`` covers the
#: bit-packed unweighted hop-count path, ``sssp`` the generic float
#: lanes every weighted (or non-hop) program uses.
LANE_FAMILIES = ("bfs", "sssp")

#: lanes must predict at least this fraction cheaper than the loop
#: before ``choose_multisource_mode`` leaves the scalar path — the
#: crossover region is where the fits are least trustworthy.
LANE_PICK_MARGIN = 0.10


def cache_dir() -> str:
    """Per-machine cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    Holds the calibration profile and the JIT backend's compiled
    kernels; safe to delete at any time (everything regenerates).
    """
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def profile_path() -> str:
    """Where :func:`save_profile` / :func:`get_profile` look on disk."""
    return os.path.join(cache_dir(), PROFILE_FILENAME)


@dataclass(frozen=True)
class LaneFit:
    """Linear cost fit of one algorithm family's lane engine.

    All three rates are seconds *per edge of the probe graph's edge
    array*; only their ratios enter predictions, so the units cancel.

    ``loop_per_edge_s``: one scalar pass, per edge, per source.
    ``lanes_fixed_per_edge_s`` + ``S * lanes_marginal_per_edge_s``:
    one lane pass carrying ``S`` lanes, per edge — fitted from probes
    at S=4 and S=16.
    """

    loop_per_edge_s: float
    lanes_fixed_per_edge_s: float
    lanes_marginal_per_edge_s: float

    @property
    def crossover_sources(self) -> float:
        """The source count above which lanes beat the loop on a graph
        big enough that per-edge costs dominate the fixed overhead.

        ``inf`` when the loop always wins (the lane engine's marginal
        per-lane cost exceeds a whole scalar pass)."""
        gain = self.loop_per_edge_s - self.lanes_marginal_per_edge_s
        if gain <= 0:
            return float("inf")
        return self.lanes_fixed_per_edge_s / gain


@dataclass(frozen=True)
class CalibrationProfile:
    """One machine's measured engine rates."""

    version: int = PROFILE_VERSION
    #: ``"builtin"`` or ``"measured"``.
    source: str = "builtin"
    machine: str = ""
    created: str = ""
    #: probe graph the engine rates were measured on.
    probe_nodes: int = 0
    probe_edges: int = 0
    #: fixed Python cost of one engine run (scheduling, frontier
    #: setup, result assembly) — dominates on small graphs.
    run_overhead_s: float = 3e-4
    #: numpy scatter throughput, million edges (elements) / second.
    scatter_medges_s: float = 0.0
    #: measured full-run edge throughput per kernel backend (edges/s,
    #: warm — compile cost excluded).
    backend_edges_per_s: Dict[str, float] = field(default_factory=dict)
    #: below this many edges, per-launch dispatch overhead swamps any
    #: JIT win and ``auto`` stays on the numpy path.
    jit_min_edges: int = 4096
    #: lane-vs-loop fits per algorithm family.
    lanes: Dict[str, LaneFit] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def multisource_cost(
        self,
        mode: str,
        *,
        algorithm: str,
        num_sources: int,
        num_edges: int,
        max_lanes: int = 64,
    ) -> float:
        """Predicted seconds to answer ``num_sources`` sources.

        ``mode`` is ``"loop"`` or ``"lanes"``; ``algorithm`` one of
        :data:`LANE_FAMILIES` (callers map program names onto the
        nearest family).  The lanes estimate accounts for lane
        blocking: every ``max_lanes``-wide block is its own pass with
        its own fixed costs.
        """
        fit = self._fit(algorithm)
        m = max(num_edges, 1)
        s = max(num_sources, 0)
        if mode == "loop":
            return s * (self.run_overhead_s + m * fit.loop_per_edge_s)
        if mode == "lanes":
            blocks = max(1, math.ceil(s / max(max_lanes, 1)))
            return (
                blocks * (self.run_overhead_s + m * fit.lanes_fixed_per_edge_s)
                + s * m * fit.lanes_marginal_per_edge_s
            )
        raise ValueError(f"unknown multisource mode {mode!r}")

    def choose_multisource_mode(
        self,
        *,
        algorithm: str,
        num_sources: int,
        num_edges: int,
        max_lanes: int = 64,
    ) -> str:
        """``"loop"`` or ``"lanes"`` — whichever predicts cheaper.

        A single source is always a plain scalar run; above that the
        measured costs decide.  On small graphs the per-run overhead
        term makes lanes win at any width (S runs collapse into one);
        on large graphs the per-edge fit decides — a lane engine whose
        marginal lane costs more than a scalar pass is never picked,
        without a special case.

        The pick is deliberately loop-biased: lanes must predict at
        least :data:`LANE_PICK_MARGIN` cheaper.  Near the crossover the
        fits' transfer error between the probe graph and the query's
        graph exceeds the predicted gain, and the loop is the safer
        miss — its cost model is a straight line through one measured
        point, while the lane estimate also carries the fixed/marginal
        split.
        """
        if num_sources <= 1:
            return "loop"
        loop = self.multisource_cost(
            "loop", algorithm=algorithm, num_sources=num_sources,
            num_edges=num_edges, max_lanes=max_lanes,
        )
        lanes = self.multisource_cost(
            "lanes", algorithm=algorithm, num_sources=num_sources,
            num_edges=num_edges, max_lanes=max_lanes,
        )
        return "lanes" if lanes <= loop * (1.0 - LANE_PICK_MARGIN) else "loop"

    def choose_kernel_backend(
        self, *, edges: int, candidates: Sequence[str]
    ) -> str:
        """The backend predicted fastest for a graph of ``edges`` edges.

        Small graphs stay on numpy (per-launch dispatch overhead
        swamps the win); otherwise the measured edge throughputs rank
        the available candidates.  An available backend the profile
        never measured (e.g. registered after calibration) is assumed
        2x numpy until a recalibration measures it.
        """
        names = [c for c in candidates if c != "numpy"]
        if not names or edges < self.jit_min_edges:
            return "numpy"
        numpy_eps = self.backend_edges_per_s.get("numpy", 0.0)
        best, best_eps = "numpy", numpy_eps
        for name in names:
            eps = self.backend_edges_per_s.get(name, 2.0 * numpy_eps)
            if eps > best_eps:
                best, best_eps = name, eps
        return best

    def _fit(self, algorithm: str) -> LaneFit:
        fit = self.lanes.get(algorithm)
        if fit is None:
            # unknown family: fall back to the generic float-lane fit,
            # else bfs, else a neutral fit that preserves the historic
            # lanes-for-S>1 behavior.
            fit = self.lanes.get("sssp") or self.lanes.get("bfs")
        if fit is None:
            fit = LaneFit(1.0, 1.0, 0.0)
        return fit

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "source": self.source,
            "machine": self.machine,
            "created": self.created,
            "probe_nodes": self.probe_nodes,
            "probe_edges": self.probe_edges,
            "run_overhead_s": self.run_overhead_s,
            "scatter_medges_s": self.scatter_medges_s,
            "backend_edges_per_s": dict(self.backend_edges_per_s),
            "jit_min_edges": self.jit_min_edges,
            "lanes": {
                name: {
                    "loop_per_edge_s": fit.loop_per_edge_s,
                    "lanes_fixed_per_edge_s": fit.lanes_fixed_per_edge_s,
                    "lanes_marginal_per_edge_s": fit.lanes_marginal_per_edge_s,
                }
                for name, fit in sorted(self.lanes.items())
            },
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "CalibrationProfile":
        lanes = {
            str(name): LaneFit(
                loop_per_edge_s=float(fit["loop_per_edge_s"]),
                lanes_fixed_per_edge_s=float(fit["lanes_fixed_per_edge_s"]),
                lanes_marginal_per_edge_s=float(
                    fit["lanes_marginal_per_edge_s"]
                ),
            )
            for name, fit in dict(data.get("lanes", {})).items()
        }
        return CalibrationProfile(
            version=int(data["version"]),
            source=str(data.get("source", "measured")),
            machine=str(data.get("machine", "")),
            created=str(data.get("created", "")),
            probe_nodes=int(data.get("probe_nodes", 0)),
            probe_edges=int(data.get("probe_edges", 0)),
            run_overhead_s=float(data.get("run_overhead_s", 3e-4)),
            scatter_medges_s=float(data.get("scatter_medges_s", 0.0)),
            backend_edges_per_s={
                str(k): float(v)
                for k, v in dict(data.get("backend_edges_per_s", {})).items()
            },
            jit_min_edges=int(data.get("jit_min_edges", 4096)),
            lanes=lanes,
        )


#: the reference profile, measured by ``python -m repro calibrate``
#: on the maintainers' CI machine (x86-64, numpy 2.x, system gcc; each
#: field the median of three runs).  Encodes the regimes the bench data
#: shows since the lane engine has a compiled superstep: one more sssp
#: lane costs about half a scalar pass and one more bit-packed bfs lane
#: a sixteenth, so on edge-dominated graphs lanes win from two or three
#: sources up (sssp's predicted gain clears ``LANE_PICK_MARGIN`` from
#: S=2, bfs pays back its fixed union-walk cost by S=3), and the C JIT
#: backend roughly triples scalar push throughput.  The strategy fits
#: were taken under default backend resolution, i.e. they already
#: include the JIT acceleration production runs get.
BUILTIN_PROFILE = CalibrationProfile(
    version=PROFILE_VERSION,
    source="builtin",
    machine="reference",
    created="2026-09-29",
    probe_nodes=20_000,
    probe_edges=292_277,
    run_overhead_s=2.86e-04,
    scatter_medges_s=182.0,
    backend_edges_per_s={
        "numpy": 6.62e07,
        "cjit": 1.90e08,
    },
    jit_min_edges=4096,
    lanes={
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
    },
)


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
def save_profile(
    profile: CalibrationProfile, path: Optional[str] = None
) -> str:
    """Write the profile to disk (atomic rename) and return the path."""
    path = path or profile_path()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(profile.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_profile(path: Optional[str] = None) -> Optional[CalibrationProfile]:
    """The on-disk profile, or ``None`` (missing, corrupt, or stale
    version — each falls back to :data:`BUILTIN_PROFILE` silently
    except corruption, which warns once so a truncated write is not
    mistaken for 'never calibrated')."""
    path = path or profile_path()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        warnings.warn(
            f"ignoring unreadable calibration profile {path}: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    try:
        if int(data.get("version", -1)) != PROFILE_VERSION:
            return None
        return CalibrationProfile.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        warnings.warn(
            f"ignoring malformed calibration profile {path}: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None


_active: Optional[CalibrationProfile] = None


def get_profile() -> CalibrationProfile:
    """The active profile: pinned > on-disk calibration > builtin.

    Cached per process; :func:`set_profile` pins or (with ``None``)
    re-reads the disk on next use.
    """
    global _active
    if _active is None:
        _active = load_profile() or BUILTIN_PROFILE
    return _active


def set_profile(profile: Optional[CalibrationProfile]) -> None:
    """Pin the active profile (tests, calibration), or reset with
    ``None`` so the next :func:`get_profile` re-reads the disk."""
    global _active
    _active = profile


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def _best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``repeats`` calls (deterministic work, so
    the minimum is the least-noisy estimate)."""
    import time

    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _micro_medges(seconds: float, elements: int) -> float:
    return elements / max(seconds, 1e-12) / 1e6


def run_calibration(
    *, scale: float = 1.0, seed: int = 17, repeats: int = 3
) -> CalibrationProfile:
    """Measure this machine and return a fresh profile.

    ``scale`` shrinks the probe sizes for smoke runs; fits are
    per-edge rates, so a scaled probe still transfers (noisier).
    Takes a few seconds at full scale.
    """
    import datetime
    import time

    import numpy as np

    from repro.algorithms.bfs import bfs
    from repro.algorithms.sssp import sssp
    from repro.engine import kernels
    from repro.engine.push import EngineOptions, run_push, run_push_lanes
    from repro.engine.schedule import NodeScheduler
    from repro.algorithms.programs import BFSProgram, SSSPProgram
    from repro.graph.generators import rmat

    rng = np.random.default_rng(seed)

    # -- numpy scatter microbenchmark ----------------------------------
    size = max(10_000, int(1_000_000 * scale))
    n_micro = max(1024, size // 8)
    idx = rng.integers(0, n_micro, size=size)
    cand = rng.random(size)
    values = rng.random(n_micro)
    scatter_s = _best_of(repeats, lambda: np.minimum.at(values, idx, cand))

    # -- probe graphs --------------------------------------------------
    n = max(2_000, int(20_000 * scale))
    weighted = rmat(n, 16 * n, seed=seed, weight_range=(1.0, 8.0))
    hop = weighted.without_weights()
    m = weighted.num_edges
    # The strategy probes run under the *default* backend resolution:
    # the model predicts production runs, and a production loop
    # pass engages whatever JIT backend auto picks — fits taken with
    # numpy pinned would predict a configuration that never runs
    # (and would place the bfs lane crossover a full source too low
    # on machines where cjit accelerates the scalar loop).
    options = EngineOptions()

    # fixed per-run overhead: a full engine run on a near-empty graph
    tiny = rmat(256, 1024, seed=seed)
    tiny_sched = NodeScheduler(tiny.without_weights())
    run_overhead_s = _best_of(
        max(repeats, 5), lambda: bfs(tiny_sched, 0, options=options)
    )

    # -- lane-vs-loop fits ---------------------------------------------
    def lane_fit(graph, program, runner) -> LaneFit:
        sched = NodeScheduler(graph)
        sources = sorted(
            int(s) for s in rng.choice(graph.num_nodes, 16, replace=False)
        )
        loop4_s = _best_of(repeats, lambda: [
            runner(sched, s, options=options) for s in sources[:4]
        ])
        lanes4_s = _best_of(repeats, lambda: run_push_lanes(
            sched, program, sources[:4], options=options
        ))
        lanes16_s = _best_of(repeats, lambda: run_push_lanes(
            sched, program, sources, options=options
        ))
        loop_per_edge = max((loop4_s / 4 - run_overhead_s) / m, 1e-12)
        marginal = max((lanes16_s - lanes4_s) / (12 * m), 0.0)
        fixed = max(
            (lanes4_s - run_overhead_s) / m - 4 * marginal, 1e-12
        )
        return LaneFit(loop_per_edge, fixed, marginal)

    lanes = {
        "bfs": lane_fit(hop, BFSProgram(), bfs),
        "sssp": lane_fit(weighted, SSSPProgram(), sssp),
    }

    # -- kernel backend throughput (warm) ------------------------------
    sched = NodeScheduler(weighted)
    program = SSSPProgram()
    push_result = run_push(sched, program, 0, options=options)
    backend_eps: Dict[str, float] = {}
    for name in kernels.available_backends():
        opts = EngineOptions(kernel_backend=name)
        run_push(sched, program, 0, options=opts)  # warm (JIT compiles)
        seconds = _best_of(repeats, lambda: run_push(
            sched, program, 0, options=opts
        ))
        backend_eps[name] = push_result.edges_processed / max(seconds, 1e-12)

    return CalibrationProfile(
        version=PROFILE_VERSION,
        source="measured",
        machine=f"{platform.machine()} {platform.system()}".strip(),
        created=datetime.date.today().isoformat(),
        probe_nodes=weighted.num_nodes,
        probe_edges=m,
        run_overhead_s=run_overhead_s,
        scatter_medges_s=_micro_medges(scatter_s, size),
        backend_edges_per_s=backend_eps,
        jit_min_edges=4096,
        lanes=lanes,
    )


def calibrate_and_save(
    *, scale: float = 1.0, seed: int = 17, repeats: int = 3,
    path: Optional[str] = None,
) -> Tuple[CalibrationProfile, str]:
    """Run calibration, persist it, and make it the active profile."""
    profile = run_calibration(scale=scale, seed=seed, repeats=repeats)
    saved_to = save_profile(profile, path)
    set_profile(profile)
    return profile, saved_to
