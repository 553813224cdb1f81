"""Warp-level accounting: from per-thread work to per-warp statistics.

A :class:`WorkTrace` captures one iteration's thread launch: for every
thread, how many edge slots it processes (``counts``), where its slots
start in the edge array (``starts``) and with what stride
(``strides``).  Threads are grouped into warps in launch order, 32 at
a time — exactly how the CUDA runtime would.

:func:`warp_statistics` reduces a trace to the per-warp quantities the
cost model consumes: SIMD step counts (max-lane), useful lane steps,
and the effective inter-lane address gap that determines memory
coalescing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WorkTrace:
    """Per-thread work description for one kernel launch.

    ``counts[i]`` edge slots for thread ``i``, at edge-array indices
    ``starts[i] + strides[i] * j`` for ``j < counts[i]``.  Threads with
    ``counts == 0`` still occupy a lane (they run the setup code and
    idle during edge steps).
    """

    counts: np.ndarray
    starts: np.ndarray
    strides: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.counts) == len(self.starts) == len(self.strides)):
            raise ValueError("trace arrays must be parallel")

    @property
    def num_threads(self) -> int:
        return len(self.counts)

    @property
    def total_edges(self) -> int:
        """Edge slots processed across all threads."""
        return int(self.counts.sum()) if len(self.counts) else 0

    @classmethod
    def of(cls, batch) -> "WorkTrace":
        """The warp-model view of an engine launch
        (a :class:`~repro.engine.schedule.ThreadBatch`)."""
        return cls(batch.counts, batch.starts, batch.strides)

    @classmethod
    def uniform(cls, num_threads: int, count: int, *, start: int = 0) -> "WorkTrace":
        """A perfectly regular trace: every thread does ``count`` slots,
        laid out consecutively — handy in tests and for edge-parallel
        baselines."""
        counts = np.full(num_threads, count, dtype=np.int64)
        starts = start + np.arange(num_threads, dtype=np.int64) * count
        strides = np.ones(num_threads, dtype=np.int64)
        return cls(counts, starts, strides)


@dataclass(frozen=True)
class WarpStats:
    """Aggregate per-warp statistics of one trace."""

    num_warps: int
    #: per-warp SIMD step count: max lane count in each warp.
    steps: np.ndarray
    #: per-warp useful lane-steps: sum of lane counts.
    edges: np.ndarray
    #: per-warp active thread count (count > 0 lanes).
    active_lanes: np.ndarray
    #: per-warp launched thread count (last warp may be partial).
    launched_lanes: np.ndarray
    #: per-warp effective inter-lane gap in *bytes* for edge access.
    gap_bytes: np.ndarray

    @property
    def total_steps(self) -> int:
        return int(self.steps.sum())

    @property
    def total_edges(self) -> int:
        return int(self.edges.sum())

    def warp_efficiency(self, warp_size: int = 32) -> float:
        """Useful lane-steps over occupied lane-steps (Table 8 metric).

        A warp at step ``s`` occupies all ``warp_size`` lanes whether
        or not each lane still has work; efficiency is the fraction
        doing useful edge work.  1.0 for perfectly uniform warps,
        ``~1/32`` when a single hub lane drags 31 idle lanes along.
        Traces with no edge work at all report 1.0 (nothing wasted).
        """
        denom = self.total_steps * warp_size
        if denom == 0:
            return 1.0
        return self.total_edges / denom


def warp_statistics(
    trace: WorkTrace, *, warp_size: int = 32, word_bytes: int = 8,
    transaction_bytes: int = 128,
) -> WarpStats:
    """Group a trace into warps and compute per-warp statistics.

    The inter-lane gap: at each SIMD step the warp's active lanes
    access edge slots whose pairwise spacing decides coalescing.  We
    summarise it as the mean distance between consecutive active
    lanes' current slots, clipped to ``[word_bytes,
    transaction_bytes]`` — adjacent lanes on adjacent slots give
    ``word_bytes`` (fully coalesced); lanes more than one transaction
    apart are fully uncoalesced and clip at ``transaction_bytes``.
    Lane starts are representative of every step because lanes advance
    in lock-step by their own stride.
    """
    n = trace.num_threads
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return WarpStats(0, empty, empty, empty, empty, empty.astype(np.float64))
    num_warps = -(-n // warp_size)
    padded = num_warps * warp_size

    counts = np.zeros(padded, dtype=np.int64)
    counts[:n] = trace.counts
    counts = counts.reshape(num_warps, warp_size)

    starts = np.full(padded, -1, dtype=np.int64)
    starts[:n] = trace.starts
    starts = starts.reshape(num_warps, warp_size)

    steps = counts.max(axis=1)
    edges = counts.sum(axis=1)
    active = (counts > 0).sum(axis=1)
    launched = np.full(num_warps, warp_size, dtype=np.int64)
    launched[-1] = n - (num_warps - 1) * warp_size

    # Effective gap: mean |diff| of consecutive ACTIVE lanes' starts.
    active_mask = counts > 0
    gap = np.full(num_warps, float(transaction_bytes))
    # pairwise diffs between consecutive lanes, masked to active pairs
    diffs = np.abs(np.diff(starts, axis=1)).astype(np.float64) * word_bytes
    pair_ok = active_mask[:, 1:] & active_mask[:, :-1]
    clipped = np.clip(diffs, word_bytes, transaction_bytes)
    pair_counts = pair_ok.sum(axis=1)
    has_pairs = pair_counts > 0
    sums = np.where(pair_ok, clipped, 0.0).sum(axis=1)
    gap[has_pairs] = sums[has_pairs] / pair_counts[has_pairs]

    return WarpStats(
        num_warps=num_warps,
        steps=steps,
        edges=edges,
        active_lanes=active,
        launched_lanes=launched,
        gap_bytes=gap,
    )
