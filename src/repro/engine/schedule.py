"""Schedulers: mapping active physical nodes to GPU threads.

The scheduler is where every method in the evaluation differs:

=====================  =====================================================
Scheduler              Models
=====================  =====================================================
:class:`NodeScheduler`       baseline engine and Tigr-UDT (thread per node)
:class:`VirtualScheduler`    Tigr-V / Tigr-V+ (thread per virtual node,
                             Algorithms 2–3; coalescing via the layout)
:class:`MaxWarpScheduler`    Maximum Warp [23]: ``w`` sub-warp lanes per node
:class:`EdgeParallelScheduler` Gunrock-style per-edge load balancing and
                             CuSha-style shard processing
=====================  =====================================================

A scheduler turns a frontier of *physical* node ids into a
:class:`ThreadBatch`: parallel per-thread arrays (owning physical
node, edge count, edge start slot, stride) from which the engine reads
its semantics.  Every numpy-body launch is announced through
:meth:`Scheduler.launched`; the warp model observes a run by wrapping
the scheduler (:meth:`repro.gpu.simulator.GPUSimulator.attach`).  The
compiled kernels read no batch: they walk each active node's CSR row
in order, on any :attr:`Scheduler.walkable` scheduler.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import EngineError
from repro.core.virtual import VirtualGraph
from repro.graph.csr import CSRGraph, NODE_DTYPE
from repro.indexing import strided_ranges_to_indices


@dataclass(frozen=True)
class ThreadBatch:
    """One kernel launch: per-thread work descriptors.

    Thread ``i`` processes edge-array slots ``starts[i] +
    strides[i] * j`` for ``j < counts[i]``.  Usually the thread
    belongs to one physical node (``phys[i]``); schedulers whose
    threads span *several* nodes' edges (warp segmentation) pass
    ``phys=None`` together with ``edge_owner`` — the CSR offsets —
    and edge sources are derived per slot instead.
    """

    phys: Optional[np.ndarray]
    counts: np.ndarray
    starts: np.ndarray
    strides: np.ndarray
    #: CSR offsets used to derive per-edge sources when phys is None.
    edge_owner: Optional[np.ndarray] = None
    #: per-batch cache for the derived edge arrays — the lane engines
    #: ask for both :meth:`edge_indices` and :meth:`sources_per_edge`
    #: each launch, and recomputing the strided expansion would double
    #: the gather cost.  Never hashed or compared; treat the cached
    #: arrays as read-only.
    _memo: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.phys is None and self.edge_owner is None:
            raise EngineError("ThreadBatch needs phys or edge_owner")

    @property
    def num_threads(self) -> int:
        return len(self.counts)

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum()) if len(self.counts) else 0

    def edge_indices(self) -> np.ndarray:
        """Flat physical edge-array indices, thread by thread."""
        cached = self._memo.get("edge_indices")
        if cached is None:
            cached = strided_ranges_to_indices(
                self.starts, self.counts, self.strides
            )
            self._memo["edge_indices"] = cached
        return cached

    def sources_per_edge(self) -> np.ndarray:
        """The owning physical node of each slot of :meth:`edge_indices`."""
        cached = self._memo.get("sources_per_edge")
        if cached is not None:
            return cached
        if self.phys is not None:
            result = np.repeat(self.phys, self.counts)
        else:
            slots = self.edge_indices()
            result = (
                np.searchsorted(self.edge_owner, slots, side="right") - 1
            ).astype(NODE_DTYPE)
        self._memo["sources_per_edge"] = result
        return result

    def slice(self, lo: int, hi: int) -> "ThreadBatch":
        """Sub-batch of threads ``[lo, hi)`` (synchronization
        relaxation processes a launch in sequential blocks)."""
        return ThreadBatch(
            None if self.phys is None else self.phys[lo:hi],
            self.counts[lo:hi],
            self.starts[lo:hi], self.strides[lo:hi],
            edge_owner=self.edge_owner,
        )


class Scheduler(ABC):
    """Maps frontiers of physical nodes to thread batches."""

    #: the graph whose edge array thread descriptors index into.
    graph: CSRGraph
    #: whether a compiled kernel may walk the active nodes' CSR rows in
    #: place of :meth:`batch`: every thread's edges are one node's (not
    #: warp segmentation's) and no launch is observed.
    walkable = False

    @property
    def offsets(self) -> Optional[np.ndarray]:
        """The rows compiled kernels walk (``None``: they decline)."""
        return self.graph.offsets if self.walkable else None

    @abstractmethod
    def batch(self, active: np.ndarray) -> ThreadBatch:
        """Thread batch covering the given active physical nodes."""

    def launched(self, batch: ThreadBatch) -> None:
        """Hook: ``batch`` is one superstep's launch on a numpy body.
        A no-op; an observing scheduler costs it."""

    def all_nodes(self) -> np.ndarray:
        """Convenience frontier: every node."""
        return np.arange(self.graph.num_nodes, dtype=NODE_DTYPE)


class NodeScheduler(Scheduler):
    """One thread per active node over its whole (consecutive) edge
    range — the plain vertex-parallel kernel of [22] and the paper's
    baseline engine."""

    walkable = True

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph

    def batch(self, active: np.ndarray) -> ThreadBatch:
        active = np.asarray(active, dtype=NODE_DTYPE)
        starts = self.graph.offsets[active]
        counts = self.graph.offsets[active + 1] - starts
        strides = np.ones(len(active), dtype=NODE_DTYPE)
        return ThreadBatch(active, counts, starts, strides)


class VirtualScheduler(Scheduler):
    """One thread per active *virtual* node (Algorithms 2–3).

    A physical node whose value changed activates all its virtual
    siblings (they share the changed value — implicit value
    synchronization), which is exactly the worklist behaviour of the
    paper's engine.
    """

    walkable = True

    def __init__(self, virtual: VirtualGraph) -> None:
        self.virtual = virtual
        self.graph = virtual.physical

    def batch(self, active: np.ndarray) -> ThreadBatch:
        active = np.asarray(active, dtype=NODE_DTYPE)
        vids = self.virtual.virtual_nodes_of(active)
        starts, counts, strides = self.virtual.edge_layout(vids)
        phys = self.virtual.physical_ids[vids]
        return ThreadBatch(phys, counts, starts, strides)


class MaxWarpScheduler(Scheduler):
    """Maximum Warp [23]: each node's edges are strided across ``w``
    sub-warp lanes.

    Lane ``j`` of a node with degree ``d`` processes slots
    ``offset + j, offset + j + w, ...`` — ``ceil((d - j) / w)`` of
    them.  Sub-warp lanes of one node are consecutive threads, so a
    32-lane warp holds ``32 / w`` nodes; divergence across those nodes
    is what remains of the load imbalance.
    """

    walkable = True

    def __init__(self, graph: CSRGraph, virtual_warp_size: int) -> None:
        if virtual_warp_size < 1 or virtual_warp_size > 32:
            raise EngineError(
                f"virtual warp size must be in [1, 32], got {virtual_warp_size}"
            )
        self.graph = graph
        self.w = int(virtual_warp_size)

    def batch(self, active: np.ndarray) -> ThreadBatch:
        active = np.asarray(active, dtype=NODE_DTYPE)
        w = self.w
        phys = np.repeat(active, w)
        lane = np.tile(np.arange(w, dtype=NODE_DTYPE), len(active))
        offsets = self.graph.offsets[phys]
        degrees = self.graph.offsets[phys + 1] - offsets
        counts = np.maximum(0, (degrees - lane + w - 1) // w)
        starts = offsets + lane
        strides = np.full(len(phys), w, dtype=NODE_DTYPE)
        return ThreadBatch(phys, counts, starts, strides)


class EdgeParallelScheduler(Scheduler):
    """One thread per active edge — perfect load balance.

    Models frontier engines that pre-partition the frontier's edges
    evenly over threads (Gunrock's load-balanced advance) and shard
    engines that stream the whole edge array (CuSha).  Thread order
    follows edge-array order, so the access pattern is coalesced.
    """

    walkable = True

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph

    def batch(self, active: np.ndarray) -> ThreadBatch:
        active = np.asarray(active, dtype=NODE_DTYPE)
        node_starts = self.graph.offsets[active]
        node_counts = self.graph.offsets[active + 1] - node_starts
        slots = strided_ranges_to_indices(node_starts, node_counts, None)
        phys = np.repeat(active, node_counts)
        ones = np.ones(len(slots), dtype=NODE_DTYPE)
        return ThreadBatch(phys, ones, slots, ones)


class WarpSegmentationScheduler(Scheduler):
    """Warp segmentation [30]: a warp's lanes split its nodes' edges
    evenly among themselves.

    Active nodes are grouped 32 per warp; the warp's lanes divide the
    group's *contiguous* CSR edge span into 32 near-equal consecutive
    chunks (located on real GPUs by an intra-warp binary search over
    the offsets).  Intra-warp balance is perfect by construction; what
    remains is inter-warp imbalance — a warp holding a hub still takes
    ``d/32`` steps while leaf warps take one — which is exactly the
    residue the paper's splitting removes and this model preserves.

    Requires the active set to be sorted (frontiers are) so each
    warp's edge span is contiguous.
    """

    def __init__(self, graph: CSRGraph, *, warp_size: int = 32) -> None:
        if warp_size < 1:
            raise EngineError("warp size must be >= 1")
        self.graph = graph
        self.warp_size = int(warp_size)

    def batch(self, active: np.ndarray) -> ThreadBatch:
        active = np.asarray(active, dtype=NODE_DTYPE)
        w = self.warp_size
        counts_out = []
        starts_out = []
        offsets = self.graph.offsets
        for lo in range(0, len(active), w):
            group = active[lo : lo + w]
            # contiguity check: non-contiguous groups fall back to
            # per-node spans concatenated (still correct, slightly
            # conservative on balance)
            span_edges = int((offsets[group + 1] - offsets[group]).sum())
            per_lane = -(-span_edges // w) if span_edges else 0
            base = int(offsets[group[0]])
            contiguous = bool(
                np.all(offsets[group[1:]] == offsets[group[:-1] + 1])
            ) if len(group) > 1 else True
            if not contiguous:
                # concatenated per-node fallback: lane l walks node l
                starts_out.extend(int(x) for x in offsets[group])
                counts_out.extend(
                    int(x) for x in (offsets[group + 1] - offsets[group])
                )
                continue
            for lane in range(w):
                lane_start = base + lane * per_lane
                lane_count = max(
                    0, min(per_lane, base + span_edges - lane_start)
                )
                starts_out.append(lane_start)
                counts_out.append(lane_count)
        return ThreadBatch(
            phys=None,
            counts=np.asarray(counts_out, dtype=NODE_DTYPE),
            starts=np.asarray(starts_out, dtype=NODE_DTYPE),
            strides=np.ones(len(counts_out), dtype=NODE_DTYPE),
            edge_owner=offsets,
        )
