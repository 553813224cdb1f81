"""Multi-device BSP push engine.

One superstep: every device processes its active owned nodes with its
own scheduler (plain node scheduling, or Tigr virtual scheduling —
the whole point of the orthogonality claim), relaxes its local edges,
and the destinations it does not own become messages.  All updates
fold into the global value array at the superstep barrier (the
reductions are associative and commutative, so local-vs-remote apply
order cannot change results), then changed nodes form the next
frontier.

Superstep cost = the slowest device's kernel time (devices run
concurrently) + the interconnect exchange.  Results are, by
construction, identical to the single-device engine — asserted in
the tests, measured in ``benchmarks/bench_multigpu.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.virtual import virtual_transform
from repro.engine.program import PushProgram
from repro.engine.push import EngineOptions
from repro.errors import EngineError
from repro.gpu.metrics import RunMetrics
from repro.gpu.simulator import GPUSimulator
from repro.graph.csr import CSRGraph, NODE_DTYPE
from repro.multigpu.config import MultiGPUConfig
from repro.multigpu.partition import Partition, range_partition


@dataclass
class MultiGPUResult:
    """Outcome of a multi-device run."""

    values: np.ndarray
    num_supersteps: int
    converged: bool
    total_time_ms: float
    kernel_time_ms: float
    transfer_time_ms: float
    transfer_bytes: int
    remote_updates: int
    #: master->mirror value shipments (PowerLyra-style partitionings;
    #: zero for pure edge partitionings).
    mirror_syncs: int = 0
    device_metrics: List[RunMetrics] = field(default_factory=list)

    @property
    def transfer_fraction(self) -> float:
        """Share of time spent on the interconnect."""
        if self.total_time_ms == 0:
            return 0.0
        return self.transfer_time_ms / self.total_time_ms


#: bytes per remote update message: destination id + value.
MESSAGE_BYTES = 16


def run_multi_gpu(
    graph: CSRGraph,
    program: PushProgram,
    source: Optional[int] = None,
    *,
    config: Optional[MultiGPUConfig] = None,
    partitioner: Callable[[CSRGraph, int], List[Partition]] = range_partition,
    degree_bound: Optional[int] = None,
    coalesced: bool = True,
    options: EngineOptions = EngineOptions(),
) -> MultiGPUResult:
    """Run a push program across simulated devices.

    Parameters
    ----------
    degree_bound:
        ``None`` runs each device with plain node scheduling
        (TOTEM-style baseline); an integer applies Tigr's virtual
        transformation *per device partition* with that bound —
        demonstrating the §7.2 orthogonality claim.
    """
    config = config or MultiGPUConfig()
    if program.needs_weights and graph.weights is None:
        raise EngineError(f"program {program.name!r} needs edge weights")

    partitions = partitioner(graph, config.num_devices)
    owner = np.empty(graph.num_nodes, dtype=np.int64)
    for partition in partitions:
        owner[partition.owned] = partition.device
    # Vertex-cut partitionings (PowerLyra) place some hubs' edge
    # slices on non-owner devices; those devices must also process
    # the hub when it is active, after an explicit master->mirror
    # value sync that the interconnect accounting charges below.
    has_edges = np.zeros((config.num_devices, graph.num_nodes), dtype=bool)
    is_mirror = np.zeros((config.num_devices, graph.num_nodes), dtype=bool)
    for partition in partitions:
        sources = np.unique(partition.subgraph.edge_sources())
        has_edges[partition.device, sources] = True
        mirrored = getattr(partition, "mirrored", None)
        if mirrored is not None and len(mirrored):
            is_mirror[partition.device, mirrored] = True

    # each device's scheduler carries its own warp model
    simulators = [GPUSimulator(config.device) for _ in partitions]
    schedulers = [
        sim.attach(
            partition.subgraph if degree_bound is None
            else virtual_transform(partition.subgraph, degree_bound,
                                   coalesced=coalesced)
        )
        for sim, partition in zip(simulators, partitions)
    ]

    n = graph.num_nodes
    values = program.initial_values(n, source)
    frontier = np.asarray(program.initial_frontier(n, source), dtype=NODE_DTYPE)

    converged = False
    supersteps = 0
    kernel_time = 0.0
    transfer_time = 0.0
    transfer_bytes = 0
    remote_updates = 0
    mirror_syncs = 0

    for _ in range(options.max_iterations):
        if len(frontier) == 0:
            converged = True
            break
        supersteps += 1
        before = values.copy()
        frontier_owner = owner[frontier]

        step_kernel_ms = 0.0
        step_exchanges = 0
        step_bytes = 0
        for partition, scheduler, simulator in zip(partitions, schedulers, simulators):
            device = partition.device
            local = frontier_owner == device
            mirror_here = is_mirror[device, frontier]
            active = frontier[local | mirror_here]
            # explicit synchronization: every active mirrored hub's
            # value must arrive from its master first
            synced = int(mirror_here.sum())
            if synced:
                mirror_syncs += synced
                step_bytes += synced * MESSAGE_BYTES
                step_exchanges += 1
            if len(active) == 0:
                continue
            batch = scheduler.batch(active)
            scheduler.launched(batch)
            step_kernel_ms = max(
                step_kernel_ms, simulator.metrics.iterations[-1].time_ms
            )

            eidx = batch.edge_indices()
            if len(eidx) == 0:
                continue
            sub = partition.subgraph
            src_vals = before[batch.sources_per_edge()]
            w = sub.weights[eidx] if sub.weights is not None else None
            candidates = program.relax(src_vals, w)
            dst = sub.targets[eidx]
            program.reduce.scatter(values, dst, candidates)

            # Interconnect accounting: updates to nodes another device
            # owns are aggregated per destination before shipping.
            remote = owner[dst] != partition.device
            if remote.any():
                unique_remote = np.unique(dst[remote])
                remote_updates += len(unique_remote)
                step_bytes += len(unique_remote) * MESSAGE_BYTES
                step_exchanges += len(np.unique(owner[unique_remote]))

        kernel_time += step_kernel_ms
        exchange_ms = config.interconnect.transfer_ms(step_bytes, step_exchanges)
        transfer_time += exchange_ms
        transfer_bytes += step_bytes

        changed = np.flatnonzero(values != before)
        if len(changed) == 0:
            converged = True
            break
        frontier = changed.astype(NODE_DTYPE)

    if not converged and options.require_convergence:
        raise EngineError(
            f"{program.name} (multi-GPU) did not converge within "
            f"{options.max_iterations} supersteps"
        )
    return MultiGPUResult(
        values=values,
        num_supersteps=supersteps,
        converged=converged,
        total_time_ms=kernel_time + transfer_time,
        kernel_time_ms=kernel_time,
        transfer_time_ms=transfer_time,
        transfer_bytes=transfer_bytes,
        remote_updates=remote_updates,
        mirror_syncs=mirror_syncs,
        device_metrics=[sim.metrics for sim in simulators],
    )
