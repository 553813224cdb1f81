"""Multi-GPU partitioned graph processing (TOTEM/Medusa-class, §7.2).

The paper's related work lists multi-GPU systems and closes with "our
proposed methods are orthogonal to these existing techniques."  This
package makes that claim executable: a graph is partitioned across
several simulated devices, each device runs the vertex-centric push
engine on its owned nodes — with *any* scheduler, including Tigr's
virtual scheduling — and remote value updates cross a modelled
interconnect between supersteps.

The orthogonality experiment (``benchmarks/bench_multigpu.py``) shows
Tigr's per-device speedup surviving at every device count: splitting
the graph across devices does not remove the intra-device warp
imbalance, and Tigr still removes it.
"""

from repro.multigpu.partition import (
    MirroredPartition,
    Partition,
    hash_partition,
    inedge_owner,
    inedge_partition,
    mirror_count,
    partition_balance,
    powerlyra_partition,
    range_partition,
)

__all__ = [
    "MultiGPUConfig",
    "InterconnectConfig",
    "Partition",
    "range_partition",
    "hash_partition",
    "inedge_owner",
    "inedge_partition",
    "powerlyra_partition",
    "MirroredPartition",
    "mirror_count",
    "partition_balance",
    "run_multi_gpu",
    "MultiGPUResult",
]


def __getattr__(name: str):
    # the simulated multi-device engine and its config (built on the
    # warp model's GPUConfig) load on first use: the serving tier
    # imports this package for `partition` alone
    if name in ("MultiGPUResult", "run_multi_gpu"):
        from repro.multigpu import engine

        return getattr(engine, name)
    if name in ("InterconnectConfig", "MultiGPUConfig"):
        from repro.multigpu import config

        return getattr(config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
