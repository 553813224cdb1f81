"""Quickstart: transform an irregular graph and run SSSP the Tigr way.

This walks the paper's core loop end to end:

1. generate a power-law graph (the irregular input of Figure 1);
2. overlay a virtual split transformation (§4) with edge-array
   coalescing (§4.4) — no physical rewrite;
3. run SSSP (Algorithm 3) on the original and the virtually
   transformed graph under the simulated GPU;
4. compare results (identical — Theorem 2) and simulated cost.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.algorithms import sssp
from repro.core import virtual_transform
from repro.gpu import GPUSimulator
from repro.graph import rmat

K = 10  # the paper's degree bound for virtual transformation (§5)


def main() -> None:
    # 1. An irregular input: RMAT graphs have the power-law skew of
    #    real social networks.
    graph = rmat(20_000, 300_000, seed=42, weight_range=(1, 64))
    degrees = graph.out_degrees()
    source = int(np.argmax(degrees))
    print(f"graph: {graph}")
    print(f"max outdegree = {degrees.max()}, mean = {degrees.mean():.1f}")

    # 2. Virtual split transformation: a virtual node array over the
    #    untouched CSR.  This is all Tigr needs at load time.
    virtual = virtual_transform(graph, K, coalesced=True)
    print(f"virtual overlay: {virtual}")
    print(f"space overhead: {(virtual.space_ratio() - 1) * 100:.1f}%")

    # 3. SSSP on both, under the GPU cost model: a simulator attaches
    #    to the scheduler and costs each launch.
    base_sim, tigr_sim = GPUSimulator(), GPUSimulator()
    base = sssp(base_sim.attach(graph), source)
    tigr = sssp(tigr_sim.attach(virtual), source)

    # 4. Same answers (implicit value synchronization, Theorem 2)...
    assert np.allclose(base.values, tigr.values)
    assert base.num_iterations == tigr.num_iterations
    reached = int(np.isfinite(base.values).sum())
    print(f"\nSSSP from hub node {source}: reached {reached} nodes "
          f"in {base.num_iterations} iterations (identical results)")

    # ...at a fraction of the simulated cost.
    b, t = base_sim.metrics, tigr_sim.metrics
    print(f"\n{'':14s}{'baseline':>12s}{'Tigr-V+':>12s}")
    print(f"{'time (ms)':14s}{b.total_time_ms:12.3f}{t.total_time_ms:12.3f}")
    print(f"{'warp eff.':14s}{b.warp_efficiency:12.1%}{t.warp_efficiency:12.1%}")
    print(f"{'speedup':14s}{'':12s}{b.total_time_ms / t.total_time_ms:11.2f}x")


if __name__ == "__main__":
    main()
