"""Warp-efficiency study: where Tigr's benefit comes from, and when
there is none.

Sweeps the degree bound K on two inputs:

* a power-law graph (Tigr's target workload) — warp efficiency climbs
  and simulated time falls as K shrinks toward warp-friendly sizes;
* a perfectly regular grid — already balanced, so the transformation
  buys (almost) nothing: the paper's approach attacks *irregularity*,
  not graphs in general.

Also contrasts the default and coalesced edge layouts (§4.4).

Run:  python examples/warp_efficiency_study.py
"""

import numpy as np

from repro.algorithms import sssp
from repro.core import virtual_transform
from repro.gpu import GPUSimulator
from repro.graph import grid_2d, rmat


def profile(graph, source, target=None):
    sim = GPUSimulator()
    sssp(sim.attach(target if target is not None else graph), source)
    return sim.metrics.total_time_ms, sim.metrics.warp_efficiency


def sweep(name, graph):
    source = int(np.argmax(graph.out_degrees()))
    base_ms, base_eff = profile(graph, source)
    print(f"\n=== {name}: {graph}")
    print(f"{'config':>16s} {'time (ms)':>10s} {'warp eff':>9s} {'speedup':>8s}")
    print(f"{'baseline':>16s} {base_ms:10.3f} {base_eff:9.1%} {'1.00x':>8s}")
    for k in (4, 8, 16, 32):
        for coalesced in (False, True):
            label = f"K={k}{'+coal' if coalesced else ''}"
            virtual = virtual_transform(graph, k, coalesced=coalesced)
            ms, eff = profile(graph, source, virtual)
            print(f"{label:>16s} {ms:10.3f} {eff:9.1%} {base_ms / ms:7.2f}x")


def main() -> None:
    # the paper's target: heavy-tailed degree distribution
    powerlaw = rmat(8_000, 120_000, seed=5, weight_range=(1, 64))
    sweep("power-law graph", powerlaw)

    # the control: perfectly regular degrees (max degree 4)
    grid = grid_2d(90, 90, weight_range=(1, 64), seed=5)
    sweep("regular 2-D grid", grid)

    print(
        "\nTakeaway: on the power-law graph the virtual transformation"
        "\nmultiplies warp efficiency and simulated speed; on the regular"
        "\ngrid it is near-neutral - irregularity is the enemy, and Tigr"
        "\nremoves exactly that."
    )


if __name__ == "__main__":
    main()
