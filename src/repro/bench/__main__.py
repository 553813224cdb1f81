"""CLI: regenerate every paper table/figure in one run.

Usage::

    python -m repro.bench                # all experiments, full scale
    python -m repro.bench --scale 0.25   # quick pass on shrunken graphs
    python -m repro.bench table4 fig13   # a subset

Experiment keys: table1, table3, table4, table5, table6, table7,
table8, fig13, profile — plus the beyond-the-paper extensions
ablation-vk, ablation-udtk, ablation-grid, ablation-topo, hardwired,
skew, reorder, scaling, scaling-speedup.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench import (
    degree_profile,
    device_generation_sweep,
    multigpu_orthogonality,
    push_vs_pull,
    figure13_speedups,
    hardwired_comparison,
    k_sweep_physical,
    k_sweep_virtual,
    kernel_backends,
    multisource_lanes,
    optimization_grid,
    reordering_comparison,
    service_backend_sweep,
    service_throughput,
    service_trace_replay,
    sharded_scaling,
    skew_sweep,
    speedup_scaling,
    table1_split_properties,
    table3_datasets,
    table4_performance,
    table5_udt_space,
    table6_virtual_space,
    table7_transform_time,
    table8_sssp_profile,
    topology_race,
    transform_scaling,
)

EXPERIMENTS = {
    "table1": lambda scale: table1_split_properties(),
    "table3": lambda scale: table3_datasets(scale=scale),
    "table4": lambda scale: table4_performance(scale=scale),
    "fig13": lambda scale: figure13_speedups(scale=scale),
    "table5": lambda scale: table5_udt_space(scale=scale),
    "table6": lambda scale: table6_virtual_space(scale=scale),
    "table7": lambda scale: table7_transform_time(scale=scale),
    "table8": lambda scale: table8_sssp_profile(scale=scale),
    "profile": lambda scale: degree_profile(scale=scale),
    # extensions beyond the paper's tables (DESIGN.md section 7)
    "ablation-vk": lambda scale: k_sweep_virtual(scale=scale),
    "ablation-udtk": lambda scale: k_sweep_physical(scale=scale),
    "ablation-grid": lambda scale: optimization_grid(scale=scale),
    "ablation-topo": lambda scale: topology_race(scale=scale),
    "ablation-dir": lambda scale: push_vs_pull(scale=scale),
    "hardwired": lambda scale: hardwired_comparison(scale=scale),
    "skew": lambda scale: skew_sweep(),
    "reorder": lambda scale: reordering_comparison(scale=scale),
    "scaling": lambda scale: transform_scaling(),
    "scaling-speedup": lambda scale: speedup_scaling(),
    "table4x": lambda scale: table4_performance(scale=scale, extended=True),
    "multigpu": lambda scale: multigpu_orthogonality(scale=scale),
    "devices": lambda scale: device_generation_sweep(scale=scale),
    "service": lambda scale: service_throughput(scale=scale),
    "service-backends": lambda scale: service_backend_sweep(scale=scale),
    "service-trace": lambda scale: service_trace_replay(scale=scale),
    "sharded": lambda scale: sharded_scaling(scale=scale),
    "multisource": lambda scale: multisource_lanes(scale=scale),
    "kernels": lambda scale: kernel_backends(scale=scale),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Tigr paper's evaluation tables/figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=list(EXPERIMENTS),
        help=f"subset to run (default: all). Keys: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (default 1.0)")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write each report as JSON into DIR")
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    if args.json:
        os.makedirs(args.json, exist_ok=True)
    for key in args.experiments:
        start = time.perf_counter()
        report = EXPERIMENTS[key](args.scale)
        elapsed = time.perf_counter() - start
        print(report.to_text())
        print(f"  [{key} regenerated in {elapsed:.1f}s]")
        if args.json:
            from repro.bench.export import export_key, save_report

            path = os.path.join(args.json, f"{export_key(key)}.json")
            save_report(report, path)
            print(f"  [written to {path}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
