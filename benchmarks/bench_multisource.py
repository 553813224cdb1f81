"""Lane-parallel multi-source batches must beat the per-source loop.

The acceptance bar for the lane engine: a 16-source hop-count batch
on an R-MAT graph runs at least 2x faster than the same sources
looped one scalar traversal at a time, while producing **bitwise
identical** distance matrices.  Weighted (sssp) float lanes must win
too, by less: every lane pays for every edge the union frontier
schedules, so their gain is the shared edge walk and the vector fold,
not a 64-to-1 bit packing.  Both sides run under production defaults
(the compiled supersteps where a JIT backend is available).  The JSON
artifact lands in ``results/``.
"""

import os

from repro.bench import multisource_lanes
from repro.bench.export import save_report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def test_multisource_lanes(run_once, bench_scale):
    report = run_once(multisource_lanes, scale=bench_scale)
    print()
    print(report.to_text())
    save_report(report, os.path.join(RESULTS_DIR, "multisource-lanes.json"))

    # the whole point: same answers, down to the last bit
    assert report.extras["all_bitwise_equal"]
    # the acceptance criterion at full scale; smoke runs on shrunken
    # graphs keep a margin for fixed overheads and runner noise
    full = bench_scale >= 1.0
    assert report.extras["batch_speedup_16"] >= (2.0 if full else 1.2)
    # float lanes measure 1.7x at full scale (2.8x at smoke scale,
    # where the value matrix stays cache-resident)
    assert report.extras["sssp_speedup_16"] >= (1.2 if full else 1.0)

    # mode=auto (the measured cost model's pick) must never lose more
    # than a few percent to the best fixed mode; smoke scales keep a
    # wider margin because fixed overheads magnify timing noise
    assert report.extras["auto_worst_ratio"] <= (1.05 if full else 1.5)
