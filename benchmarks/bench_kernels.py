"""JIT kernel backends must beat scalar numpy without changing a bit.

The acceptance bar for the kernel-backend registry: at least one
(algorithm, graph) cell runs at least 2x faster warm under a JIT
backend than under the numpy baseline, every cell is **bitwise
identical** to the baseline, and the backend actually engaged (a
fallback to the numpy path must not masquerade as a JIT timing).
Warm-JIT and compile-included costs are reported separately in the
extras.  The JSON artifact lands in ``results/``.
"""

import os
import platform

import pytest

from repro.bench import kernel_backends
from repro.bench.export import save_report
from repro.engine import kernels

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")


def test_kernel_backends(run_once, bench_scale):
    if not kernels.jit_backends():
        pytest.skip("no JIT kernel backend available on this machine")
    report = run_once(kernel_backends, scale=bench_scale)
    print()
    print(report.to_text())
    save_report(report, os.path.join(RESULTS_DIR, "kernel-backends.json"))

    # the artifact says what produced it: a regenerated file can be
    # compared with the one it replaces only at the same scale and host
    assert report.extras["scale"] == bench_scale
    assert report.extras["host_machine"] == platform.machine()
    assert report.extras["host_cpus"] == os.cpu_count()

    # the whole point: same answers, down to the last bit
    assert report.extras["all_bitwise_equal"]
    # and the timings must be of the JIT path, not a silent fallback
    assert report.extras["all_jit_engaged"]
    # the acceptance criterion at full scale; smoke runs on shrunken
    # graphs keep a margin for launch overheads and runner noise
    floor = 2.0 if bench_scale >= 1.0 else 1.2
    assert report.extras["best_jit_speedup"] >= floor
