"""The simulated paper numbers are pinned byte for byte.

``tests/fixtures/paper/`` holds the ``--json`` output of::

    python -m repro.bench table1 table3 table4 fig13 table5 table6 \\
        table8 profile ablation-vk ablation-udtk ablation-grid \\
        ablation-topo ablation-dir hardwired skew reorder \\
        scaling-speedup table4x multigpu devices \\
        --scale 0.25 --json tests/fixtures/paper/

Every experiment here is a function of the warp model alone (no wall
clock), so a refactor of how the model observes the engine must
regenerate each file unchanged.  To refresh the set after an intended
change to a simulated number, re-run the command above.

The set was written with the compiled kernels engaged (what ``auto``
picks on these graphs when a C compiler exists): Maximum Warp replays
the iteration count of an unsimulated semantic pass, and a compiled
MIN/MAX pass may converge in fewer supersteps than numpy's.  The tests
pin ``cjit`` so a host calibration or environment cannot move that.
"""

import os

import pytest

from repro.bench.__main__ import EXPERIMENTS
from repro.bench.export import export_key, save_report
from repro.engine import kernels

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "paper")
SCALE = 0.25
GOLDEN = sorted(name[: -len(".json")] for name in os.listdir(FIXTURES))


@pytest.fixture(autouse=True)
def _compiled_kernels(monkeypatch):
    if not kernels.get_backend("cjit").is_available():
        pytest.skip("the golden set was written with the cjit kernels")
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cjit")


def test_the_golden_set_covers_every_simulated_experiment():
    wall_clock = {
        "table7", "scaling", "service", "service-backends", "service-trace",
        "kernels", "sharded", "multisource",
    }
    assert set(GOLDEN) == set(EXPERIMENTS) - wall_clock


@pytest.mark.parametrize("key", GOLDEN)
def test_experiment_regenerates_byte_identical(key, tmp_path):
    path = tmp_path / f"{export_key(key)}.json"
    save_report(EXPERIMENTS[key](SCALE), path)
    with open(os.path.join(FIXTURES, f"{key}.json"), "rb") as handle:
        expected = handle.read()
    assert path.read_bytes() == expected
