"""Seeded LAYER001: the engine reaches for the warp model at run time.

The import under ``if TYPE_CHECKING:`` is an annotation, not a path,
and must not fire; the one inside ``run_push`` must."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.gpu.simulator import GPUSimulator


def run_push(scheduler, sim: "GPUSimulator"):
    from repro.gpu.warp import WorkTrace

    return WorkTrace(scheduler)
