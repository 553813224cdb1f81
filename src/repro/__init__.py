"""Tigr: Transforming Irregular Graphs for GPU-Friendly Graph Processing.

A complete Python reproduction of the ASPLOS'18 paper (Nodehi Sabet,
Qiu & Zhao) — the split transformations, the virtual node array, a
vertex-centric engine over a simulated GPU, the compared frameworks,
and a harness regenerating every table and figure of the evaluation.

Most users need only the facade below::

    import repro

    graph = repro.load_dataset("livejournal")     # or repro.rmat(...)
    tigr  = repro.tigr(graph)                     # virtual transform, auto-K
    result = repro.run("sssp", tigr, source=0)    # simulated + exact
    print(result.values, result.metrics.total_time_ms)

The subpackages expose everything else — see README.md for the map.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.selection import choose_physical_k, choose_virtual_k
from repro.core.udt import udt_transform
from repro.core.virtual import VirtualGraph, virtual_transform
from repro.core.weights import DumbWeight
from repro.engine.push import EngineOptions, EngineResult
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat

def _detect_version() -> str:
    """Installed package metadata when available, else the source tree.

    A deployed front door must be identifiable (``python -m repro
    --version``, ``GET /v1/healthz``), and the number must come from
    *one* place: the installed distribution's metadata.  Running from
    a source checkout without an install falls back to the last known
    version, marked as such.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        return "1.0.0+src"


__version__ = _detect_version()


def version_string() -> str:
    """The one-line identity every surface reports.

    The same string everywhere: ``python -m repro --version`` and the
    HTTP API's ``GET /v1/healthz`` (so an operator can match a
    deployed front door to a checkout).
    """
    return f"repro {__version__}"

__all__ = [
    "CSRGraph",
    "VirtualGraph",
    "load_dataset",
    "rmat",
    "tigr",
    "tigr_physical",
    "run",
    "choose_virtual_k",
    "choose_physical_k",
    "EngineOptions",
    "EngineResult",
    "DumbWeight",
    "__version__",
]


def tigr(
    graph: CSRGraph,
    degree_bound: Optional[int] = None,
    *,
    coalesced: bool = True,
) -> VirtualGraph:
    """The recommended transformation: virtual, coalesced, auto-K.

    This is "Tigr-V+" — what the paper's evaluation crowns.  Pass the
    result anywhere a graph is accepted by :func:`run` or the
    algorithm drivers; values stay per original node, answers are
    bit-identical to the untransformed graph (Theorem 2).
    """
    if degree_bound is None:
        degree_bound = choose_virtual_k(graph)
    return virtual_transform(graph, degree_bound, coalesced=coalesced)


def tigr_physical(
    graph: CSRGraph,
    degree_bound: Optional[int] = None,
    *,
    algorithm: str = "sssp",
):
    """The physical alternative: UDT with auto-K and the right dumb
    weights for ``algorithm`` (Corollaries 1–3).

    Returns a :class:`~repro.core.types.TransformResult`; read results
    back with its :meth:`~repro.core.types.TransformResult.read_values`.
    """
    if degree_bound is None:
        degree_bound = choose_physical_k(graph)
    return udt_transform(
        graph, degree_bound, dumb_weight=DumbWeight.for_algorithm(algorithm)
    )


def run(
    algorithm: str,
    target: Union[CSRGraph, VirtualGraph],
    source: Optional[int] = None,
    *,
    simulate: bool = True,
    options: EngineOptions = EngineOptions(),
) -> EngineResult:
    """Run one of the six analytics on a graph or transformed view.

    ``algorithm`` is one of ``bfs``, ``sssp``, ``sswp``, ``cc``,
    ``bc``, ``pr``.  With ``simulate=True`` (default) the result's
    ``metrics`` carries the GPU cost model's timing/efficiency.
    """
    from repro.algorithms import run_algorithm
    from repro.gpu.simulator import GPUSimulator

    sim = GPUSimulator() if simulate else None
    values, iterations = run_algorithm(
        sim.attach(target) if sim else target, algorithm.lower(), source,
        options,
    )
    return EngineResult(
        values=values, num_iterations=iterations, converged=True,
        metrics=sim.metrics if sim else None,
    )
