"""The six graph analytics the paper evaluates (§6.1).

Each analytic exists in two forms:

* an **engine form** (``bfs``, ``sssp``, ``sswp``, ``cc``, ``bc``,
  ``pagerank``) expressed as a vertex program and executed by the
  push/pull engines of :mod:`repro.engine` on the original, physically
  transformed, or virtually transformed graph;
* a **reference form** (:mod:`repro.algorithms.reference`) — classic
  sequential CPU implementations used as correctness oracles by the
  test suite and the benchmark harness.

The package also answers for the six *by name* (:data:`ALGORITHMS`,
:func:`prepare_graph`, :func:`run_algorithm`) — here, not under
:mod:`repro.baselines` (which re-exports them), so that serving a
query never imports the paper-reproduction method models.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.bc import bc, BCResult
from repro.algorithms.bfs import bfs
from repro.algorithms.cc import connected_components, symmetrize, weak_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.programs import (
    BFSProgram,
    CCProgram,
    PageRankProgram,
    SSSPProgram,
    SSWPProgram,
)
from repro.algorithms.multi_source import (
    approximate_bc,
    closeness_centrality,
    multi_source_distances,
)
from repro.algorithms.sssp import sssp
from repro.algorithms.sswp import sswp
from repro.engine.kernels import resolve_backend
from repro.engine.push import EngineOptions
from repro.errors import EngineError
from repro.graph.csr import CSRGraph

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "prepare_graph",
    "run_algorithm",
    "bfs",
    "sssp",
    "sswp",
    "connected_components",
    "weak_components",
    "bc",
    "BCResult",
    "pagerank",
    "closeness_centrality",
    "approximate_bc",
    "multi_source_distances",
    "reconstruct_path",
    "path_length",
    "shortest_path_tree_edges",
    "BFSProgram",
    "SSSPProgram",
    "SSWPProgram",
    "CCProgram",
    "PageRankProgram",
]


def __getattr__(name: str):
    # the path helpers load on first use: serving never walks a path back
    if name in ("path_length", "reconstruct_path", "shortest_path_tree_edges"):
        from repro.algorithms import paths

        return getattr(paths, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """How one of the six analytics consumes its input graph."""

    name: str
    #: whether the run needs edge weights.
    weighted: bool
    #: whether a source node is required.
    needs_source: bool
    #: whether the graph is symmetrised first (CC convention).
    symmetrize: bool = False


#: The six analytics of §6.1, keyed by canonical name.
ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "bfs": AlgorithmSpec("bfs", weighted=False, needs_source=True),
    "sssp": AlgorithmSpec("sssp", weighted=True, needs_source=True),
    "sswp": AlgorithmSpec("sswp", weighted=True, needs_source=True),
    "cc": AlgorithmSpec("cc", weighted=False, needs_source=False, symmetrize=True),
    "bc": AlgorithmSpec("bc", weighted=False, needs_source=True),
    "pr": AlgorithmSpec("pr", weighted=False, needs_source=False),
}


def prepare_graph(graph: CSRGraph, algorithm: str) -> CSRGraph:
    """Shape the input graph the way every method consumes it.

    BFS/CC/BC/PR run unweighted; CC runs on the symmetrised graph
    (weakly connected components); SSSP/SSWP require weights.  Doing
    this once, identically for all methods, keeps Table 4 cells
    comparable.  CC's graph is :func:`to_undirected`'s byte for byte,
    from a compiled O(E) kernel where the backend has one, and is the
    only one built: the others return the same object every call.
    """
    spec = ALGORITHMS.get(algorithm)
    if spec is None:
        raise EngineError(f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}")
    g = graph
    if spec.symmetrize:
        g = symmetrize(g, resolve_backend(None, edges=graph.num_edges))
    if spec.weighted:
        if g.weights is None:
            raise EngineError(f"{algorithm} requires a weighted graph")
    else:
        g = g.without_weights()
    return g


def run_algorithm(
    target,
    algorithm: str,
    source: Optional[int],
    options: EngineOptions,
) -> Tuple[np.ndarray, int]:
    """Run one analytic on any engine target.

    Returns ``(values, iterations)``.  ``values`` are the analytic's
    canonical output: distances, widths, labels, BC scores, or
    PageRank scores.  To cost the run on the warp model, pass a
    simulator's attached scheduler as ``target``.
    """
    if algorithm == "bfs":
        r = bfs(target, source, options=options)
    elif algorithm == "sssp":
        r = sssp(target, source, options=options)
    elif algorithm == "sswp":
        r = sswp(target, source, options=options)
    elif algorithm == "cc":
        r = connected_components(target, options=options)
    elif algorithm == "pr":
        r = pagerank(target, options=options)
    elif algorithm == "bc":
        result = bc(target, source, options=options)
        return result.centrality, result.num_iterations
    else:
        raise EngineError(f"unknown algorithm {algorithm!r}")
    return r.values, r.num_iterations
