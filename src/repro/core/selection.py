"""Degree-bound selection heuristics (§5, "Selection of K").

The paper: *"Degree bound K can be tuned based on graph algorithms
and graph characteristics... for virtual graph transformation, we
only observed marginal improvements by tuning K.  Hence, for
simplicity, we empirically choose K = 10... By contrast, for physical
graph transformation (UDT)... the best value of K primarily depends
on the degree distribution.  In practice, we use a simple heuristic
that pre-defines a mapping between K and the maximum degree of a
graph."*

These are that fixed constant and that mapping, calibrated against
this repository's K-sweep ablations
(``benchmarks/bench_ablations.py``): the physical optimum tracks
``d_max`` sub-linearly, doubling roughly every 4× of maximum degree.
"""

from __future__ import annotations

import math

from repro.graph.csr import CSRGraph

#: the paper's single global bound for virtual transformation (§5).
VIRTUAL_DEGREE_BOUND = 10

#: transforms a served request may name: ``auto`` (the planner's pick,
#: which serves the CSR), ``none`` (the raw CSR) or a paper transform.
TRANSFORMS = ("auto", "none", "udt", "virtual", "virtual+")

#: clamp range for the physical heuristic.
MIN_PHYSICAL_K = 8
MAX_PHYSICAL_K = 512
#: d_max at (and below) which the minimum bound applies.
BASE_DMAX = 1024


def choose_virtual_k(graph: CSRGraph) -> int:
    """K for Tigr-V / Tigr-V+: the paper's constant 10.

    Tuning buys only marginal change (the K-sweep ablation confirms a
    monotone, shallow curve), so no per-graph logic is warranted.
    """
    return VIRTUAL_DEGREE_BOUND


def choose_physical_k(graph: CSRGraph) -> int:
    """K for UDT, from the maximum outdegree.

    ``K = 8 · 2^floor(log4(d_max / 1024))`` clamped to [8, 512]: the
    bound doubles every 4× of ``d_max``, matching the interior optima
    the physical K-sweep finds on the stand-ins (and the paper's own
    per-dataset choices, which grow with d_max in Table 3).
    """
    d_max = graph.max_out_degree()
    if d_max <= BASE_DMAX:
        return MIN_PHYSICAL_K
    doublings = int(math.floor(math.log(d_max / BASE_DMAX, 4))) + 1
    return int(min(MAX_PHYSICAL_K, MIN_PHYSICAL_K * 2 ** doublings))
