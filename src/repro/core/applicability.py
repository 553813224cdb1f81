"""Applicability of split transformations per analytic (§3.3).

The paper closes §3.3 with: "by checking the graph property
requirements, the applicability of UDT or other split transformations
for a specific graph analysis can be determined."  This module encodes
that check: every analytic declares which graph properties it relies
on, and split safety follows from whether UDT preserves all of them
(Theorem 1 and Corollaries 1–4 preserve connectivity, paths/distances,
bottlenecks and in/outdegrees; neighborhood structure is *not*
preserved — split nodes change who is whose direct neighbor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.weights import DumbWeight


class GraphProperty(enum.Enum):
    """Graph properties an analytic's answer can depend on."""

    #: which nodes are mutually reachable (Corollary 1 preserves it).
    CONNECTIVITY = "connectivity"
    #: pairwise path distances (Corollary 2, dumb weight 0).
    DISTANCES = "distances"
    #: per-path minimum edge weight (Corollary 3, dumb weight +inf).
    BOTTLENECKS = "bottlenecks"
    #: in/outdegrees of original nodes (Corollary 4).
    DEGREES = "degrees"
    #: the exact 1-hop neighborhood of each node — NOT preserved:
    #: a split node's neighbors are distributed across its family.
    NEIGHBORHOODS = "neighborhoods"


#: properties UDT preserves, mapped to the corollary that proves it.
PRESERVED_BY_UDT: Dict[GraphProperty, str] = {
    GraphProperty.CONNECTIVITY: "Corollary 1",
    GraphProperty.DISTANCES: "Corollary 2 (dumb weight 0)",
    GraphProperty.BOTTLENECKS: "Corollary 3 (dumb weight +inf)",
    GraphProperty.DEGREES: "Corollary 4",
}


@dataclass(frozen=True)
class AnalysisRequirements:
    """What one analytic needs from the graph, and the verdict."""

    analysis: str
    requires: Tuple[GraphProperty, ...]
    #: dumb-weight policy a physical transform must use (when safe).
    dumb_weight: DumbWeight

    @property
    def split_safe(self) -> bool:
        """Whether any split transformation can preserve this analytic."""
        return all(prop in PRESERVED_BY_UDT for prop in self.requires)

    @property
    def justification(self) -> str:
        """Which corollaries carry the proof, or why it fails."""
        broken = [p for p in self.requires if p not in PRESERVED_BY_UDT]
        if broken:
            names = ", ".join(p.value for p in broken)
            return f"not split-safe: depends on {names}, which splitting destroys"
        cites = sorted({PRESERVED_BY_UDT[p] for p in self.requires})
        return "split-safe by " + ", ".join(cites)


#: the §3.3 applicability table: the six supported analytics plus the
#: named counterexamples (graph coloring, triangle counting, clique
#: detection).
REQUIREMENTS: Dict[str, AnalysisRequirements] = {
    req.analysis: req
    for req in [
        AnalysisRequirements("cc", (GraphProperty.CONNECTIVITY,), DumbWeight.NONE),
        AnalysisRequirements("bfs", (GraphProperty.DISTANCES,), DumbWeight.ZERO),
        AnalysisRequirements("sssp", (GraphProperty.DISTANCES,), DumbWeight.ZERO),
        AnalysisRequirements("bc", (GraphProperty.DISTANCES,), DumbWeight.ZERO),
        AnalysisRequirements("sswp", (GraphProperty.BOTTLENECKS,), DumbWeight.INFINITY),
        AnalysisRequirements("pr", (GraphProperty.DEGREES,), DumbWeight.NONE),
        AnalysisRequirements(
            "triangle_counting", (GraphProperty.NEIGHBORHOODS,), DumbWeight.NONE
        ),
        AnalysisRequirements(
            "graph_coloring", (GraphProperty.NEIGHBORHOODS,), DumbWeight.NONE
        ),
        AnalysisRequirements(
            "clique_detection", (GraphProperty.NEIGHBORHOODS,), DumbWeight.NONE
        ),
    ]
}


#: relax-body path-metric classes and the Theorem 1 dumb weight each
#: one demands on transformation-introduced edges.  The static
#: analyzer (:mod:`repro.analyze.programs`) classifies every
#: ``PushProgram.relax`` body into one of these and cross-checks the
#: result against :data:`PROGRAM_EXPECTATIONS`.
RELAX_CLASS_DUMB_WEIGHT: Dict[str, DumbWeight] = {
    #: ``alt = src + w`` — additive path metric (Corollary 2).
    "additive": DumbWeight.ZERO,
    #: ``alt = min(src, w)`` — bottleneck path metric (Corollary 3).
    "widest_path": DumbWeight.INFINITY,
    #: ``alt = src`` — weight-oblivious label/rank propagation.
    "propagation": DumbWeight.NONE,
}


@dataclass(frozen=True)
class ProgramExpectation:
    """What the §3.3 table expects of one ``PushProgram`` subclass.

    ``program`` is the subclass's ``name`` attribute; ``analysis`` the
    :data:`REQUIREMENTS` key it serves.  ``relax_class`` and
    ``reduce_op`` pin the (relax, reduce) pair Theorems 1 and 3
    certify — editing either side of the pair without updating this
    table is exactly the drift ``repro analyze`` exists to catch.
    """

    program: str
    analysis: str
    relax_class: str
    reduce_op: str
    #: whether the pair may run lane-parallel (multi-source mode).
    #: ``None`` means "derive from the reduction": MIN/MAX are
    #: idempotent, so union-frontier over-relaxation folds away; ADD
    #: double-counts.  Explicit ``True``/``False`` pins the verdict so
    #: ``repro analyze`` (SPLIT006) catches a reduce edit that silently
    #: flips lane safety.
    lane_safe: Optional[bool] = None

    @property
    def dumb_weight(self) -> DumbWeight:
        """The table's dumb-weight policy for the backing analysis."""
        return REQUIREMENTS[self.analysis].dumb_weight

    @property
    def lane_safe_resolved(self) -> bool:
        """The certified lane-safety verdict (explicit or derived)."""
        if self.lane_safe is not None:
            return self.lane_safe
        return self.reduce_op in ("min", "max")


#: expectations for every vertex program the engines execute, keyed by
#: the program's ``name`` attribute.
PROGRAM_EXPECTATIONS: Dict[str, ProgramExpectation] = {
    exp.program: exp
    for exp in [
        ProgramExpectation("bfs", "bfs", "additive", "min", lane_safe=True),
        ProgramExpectation("sssp", "sssp", "additive", "min", lane_safe=True),
        ProgramExpectation("sswp", "sswp", "widest_path", "max", lane_safe=True),
        ProgramExpectation("cc", "cc", "propagation", "min", lane_safe=True),
        ProgramExpectation("pagerank", "pr", "propagation", "add", lane_safe=False),
    ]
}

#: split-safe analytics with no dedicated vertex program because they
#: are composed from other programs' passes (BC runs BFS/SSSP forward
#: phases plus a dependency accumulation, §3.3 / Corollary 2).
COMPOSED_ANALYSES: Dict[str, Tuple[str, ...]] = {
    "bc": ("bfs", "sssp"),
}


def is_split_safe(analysis: str) -> bool:
    """Whether physical split transformations preserve ``analysis``.

    Raises :class:`KeyError` for analytics not in the §3.3 table.
    """
    return REQUIREMENTS[analysis].split_safe


def explain(analysis: str) -> str:
    """Human-readable applicability verdict with its justification."""
    req = REQUIREMENTS[analysis]
    verdict = "SAFE" if req.split_safe else "UNSAFE"
    return f"{req.analysis}: {verdict} — {req.justification}"


def split_safe_analyses() -> Tuple[str, ...]:
    """The analytics UDT provably preserves (§3.3's positive list)."""
    return tuple(sorted(a for a, r in REQUIREMENTS.items() if r.split_safe))


def split_unsafe_analyses() -> Tuple[str, ...]:
    """The §3.3 counterexamples."""
    return tuple(sorted(a for a, r in REQUIREMENTS.items() if not r.split_safe))
