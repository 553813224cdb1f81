"""Query planner: transform choice, degree bound, and degradation.

The planner turns a :class:`~repro.service.query.QueryRequest` into a
concrete :class:`QueryPlan` using the library's existing decision
machinery rather than re-encoding it:

* :mod:`repro.core.applicability` (§3.3) decides whether a physical
  split transform may serve the analytic at all;
* :mod:`repro.core.selection` (§5) supplies the UDT degree bound K
  when the caller does not pin one;
* the ``Tigr-UDT`` engine restrictions (PR's push step and
  level-synchronous BC cannot run on physically transformed graphs —
  see :class:`repro.baselines.tigr.TigrUDTMethod`) bound what "udt"
  requests are accepted.

Every transform but ``"udt"`` serves the raw CSR (see
:func:`plan_query` for why): ``"auto"``, ``"virtual"`` and
``"virtual+"`` plan ``none``.  The request field keeps its values.

The planner also owns the *graceful degradation* rule: when the
catalog is cold and the request's remaining deadline is smaller than
the estimated transform build time, plan ``transform="none"`` and run
on the raw CSR — a correct answer late beats a fast answer never.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core import applicability, selection
from repro.core.weights import DumbWeight
from repro.errors import ServiceError, SplitSafetyError
from repro.graph.csr import CSRGraph
from repro.service.query import QueryRequest

#: analytics the physical (UDT) path can execute on the push engine.
UDT_EXECUTABLE = ("bfs", "sssp", "sswp", "cc")

#: rough per-edge UDT construction cost (seconds), used only to decide
#: degradation under tight deadlines.  Calibrated from the Table 7
#: regeneration on this simulator: UDT rewrites the whole CSR in a few
#: vectorised O(|E|) passes (7-16 ns/edge measured from 10k to 1M
#: edges, rounded up).
UDT_SECONDS_PER_EDGE = 2e-8


@dataclass(frozen=True)
class QueryPlan:
    """A fully resolved execution recipe for one request."""

    algorithm: str
    #: "none" | "udt"
    transform: str
    degree_bound: int
    dumb_weight: DumbWeight
    #: True when a tighter plan was abandoned for deadline reasons.
    degraded: bool = False

    @property
    def caches(self) -> bool:
        """Whether this plan produces a cacheable transform artifact."""
        return self.transform != "none"


def plan_query(request: QueryRequest, graph: CSRGraph) -> QueryPlan:
    """Resolve a request into a plan (no deadline pressure applied)."""
    algorithm = request.algorithm
    transform = request.transform
    if transform != "udt":
        # auto, virtual and virtual+ serve the CSR: every compiled
        # kernel walks CSR rows in order and answers are transform-free,
        # so an overlay would be built, cached and looked up for nothing.
        return QueryPlan(
            algorithm=algorithm,
            transform="none",
            degree_bound=0,
            dumb_weight=DumbWeight.NONE,
        )
    requirement = applicability.REQUIREMENTS.get(algorithm)
    if requirement is None:
        raise SplitSafetyError(
            algorithm,
            "not classified by the §3.3 applicability table, so no "
            "split-safety proof exists for it",
        )
    if not requirement.split_safe:
        raise SplitSafetyError(algorithm, requirement.justification)
    if algorithm not in UDT_EXECUTABLE:
        raise ServiceError(
            f"udt cannot serve {algorithm}: the push engine does not "
            f"execute it on physically transformed graphs "
            f"(supported: {', '.join(UDT_EXECUTABLE)})"
        )
    return QueryPlan(
        algorithm=algorithm,
        transform="udt",
        degree_bound=request.degree_bound or selection.choose_physical_k(graph),
        dumb_weight=DumbWeight.for_algorithm(algorithm),
    )


def estimate_build_seconds(graph: CSRGraph, plan: QueryPlan) -> float:
    """Predicted cold-cache transform construction time for ``plan``."""
    if plan.transform == "none":
        return 0.0
    return graph.num_edges * UDT_SECONDS_PER_EDGE


def degrade_for_deadline(
    plan: QueryPlan,
    graph: CSRGraph,
    remaining_s: float,
    *,
    artifact_cached: bool,
    safety_factor: float = 2.0,
) -> QueryPlan:
    """Fall back to the raw CSR when the deadline cannot fund a build.

    Applies only when the artifact is *not* already cached: a warm
    catalog makes the transform free, so the original plan stands.
    ``safety_factor`` pads the estimate — degrading slightly too eagerly
    is cheaper than missing a deadline by the whole build time.
    """
    if artifact_cached or not plan.caches:
        return plan
    estimated = estimate_build_seconds(graph, plan) * safety_factor
    if estimated <= remaining_s:
        return plan
    return replace(
        plan,
        transform="none",
        degree_bound=0,
        dumb_weight=DumbWeight.NONE,
        degraded=True,
    )
