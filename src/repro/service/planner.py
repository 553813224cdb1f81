"""Query planner: which requests may run, and the plan they run under.

The planner turns a :class:`~repro.service.query.QueryRequest` into a
concrete :class:`QueryPlan`.  Every plan serves the raw CSR
(``transform="none"``, ``degree_bound=0``) whatever transform the
request names (see :func:`plan_query` for why); the request field
keeps its values.

What a ``"udt"`` request may ask is still a contract, checked with
the library's existing decision machinery rather than re-encoded:

* :mod:`repro.core.applicability` (§3.3) decides whether a physical
  split transform may serve the analytic at all;
* the ``Tigr-UDT`` engine restrictions (PR's push step and
  level-synchronous BC cannot run on physically transformed graphs —
  see :class:`repro.baselines.tigr.TigrUDTMethod`) bound what "udt"
  requests are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import applicability
from repro.errors import ServiceError, SplitSafetyError
from repro.graph.csr import CSRGraph
from repro.service.query import QueryRequest

#: analytics the physical (UDT) path can execute on the push engine.
UDT_EXECUTABLE = ("bfs", "sssp", "sswp", "cc")


@dataclass(frozen=True)
class QueryPlan:
    """A fully resolved execution recipe for one request."""

    algorithm: str
    #: always "none": every plan serves the CSR
    transform: str
    degree_bound: int

    @property
    def caches(self) -> bool:
        """Whether this plan produces a cacheable transform artifact:
        never, since every plan serves the CSR.  Kept while
        ``benchmarks/ledger/walk.py`` reads it."""
        return self.transform != "none"


def plan_query(request: QueryRequest, graph: CSRGraph) -> QueryPlan:
    """Resolve a request into a plan.

    Every transform serves the CSR: the engine runs a batch on one
    core and every compiled kernel walks CSR rows in order, so a UDT
    or overlay balances nothing there, and answers are transform-free —
    an artifact would be built, cached and looked up for nothing.  A
    ``"udt"`` request is first checked against what it may ask (§3.3
    split safety, :data:`UDT_EXECUTABLE`), so a request the physical
    path cannot serve is rejected as before.
    """
    algorithm = request.algorithm
    if request.transform == "udt":
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
    return QueryPlan(algorithm=algorithm, transform="none", degree_bound=0)
