"""Admission check: whether a request may ask what it names.

Every plan serves the raw CSR whatever transform a request names (see
:func:`plan_query` for why), so the transform name is checked once,
per request, when a dispatcher claims it; no later stage carries it.
The request field keeps its values.

What a ``"udt"`` request may ask is a contract, checked with the
library's existing decision machinery rather than re-encoded:

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
    """What :func:`plan_query` returns: always the CSR plan.  Kept while
    ``benchmarks/ledger/walk.py`` reads it."""

    algorithm: str
    transform: str
    degree_bound: int

    @property
    def caches(self) -> bool:
        """Never: no plan builds a transform artifact."""
        return self.transform != "none"


def plan_query(request: QueryRequest, graph: CSRGraph) -> QueryPlan:
    """Admit ``request`` or raise; ``graph`` is not read.

    Every transform serves the CSR: the engine runs a batch on one
    core and every compiled kernel walks CSR rows in order, so a UDT
    or overlay balances nothing there, and answers are transform-free.
    A ``"udt"`` request is checked against what it may ask (§3.3
    split safety, :data:`UDT_EXECUTABLE`), so a request the physical
    path cannot serve is rejected.  The signature is kept while
    ``benchmarks/ledger/walk.py`` reads it.
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
