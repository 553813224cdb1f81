"""GraphCatalog: a shim that holds nothing.

Serving builds nothing per request — every analytic reads its graph or
the graph's memoised unweighted view, and cc is a union-find over the
CSR as it is — so there is nothing to cache.  The frozen benchmark
ledger (``benchmarks/ledger``) still constructs a catalog and hands it
to :class:`~repro.service.executor.AnalyticsService` and
:func:`~repro.service.workers.prepare_for_algorithm`; this class keeps
those calls working until the ledger's next revision drops them.
"""

from __future__ import annotations

from typing import Optional


class GraphCatalog:
    """Shim: accepts the ledger's arguments, holds and reads nothing."""

    def __init__(
        self, memory_budget_bytes: int = 0, *, policy: Optional[str] = None
    ) -> None:
        pass
