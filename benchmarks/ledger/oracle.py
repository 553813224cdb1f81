"""Correctness oracle: expected answers computed in-process.

Expected values come from ``AnalyticsService(workers=1,
backend="threads")`` pinned to the ``numpy`` kernel backend, one
single-source request at a time, under the *same requested transform*
as the traffic — the ADD-reduction analytics (bc, pr) sum in the
overlay's edge order, so a raw-CSR oracle would digest differently.
The monotone analytics (bfs/sssp/sswp/cc) are transform-invariant and
are additionally cross-checked against ``transform="none"``.

Multi-source lines are composed from the per-source arrays, so the
oracle's cost is bounded by the seeded source pool, not by the number
of distinct requests.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.push import EngineOptions
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    QueryResult,
    result_digest,
)

from workloads import Request

TRANSFORM_INVARIANT = ("bfs", "sssp", "sswp", "cc")
_ORACLE_OPTIONS = EngineOptions(kernel_backend="numpy")

#: (graph, algorithm, transform, k, source) with -1 for sourceless.
_ValueKey = Tuple[str, str, str, int, int]


class OracleError(RuntimeError):
    """The oracle could not produce or cross-check an expected answer."""


class Oracle:
    def __init__(self, graphs: Dict[str, object]) -> None:
        self._graphs = graphs
        self._values: Dict[_ValueKey, np.ndarray] = {}
        self._digests: Dict[Request, str] = {}

    def expect(self, requests: Iterable[Request]) -> None:
        """Precompute the answer of every distinct request."""
        needed: List[_ValueKey] = []
        seen = set(self._values)
        for request in set(requests):
            for source in request.sources or (-1,):
                key = (request.graph, request.algorithm, request.transform,
                       request.k, source)
                if key not in seen:
                    seen.add(key)
                    needed.append(key)
        if not needed:
            return
        catalog = GraphCatalog(memory_budget_bytes=1 << 40)
        with AnalyticsService(catalog, workers=1, backend="threads") as service:
            for name, graph in self._graphs.items():
                service.register(name, graph)
            raw: Dict[Tuple[str, str, int], np.ndarray] = {}
            for key in sorted(needed):
                graph, algorithm, transform, k, source = key
                values = self._run(service, graph, algorithm, transform, k, source)
                if algorithm in TRANSFORM_INVARIANT and transform != "none":
                    raw_key = (graph, algorithm, source)
                    if raw_key not in raw:
                        raw[raw_key] = self._run(
                            service, graph, algorithm, "none", 0, source
                        )
                    if not np.array_equal(values, raw[raw_key]):
                        raise OracleError(
                            f"oracle cross-check failed: {algorithm} on {graph} "
                            f"source {source} differs between {transform} "
                            f"K={k} and the raw CSR"
                        )
                self._values[key] = values

    @staticmethod
    def _run(service, graph, algorithm, transform, k, source) -> np.ndarray:
        result = service.run(QueryRequest(
            algorithm=algorithm, graph=graph,
            sources=() if source < 0 else (source,),
            transform=transform, degree_bound=k or None,
            options=_ORACLE_OPTIONS,
        ))
        if not result.ok:
            raise OracleError(f"oracle run failed: {result.error}")
        return result.values[source]

    def values(self, request: Request) -> Dict[int, np.ndarray]:
        return {
            source: self._values[(request.graph, request.algorithm,
                                  request.transform, request.k, source)]
            for source in request.sources or (-1,)
        }

    def digest(self, request: Request) -> str:
        """The trace-v1 digest the server must return for ``request``."""
        digest = self._digests.get(request)
        if digest is None:
            digest = self._digests[request] = result_digest(QueryResult(
                request_id=0, algorithm=request.algorithm,
                values=self.values(request), transform="", degree_bound=0,
            ))
        return digest

    def check(
        self, request: Request, raw: bytes, *, with_values: bool = False
    ) -> Optional[str]:
        """``None`` when ``raw`` is the right answer, else what is wrong."""
        try:
            payload = json.loads(raw)
        except ValueError:
            return f"non-JSON answer {raw[:80]!r}"
        if not isinstance(payload, dict) or payload.get("type") != "result":
            return f"not a result line: {raw[:120]!r}"
        if not payload.get("ok"):
            return f"ok=false: {payload.get('error')}"
        expected = self.digest(request)
        if payload.get("digest") != expected:
            return f"digest {payload.get('digest')} != expected {expected}"
        if with_values:
            return self._check_values(request, payload.get("values"))
        return None

    def _check_values(self, request: Request, got) -> Optional[str]:
        if not isinstance(got, dict):
            return "include_values answer carries no values"
        for source, expected in self.values(request).items():
            column = got.get(str(source))
            if column is None or len(column) != len(expected):
                return f"values[{source}] missing or wrong length"
            actual = np.array(
                [math.inf if v is None else v for v in column], dtype=np.float64
            )
            # infinities (unreached) travel as null; everything else
            # must round-trip through JSON bit for bit
            want = np.asarray(expected, dtype=np.float64)
            want = np.where(np.isfinite(want), want, math.inf)
            if not np.array_equal(actual, want):
                return f"values[{source}] differ from the oracle"
        return None
