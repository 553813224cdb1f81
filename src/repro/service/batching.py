"""Request batching: same-graph queries share one plan and one fan-out.

Serving traffic is dominated by *many sources on few graphs* (every
"distance from me" product query is the same graph with a different
root).  The batcher exploits that shape:

* requests agreeing on (graph content, algorithm, engine options)
  coalesce into one :class:`QueryBatch` — the transform a request
  names is checked at admission and serves the CSR either way, so it
  does not split a batch;
* sources are merged and **deduplicated** across the batch — two
  users asking for the same root pay for one traversal;
* the batch executes through the lane-parallel multi-source helpers
  (:mod:`repro.algorithms.multi_source`) on a *single* prepared
  graph: an entire batch of bfs/sssp sources collapses
  into **one** lane-parallel traversal (per block of
  :data:`~repro.algorithms.multi_source.DEFAULT_MAX_LANES` sources)
  whose distance matrix is sliced back per request;
* sourceless analytics (CC/PR) collapse even harder: the whole batch
  is one run whose result every member shares — for cc a union-find
  over the graph as it is (:func:`~repro.algorithms.cc.weak_components`),
  which builds no symmetrised copy.

:func:`run_sources_on_target` reports how much engine work actually ran
as a :class:`BatchExecution`, which the executor feeds to
``ServiceMetrics`` (``lanes_per_traversal``, ``traversals_saved``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS, run_algorithm, weak_components
from repro.algorithms._dispatch import resolve_scheduler
from repro.algorithms.multi_source import (
    DEFAULT_MAX_LANES,
    multi_source_distances,
    resolve_multisource_mode,
)
from repro.engine.push import EngineOptions
from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.service.query import QueryRequest

#: analytics whose fan-out goes through ``multi_source_distances``.
_DISTANCE_FANOUT = {"bfs": False, "sssp": True}  # name -> weighted flag


@dataclass
class QueryBatch:
    """A group of requests served by one prepared graph."""

    #: class attributes, not fields: every batch serves the CSR.  Kept
    #: while ``benchmarks/ledger/walk.py`` reads them.
    transform = "none"
    degree_bound = 0

    graph: CSRGraph
    algorithm: str
    options: EngineOptions
    requests: List[QueryRequest] = field(default_factory=list)
    #: origins of what places that passed or were lost read (cache_hit)
    passed_origins: List[str] = field(default_factory=list)

    @property
    def sources(self) -> Tuple[int, ...]:
        """Deduplicated, sorted union of member sources."""
        merged = sorted({s for req in self.requests for s in req.sources})
        return tuple(merged)

    @property
    def sources_deduped(self) -> int:
        """How many per-source runs dedup avoided."""
        return sum(len(r.sources) for r in self.requests) - len(self.sources)


def group_requests(
    requests: List[QueryRequest],
    resolve_graph: Callable[[QueryRequest], CSRGraph],
) -> List[QueryBatch]:
    """Partition requests into maximal batches, preserving order.

    Grouping is by graph *content* (fingerprint), so the same dataset
    registered under two names, or passed inline twice, still
    coalesces.  Requests differing in engine options land in separate
    batches; the transform and K a request names do not split one.
    """
    batches: Dict[tuple, QueryBatch] = {}
    for request in requests:
        graph = resolve_graph(request)
        for source in request.sources:
            if not 0 <= source < graph.num_nodes:
                raise ServiceError(
                    f"source {source} out of range for graph with "
                    f"{graph.num_nodes} nodes (request {request.request_id})"
                )
        key = (graph.fingerprint(), request.algorithm, request.options)
        batch = batches.get(key)
        if batch is None:
            batch = batches[key] = QueryBatch(
                graph=graph, algorithm=request.algorithm, options=request.options,
            )
        batch.requests.append(request)
    return list(batches.values())


@dataclass(frozen=True)
class BatchExecution:
    """Engine work one batch actually launched.

    ``traversals`` counts engine passes; ``lanes`` the per-source
    lanes those passes carried in total; ``traversals_saved`` the
    scalar passes lane batching avoided (``lanes - traversals`` when
    the lane engine ran, 0 for per-source fallbacks).  ``strategy``
    records what the planner actually chose — ``"lanes"`` or
    ``"loop"`` from the cost model for distance fan-outs,
    ``"per-source"`` / ``"shared"`` for the fixed shapes, ``"sharded"``
    from the shard tier — so metrics reflect the decision, not a guess
    (each names a ``strategy_*`` counter of :mod:`repro.service.metrics`).
    """

    traversals: int
    lanes: int
    traversals_saved: int
    strategy: str


def run_sources_on_target(
    algorithm: str,
    sources: Tuple[int, ...],
    options: EngineOptions,
    target,
) -> Tuple[Dict[int, np.ndarray], BatchExecution]:
    """Execute one batch's *unique* sources on a resolved engine target.

    The engine-facing half of batch execution, deliberately free of
    :class:`QueryRequest` bookkeeping so the whole unit crosses the
    process-backend IPC boundary as a plain ``(algorithm, sources,
    options)`` spec — the lane-parallel collapse happens wherever the
    engine runs, never per forwarded request.  Returns ``(source ->
    values, execution)`` with values in the *target's* node space;
    sourceless analytics return the shared array under key ``-1``.
    For bfs/sssp all sources ride **one** lane-parallel traversal per
    ``DEFAULT_MAX_LANES``-wide block.
    """
    per_source: Dict[int, np.ndarray] = {}
    if algorithm in _DISTANCE_FANOUT:
        # the planner resolves the cost model's lanes-vs-loop choice
        # *here*, then passes it down explicitly — execution and the
        # accounting below cannot diverge (sources are already the
        # batch's deduplicated union)
        scheduler = resolve_scheduler(target)
        num = len(sources)
        weighted = _DISTANCE_FANOUT[algorithm]
        mode = "loop" if num <= 1 else resolve_multisource_mode(
            algorithm="sssp" if weighted else "bfs",
            num_sources=num,
            num_edges=scheduler.graph.num_edges,
        )
        rows = multi_source_distances(
            scheduler,
            list(sources),
            weighted=weighted,
            options=options,
            mode=mode,
        )
        per_source = {source: rows[i] for i, source in enumerate(sources)}
        traversals = (
            math.ceil(num / DEFAULT_MAX_LANES) if mode == "lanes" else num
        )
        execution = BatchExecution(
            traversals=traversals, lanes=num,
            traversals_saved=num - traversals,
            strategy=mode,
        )
    elif ALGORITHMS[algorithm].needs_source:  # sswp, bc: per-source engine runs
        for source in sources:
            values, _ = run_algorithm(target, algorithm, source, options)
            per_source[source] = values
        execution = BatchExecution(
            traversals=len(sources), lanes=len(sources), traversals_saved=0,
            strategy="per-source",
        )
    else:  # cc, pr: one run shared by the whole batch
        per_source[-1] = (
            weak_components(target, options=options) if algorithm == "cc"
            else run_algorithm(target, algorithm, None, options)[0])
        execution = BatchExecution(
            traversals=1, lanes=1, traversals_saved=0, strategy="shared",
        )
    return per_source, execution


def fan_out_per_request(
    requests: List[QueryRequest], per_source: Dict[int, np.ndarray]
) -> Dict[int, Dict[int, np.ndarray]]:
    """Map deduplicated per-source arrays back onto each request.

    The front-end half of batch execution: each request receives a
    view of exactly the sources it asked for (or the shared ``-1``
    array for sourceless analytics).  Rows are shared, not copied —
    two requests for one root reference one array.
    """
    out: Dict[int, Dict[int, np.ndarray]] = {}
    for request in requests:
        if request.sources:
            out[request.request_id] = {s: per_source[s] for s in request.sources}
        else:
            out[request.request_id] = {-1: per_source[-1]}
    return out

