"""The shared pipeline, and what crosses to a process that runs it.

The dispatcher thread shares everything through memory; a process
place (a :class:`~repro.service.sharding.LocalHost`) shares *nothing*
implicitly, so this module defines exactly what crosses the boundary
and how each side rebuilds the rest:

* **down the socket** goes a :class:`BatchSpec` — a recipe (graph
  fingerprint + ``.npz`` path, algorithm, engine options,
  deduplicated sources, remaining deadline) framed as the
  host's ``run`` op.  Never a live :class:`~repro.graph.csr.CSRGraph`,
  never a catalog artifact: shipping megabytes of CSR per query
  would erase the win of leaving the GIL behind.
* **in the host process** lives a private memory-tier
  :class:`~repro.service.catalog.GraphCatalog` whose *disk tier is
  shared*: every host points at one spill directory, builds are
  written through immediately (file-locked, atomically renamed), and
  content-addressed keys make a sibling's artifact indistinguishable
  from your own.  A host's cold start is therefore one ``.npz``
  hydration per prepared graph, not a re-preparation.  Graphs hydrate
  the same way from a ``graphs/`` directory keyed by fingerprint
  (:func:`export_graph`) and are memoised per host.
* **back up the socket** comes the :class:`BatchOutcome`, its
  per-*unique-source* value arrays already projected to original node
  ids — the front-end fans them back out to each request's ticket
  (:func:`~repro.service.batching.fan_out_per_request`), so duplicate
  sources cost one row of IPC, not one per request.

:func:`execute_pipeline` — prepare, then run — is the *same function
the dispatcher thread runs*; the two places differ only in where it
executes and how its inputs arrive.  That is what the parity tests
pin: identical values from both, by construction.  No stage here
reads the transform a request names: the dispatcher admitted each
member (:func:`~repro.service.planner.plan_query`) before the batch
reached a place.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import ALGORITHMS, prepare_graph
from repro.graph.csr import CSRGraph
from repro.graph.io import save_npz
from repro.service.artifacts import ArtifactKey, TransformArtifact
from repro.service.batching import BatchExecution, run_sources_on_target
from repro.service.catalog import GraphCatalog, _spill_write_lock

#: a preparation step, shaped like :func:`prepare_with_origin`
Prepare = Callable[[CSRGraph, str], Tuple[CSRGraph, Optional[str]]]

#: test hook: a local host that sees this source in a spec calls
#: ``os._exit`` — the only way to exercise crash recovery without
#: depending on a real segfault.  Never set outside tests.
CRASH_SOURCE_ENV = "REPRO_SERVICE_CRASH_SOURCE"


# ----------------------------------------------------------------------
# What crosses the IPC boundary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSpec:
    """A recipe for one coalesced batch (framed by ``sharding.run_request``).

    Everything a local host needs to reproduce the thread backend's
    work item, with the graph passed by *reference* (fingerprint +
    file path) rather than by value.  ``remaining_s`` is the tightest
    member deadline measured at dispatch; only the dispatcher reads
    it, to bound how long it waits for the host.
    """

    graph_fingerprint: str
    graph_path: str
    algorithm: str
    options: object  # EngineOptions (a frozen dataclass of scalars)
    sources: Tuple[int, ...]
    remaining_s: float = float("inf")
    #: never read: kept while ``benchmarks/ledger/walk.py`` passes them
    transform: str = "none"
    degree_bound: int = 0


@dataclass(frozen=True)
class BatchOutcome:
    """What one executed batch produced, backend-agnostic.

    ``per_source`` maps each unique source (or ``-1`` for sourceless
    analytics) to a value array.  ``cache_hit`` is
    :func:`served_from_cache` over the origins of the catalog
    artifacts the batch read, and ``hydrate_hits`` counts the
    ``"disk"`` ones (prepared-graph ``.npz`` reads), the process
    backend's substitute for shared-memory cache hits.
    """

    per_source: Dict[int, np.ndarray]
    cache_hit: bool
    plan_s: float
    execute_s: float
    execution: BatchExecution
    hydrate_hits: int = 0
    #: set by the place walk when an earlier place was lost
    degraded: bool = False


def spec_nbytes(spec: BatchSpec) -> int:
    """Framed size of a spec's ``run`` request (half of IPC accounting)."""
    from repro.service.sharding import encode_frame, run_request  # imports this module

    return len(encode_frame(run_request(spec)))


# ----------------------------------------------------------------------
# The shared pipeline (every place prepares with, and two run, exactly this)
# ----------------------------------------------------------------------
def served_from_cache(origins: Sequence[str]) -> bool:
    """The ``cache_hit`` rule: every catalog artifact a batch read — the
    prepared graph, the shard set — came from memory or disk.  A batch
    that read none built nothing."""
    return all(origin in ("memory", "disk") for origin in origins)


def prepare_for_algorithm(
    catalog: GraphCatalog, graph: CSRGraph, algorithm: str
) -> CSRGraph:
    """:func:`prepare_with_origin` without the origin."""
    return prepare_with_origin(catalog, graph, algorithm)[0]


def prepare_with_origin(
    catalog: GraphCatalog, graph: CSRGraph, algorithm: str
) -> Tuple[CSRGraph, Optional[str]]:
    """Per-algorithm graph preparation, cached through ``catalog``.

    ``prepare_graph`` symmetrises for CC and strips weights for the
    unweighted analytics — O(|E|) work worth amortising across
    requests.  Prepared graphs are the catalog's ``kind="prepared"``
    artifacts, under its byte budget.  An input that needs no
    reshaping is passed through uncached, with origin ``None``;
    otherwise the origin is the catalog's (``"memory"``, ``"disk"`` or
    ``"built"``).
    """
    if not reshapes(graph, algorithm):
        return prepare_graph(graph, algorithm), None
    key = prepared_key(graph, algorithm)

    def build() -> TransformArtifact:
        start = time.perf_counter()
        prepared = prepare_graph(graph, algorithm)
        return TransformArtifact(
            key=key, payload=prepared,
            build_seconds=time.perf_counter() - start,
        )

    artifact, origin = catalog.get_for_key(key, build)
    return artifact.payload, origin


def reshapes(graph: CSRGraph, algorithm: str) -> bool:
    """Whether preparing ``graph`` for ``algorithm`` builds a new graph
    (a catalog artifact) rather than passing the input through."""
    spec = ALGORITHMS[algorithm]
    return spec.symmetrize or (not spec.weighted and graph.weights is not None)


def prepared_key(graph: CSRGraph, algorithm: str) -> ArtifactKey:
    """The catalog key ``algorithm``'s prepared form of ``graph`` lives under."""
    spec = ALGORITHMS[algorithm]
    return ArtifactKey.for_prepared(
        graph, symmetrize=spec.symmetrize, weighted=spec.weighted
    )


def execute_pipeline(
    catalog: GraphCatalog,
    graph: CSRGraph,
    *,
    algorithm: str,
    options,
    sources: Tuple[int, ...],
    prepare: Optional[Prepare] = None,
) -> BatchOutcome:
    """Prepare ``graph`` and execute one batch against ``catalog``.

    The place-independent core of the serving layer: the dispatcher
    thread calls it on the service's own catalog, a local host's ``run``
    op calls it on that host's catalog.  ``prepare`` overrides the
    preparation step (the executor passes its bound method so tests can
    intercept it); the default is :func:`prepare_with_origin`.
    """
    plan_start = time.perf_counter()
    if prepare is None:
        prepared, origin = prepare_with_origin(catalog, graph, algorithm)
    else:
        prepared, origin = prepare(graph, algorithm)
    origins = [origin] if origin is not None else []
    plan_s = time.perf_counter() - plan_start

    execute_start = time.perf_counter()
    per_source, execution = run_sources_on_target(
        algorithm, sources, options, prepared
    )
    execute_s = time.perf_counter() - execute_start

    return BatchOutcome(
        per_source=per_source,
        cache_hit=served_from_cache(origins),
        plan_s=plan_s,
        execute_s=execute_s,
        execution=execution,
        hydrate_hits=origins.count("disk"),
    )


# ----------------------------------------------------------------------
# Graph store: how graphs reach local hosts
# ----------------------------------------------------------------------
def export_graph(graph: CSRGraph, graphs_dir: str) -> str:
    """Publish ``graph`` to the shared store; returns its path.

    Content-addressed (fingerprint filename), written once: the write
    goes to a temp file and is renamed into place under the same
    advisory lock the catalog uses for spills, so concurrent services
    sharing a store never tear or duplicate the file.
    """
    path = os.path.join(graphs_dir, f"{graph.fingerprint()[:32]}.npz")
    if os.path.exists(path):
        return path
    os.makedirs(graphs_dir, exist_ok=True)
    with _spill_write_lock(path):
        if not os.path.exists(path):
            tmp = f"{path}.tmp-{os.getpid()}.npz"
            try:
                save_npz(graph, tmp)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    return path
