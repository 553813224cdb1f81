"""The shared pipeline, and what crosses to a process that runs it.

The dispatcher thread shares everything through memory; a process
place (a :class:`~repro.service.sharding.LocalHost`) shares *nothing*
implicitly, so this module defines exactly what crosses the boundary
and how each side rebuilds the rest:

* **down the socket** goes a :class:`BatchSpec` — a recipe (graph
  fingerprint + ``.npz`` path, algorithm, engine options,
  deduplicated sources, remaining deadline) framed as the
  host's ``run`` op.  Never a live :class:`~repro.graph.csr.CSRGraph`:
  shipping megabytes of CSR per query would erase the win of leaving
  the GIL behind.
* **in the host process** graphs load from a store directory keyed
  by fingerprint (:func:`export_graph`) and are memoised per host;
  preparation builds nothing, so nothing else is kept.
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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

try:  # POSIX advisory locks; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.algorithms import ALGORITHMS, prepare_graph
from repro.graph.csr import CSRGraph
from repro.graph.io import save_npz
from repro.service.batching import BatchExecution, run_sources_on_target

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
    analytics) to a value array.
    """

    per_source: Dict[int, np.ndarray]
    plan_s: float
    execute_s: float
    execution: BatchExecution
    #: set by the place walk when an earlier place was lost
    degraded: bool = False


def spec_nbytes(spec: BatchSpec) -> int:
    """Framed size of a spec's ``run`` request (half of IPC accounting)."""
    from repro.service.sharding import encode_frame, run_request  # imports this module

    return len(encode_frame(run_request(spec)))


# ----------------------------------------------------------------------
# The shared pipeline (every place prepares with, and two run, exactly this)
# ----------------------------------------------------------------------
def prepare(graph: CSRGraph, algorithm: str) -> CSRGraph:
    """Per-algorithm graph preparation, which builds nothing.

    Every analytic reads ``graph`` or its memoised unweighted view —
    cc too: serving's cc is a union-find over the CSR as it is
    (:func:`~repro.algorithms.cc.weak_components`), not propagation
    over a symmetrised copy.
    """
    if ALGORITHMS[algorithm].symmetrize:
        return graph.without_weights()
    return prepare_graph(graph, algorithm)


def prepare_for_algorithm(catalog: object, graph: CSRGraph, algorithm: str) -> CSRGraph:
    """Shim: :func:`prepare`, with the ``catalog`` the frozen benchmark
    ledger passes (:class:`~repro.service.catalog.GraphCatalog`), unread."""
    return prepare(graph, algorithm)


def execute_pipeline(
    graph: CSRGraph,
    *,
    algorithm: str,
    options,
    sources: Tuple[int, ...],
) -> BatchOutcome:
    """Prepare ``graph`` and execute one batch on it.

    The place-independent core of the serving layer: the dispatcher
    thread calls it, and so does a local host's ``run`` op.
    """
    plan_start = time.perf_counter()
    prepared = prepare(graph, algorithm)
    plan_s = time.perf_counter() - plan_start

    execute_start = time.perf_counter()
    per_source, execution = run_sources_on_target(
        algorithm, sources, options, prepared
    )
    execute_s = time.perf_counter() - execute_start

    return BatchOutcome(
        per_source=per_source,
        plan_s=plan_s,
        execute_s=execute_s,
        execution=execution,
    )


# ----------------------------------------------------------------------
# Graph store: how graphs reach local hosts
# ----------------------------------------------------------------------
def export_graph(graph: CSRGraph, graphs_dir: str) -> str:
    """Publish ``graph`` to the shared store; returns its path.

    Content-addressed (fingerprint filename), written once: the write
    goes to a temp file and is renamed into place under an advisory
    lock (:func:`_store_write_lock`), so concurrent services sharing a
    store never tear or duplicate the file.
    """
    path = os.path.join(graphs_dir, f"{graph.fingerprint()[:32]}.npz")
    if os.path.exists(path):
        return path
    os.makedirs(graphs_dir, exist_ok=True)
    with _store_write_lock(path):
        if not os.path.exists(path):
            tmp = f"{path}.tmp-{os.getpid()}.npz"
            try:
                save_npz(graph, tmp)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    return path


@contextmanager
def _store_write_lock(path: str):
    """Advisory cross-process lock for one store file's writers.

    Lives beside the file as ``<name>.lock`` (the file itself cannot be
    locked — it is replaced by rename, which would orphan the lock).
    Downgrades to a no-op where ``fcntl`` is unavailable; the
    atomic-rename write keeps that safe, merely allowing duplicate work.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(path + ".lock", "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
