"""Multi-source analytics built on the lane-parallel engines.

Downstream adopters of a graph engine rarely stop at one traversal;
these helpers batch the paper's primitives into the derived analytics
practitioners actually ask for, all of them Tigr-schedulable because
they are compositions of the split-safe primitives:

* :func:`closeness_centrality` — harmonic closeness from per-source
  BFS/SSSP distances;
* :func:`approximate_bc` — Brandes BC estimated from sampled sources
  (the standard way full BC is made tractable, and what GPU BC
  evaluations like the paper's run per-source anyway);
* :func:`multi_source_distances` — a distance matrix slice for a set
  of sources.

Since the lane-parallel engine mode
(:func:`repro.engine.push.run_push_lanes`), a whole batch of sources
rides **one** traversal: values are an ``(n, S)`` matrix, the frontier
is the union of per-lane frontiers, and one edge gather serves every
lane.  Memory is ``O(n * S)``, so large source sets are processed in
*lane blocks* of at most :data:`DEFAULT_MAX_LANES` sources (see
``docs/multi-source.md`` for the heuristic).  Column ``k`` of a lane
run is bitwise-identical to the scalar run from ``sources[k]``, so
``mode="lanes"`` and ``mode="loop"`` return the exact same floats.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.algorithms._dispatch import Target, resolve_scheduler
from repro.algorithms.bc import bc, bc_lanes
from repro.algorithms.bfs import bfs
from repro.algorithms.programs import BFSProgram, SSSPProgram
from repro.algorithms.sssp import sssp
from repro.engine.push import EngineOptions, run_push_lanes
from repro.errors import EngineError

#: default lane-block width.  64 lanes keep the value matrix at
#: ``n * 512`` bytes — small next to the edge arrays for any graph
#: worth batching — and align with the 64-bit words of the bit-packed
#: BFS fast path (one word per node per block).
DEFAULT_MAX_LANES = 64

#: accepted execution modes for the multi-source helpers.
_MODES = ("auto", "lanes", "loop")


def _pick_sources(
    num_nodes: int,
    num_sources: Optional[int],
    sources: Optional[Sequence[int]],
    seed: Optional[int],
) -> np.ndarray:
    if sources is not None:
        picked = np.unique(np.asarray(sources, dtype=np.int64))
        if len(picked) and (picked.min() < 0 or picked.max() >= num_nodes):
            raise EngineError("source out of range")
        return picked
    if num_sources is None or num_sources >= num_nodes:
        return np.arange(num_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_nodes, size=num_sources, replace=False))


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise EngineError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def resolve_multisource_mode(
    *,
    algorithm: str,
    num_sources: int,
    num_edges: int,
    max_lanes: int = DEFAULT_MAX_LANES,
) -> str:
    """What ``mode="auto"`` will run: ``"lanes"`` or ``"loop"``.

    Asks the cost model's reference rates (:mod:`repro.engine.costmodel`)
    which strategy predicts cheaper for ``num_sources`` deduplicated
    sources on a graph of ``num_edges`` edges.  ``algorithm`` is the
    lane-cost family — ``"bfs"`` for unweighted hop counts (the
    bit-packed fast path), ``"sssp"`` for weighted float lanes.

    Public so the service batch planner can make the *same* choice it
    accounts for in metrics; both strategies return bitwise-identical
    floats, so this is purely a speed prediction.
    """
    from repro.engine import costmodel

    return costmodel.choose_multisource_mode(
        algorithm=algorithm,
        num_sources=num_sources,
        num_edges=num_edges,
        max_lanes=max_lanes,
    )


def lane_blocks(
    num_sources: int, max_lanes: int = DEFAULT_MAX_LANES
) -> Iterator[slice]:
    """Slices partitioning ``num_sources`` into lane-width blocks.

    The value matrix of a lane pass costs ``O(n * S)`` memory, so a
    large source set runs as several passes of at most ``max_lanes``
    lanes each — the lane-blocking heuristic of ``docs/multi-source.md``.
    """
    if max_lanes < 1:
        raise EngineError("max_lanes must be >= 1")
    for start in range(0, num_sources, max_lanes):
        yield slice(start, min(start + max_lanes, num_sources))


def multi_source_distances(
    target: Target,
    sources: Sequence[int],
    *,
    weighted: bool = True,
    options: EngineOptions = EngineOptions(),
    mode: str = "auto",
    max_lanes: int = DEFAULT_MAX_LANES,
) -> np.ndarray:
    """Distance rows for each source: shape ``(len(sources), n)``.

    Uses SSSP when ``weighted`` (requires edge weights), BFS hop
    counts otherwise.

    ``mode`` selects the execution strategy: ``"lanes"`` collapses the
    whole batch into lane-parallel passes (one traversal per
    ``max_lanes`` sources, duplicates deduplicated and sliced back),
    ``"loop"`` runs one scalar engine pass per listed source, and
    ``"auto"`` (default) asks the cost model
    (:func:`resolve_multisource_mode`) which strategy predicts
    cheaper — lane passes still deduplicate either way.  All modes
    return bitwise-identical floats.
    """
    _check_mode(mode)
    scheduler = resolve_scheduler(target)
    n = scheduler.graph.num_nodes
    if len(sources) == 0:
        return np.zeros((0, n))

    if mode == "loop":
        runner = sssp if weighted else bfs
        rows = []
        for source in sources:
            rows.append(runner(scheduler, int(source), options=options).values)
        return np.vstack(rows)

    requested = np.asarray(sources, dtype=np.int64)
    unique, inverse = np.unique(requested, return_inverse=True)
    if mode == "auto":
        mode = resolve_multisource_mode(
            algorithm="sssp" if weighted else "bfs",
            num_sources=len(unique),
            num_edges=scheduler.graph.num_edges,
            max_lanes=max_lanes,
        )
        if mode == "loop":
            # scalar passes over the *deduplicated* sources, mapped
            # back through ``inverse`` — duplicates still share a run,
            # and a single source reproduces the old tile shortcut
            runner = sssp if weighted else bfs
            rows = [
                runner(scheduler, int(source), options=options).values
                for source in unique
            ]
            return np.vstack(rows)[inverse]

    program = SSSPProgram() if weighted else BFSProgram()
    blocks = list(lane_blocks(len(unique), max_lanes))
    if len(blocks) == 1:
        matrix = run_push_lanes(
            scheduler, program, unique.tolist(), options=options
        ).values
    else:
        matrix = np.empty((n, len(unique)))
        for block in blocks:
            result = run_push_lanes(
                scheduler, program, unique[block].tolist(), options=options
            )
            matrix[:, block] = result.values
    # one row per *requested* source: duplicates share a lane's column.
    return _lane_rows(matrix, inverse)


#: node rows per tile of :func:`_lane_rows`' copy: a 512-row tile of up
#: to 64 lanes (256 KiB) and its transpose stay in cache together.
_TILE_ROWS = 512


def _lane_rows(matrix: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``matrix.T[inverse]`` in one cache-blocked copy.

    Gathering whole columns of a node-major ``(n, S)`` matrix strides
    ``8 * S`` bytes per element (at ``S = 64`` the 512-byte stride
    crowds every load into a few cache sets); tile by tile the reads
    and the writes both stay resident.  An identity ``inverse`` — deduplicated sources in
    order, as every service batch sends them — copies no gather.
    """
    n, width = matrix.shape
    identity = len(inverse) == width and bool(
        (inverse == np.arange(width)).all())
    columns = slice(None) if identity else inverse
    rows = np.empty((len(inverse), n))
    for lo in range(0, n, _TILE_ROWS):
        rows[:, lo:lo + _TILE_ROWS] = matrix[lo:lo + _TILE_ROWS, columns].T
    return rows


def closeness_centrality(
    target: Target,
    *,
    num_sources: Optional[int] = None,
    sources: Optional[Sequence[int]] = None,
    weighted: bool = False,
    seed: Optional[int] = 0,
    options: EngineOptions = EngineOptions(),
    mode: str = "auto",
    max_lanes: int = DEFAULT_MAX_LANES,
) -> np.ndarray:
    """Harmonic closeness: ``C(v) = sum over reached u of 1/d(u, v)``.

    Computed from traversals out of sampled sources (exact when all
    nodes are sources), then normalised by the sample fraction so the
    estimate is unbiased.  Harmonic (not classic) closeness is used
    because it is well-defined on disconnected graphs.

    The whole picked source set goes through
    :func:`multi_source_distances` in one call (lane-blocked
    traversals); rows are folded into the accumulator in source order,
    so the result is bitwise-identical to the historical per-source
    loop.
    """
    scheduler = resolve_scheduler(target)
    n = scheduler.graph.num_nodes
    picked = _pick_sources(n, num_sources, sources, seed)
    closeness = np.zeros(n)
    distances = multi_source_distances(
        scheduler, picked, weighted=weighted, options=options,
        mode=mode, max_lanes=max_lanes,
    )
    for dist in distances:
        reachable = np.isfinite(dist) & (dist > 0)
        contrib = np.zeros(n)
        np.divide(1.0, dist, out=contrib, where=reachable)
        closeness += contrib
    if len(picked) and len(picked) < n:
        closeness *= n / len(picked)
    return closeness


def approximate_bc(
    target: Target,
    *,
    num_sources: Optional[int] = None,
    sources: Optional[Sequence[int]] = None,
    seed: Optional[int] = 0,
    options: EngineOptions = EngineOptions(),
    mode: str = "auto",
    max_lanes: int = DEFAULT_MAX_LANES,
) -> np.ndarray:
    """Betweenness centrality from sampled Brandes sources.

    With all nodes as sources this is exact (matches
    :func:`repro.algorithms.reference.reference_bc` with
    ``source=None``); with a sample it is the standard unbiased
    estimator scaled by ``n / #samples``.

    ``mode="lanes"`` (or ``"auto"`` with more than one source) runs
    lane-blocked :func:`repro.algorithms.bc.bc_lanes` passes — both
    Brandes phases carry all lanes of a block at once — and folds the
    per-source columns in the same order the scalar loop would, so the
    two modes agree bitwise.
    """
    _check_mode(mode)
    scheduler = resolve_scheduler(target)
    n = scheduler.graph.num_nodes
    picked = _pick_sources(n, num_sources, sources, seed)
    centrality = np.zeros(n)
    if mode == "loop" or (mode == "auto" and len(picked) <= 1):
        for source in picked:
            centrality += bc(scheduler, int(source), options=options).centrality
    else:
        for block in lane_blocks(len(picked), max_lanes):
            columns = bc_lanes(scheduler, picked[block], options=options)
            for k in range(columns.shape[1]):
                centrality += columns[:, k]
    if len(picked) and len(picked) < n:
        centrality *= n / len(picked)
    return centrality
