"""Compiled kernels behind the PushProgram API.

The engines' hot path is always the same shape: gather each active
thread's edges, relax along every edge, and scatter-reduce candidates
into destination values.  The numpy *fallback* realises that shape
with several full-edge-array temporaries per launch
(``edge_indices``, ``sources_per_edge``, the gathered source values,
the relax result) before ``ufunc.at`` even runs.  A compiled kernel
makes one pass over the active rows with zero temporaries; the push
superstep (``push_step``) also returns the changed destinations — the
next frontier.  The lane supersteps (``push_lanes_step``, ``hop_step``)
do the same for ``S`` sources at once, lanes innermost.  Each of the
three MIN/MAX supersteps is also called in a loop by a ``*_run``
(``push_run``, ``push_lanes_run``, ``hop_run``): the whole fixpoint as
one call, by the engine loop's own rules.  The two ADD-reduction
analytics run whole as well: ``bc_run`` is Brandes' forward levels and
then its backward levels, and ``rank_run`` PageRank's loop, gathering
by destination over the transpose ``rank_layout`` builds once per run
(a shard gathers its slice with ``rank_gather``, once per iteration).
Serving's cc is no superstep at all: ``components`` is a union-find
over the CSR's edges, direction ignored, whose labels equal min-label
propagation's over the symmetrised graph.  Every kernel walks each active node's CSR row in order, whatever the
scheduler's ``batch()`` order (the coalesced strides of ``virtual+`` and
Maximum Warp are a GPU remedy).  Values are **bitwise identical**: an
ADD loop adds each row's terms in CSR order, as the numpy bodies fold
them, and sums as numpy's pairwise ``add.reduce`` does; a MIN/MAX step
relaxes in place and reaches the same fixpoint.

A kernel is declared once, by its C function's prototype in
:data:`_C_UNITS` (the ctypes signature is parsed from it), and served
by one ``try_*`` hook on :class:`KernelBackend`, which asks
:meth:`~KernelBackend.function` for it, gates the arguments and calls
it; on a decline the step class runs its numpy body.  ``numpy`` has no
kernels: every hook declines, uncounted, and the canonical numpy path
runs.  ``cjit`` compiles each C unit with the system C compiler into
its own shared library, cached on disk under
:func:`repro.engine.costmodel.cache_dir`, the first time one of its
kernels is asked for, and calls it through :mod:`ctypes`.  The spec
the C transliterates, one plain loop per C function, lives in
``tests/kernel_reference.py``, served through these same hooks.

Backend choice is per engine run: ``EngineOptions.kernel_backend``
wins, else ``$REPRO_KERNEL_BACKEND``, else ``"auto"`` — which asks
the cost model (:mod:`repro.engine.costmodel`) whether the graph is
big enough for a JIT kernel to pay for its call overhead.

Safety gates (any failure falls back to numpy, never errors):

* the program's (relax, reduce) pair must be certified by
  :data:`repro.core.applicability.PROGRAM_EXPECTATIONS` — the same
  table ``repro analyze`` diffs against the source (SPLIT001–006),
  so a program whose relax body drifted from its declared class is
  caught *statically* before a fused kernel could disagree with it;
* the program must not override ``filter_pushes`` or ``lane_relax``
  (a fused kernel cannot honor arbitrary Python hooks);
* arrays must be C-contiguous ``float64``/``int64`` (``uint64`` hop
  masks, one word per node); the kernels need a
  :attr:`~repro.engine.schedule.Scheduler.walkable` scheduler, so
  warp-segmentation and observed launches decline;
* the read array must not alias the write array (the numpy body's
  ``sync_relaxation_blocks`` model is the only caller that passes one);
* ``rank_run``'s two sums must be this process's numpy's, probed once
  per backend on the first call.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import shutil
import subprocess
import threading
import warnings
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.applicability import PROGRAM_EXPECTATIONS
from repro.engine.program import PushProgram
from repro.errors import EngineError

#: relax-body codes shared by every compiled backend (and the spec
#: kernels in ``tests/kernel_reference.py``).
RELAX_ADDITIVE = 0     # c = src + w   (w = 1.0 on unweighted graphs)
RELAX_WIDEST = 1       # c = min(src, w)
RELAX_PROPAGATION = 2  # c = src

#: reduction codes (the push supersteps fold MIN or MAX only).
REDUCE_MIN = 0
REDUCE_MAX = 1

_RELAX_CODES = {
    "additive": RELAX_ADDITIVE,
    "widest_path": RELAX_WIDEST,
    "propagation": RELAX_PROPAGATION,
}
_REDUCE_CODES = {"min": REDUCE_MIN, "max": REDUCE_MAX}

#: ``LANE_BITS[k]`` is lane ``k``'s bit in a packed hop-mask word.
LANE_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: node counts whose padding id ``n`` PageRank's ``int32`` layout cannot hold.
ID_LIMIT = 2**31 - 1


class KernelSpec(NamedTuple):
    """A fusable (relax-class, reduction) pair in code form."""

    relax: int
    reduce: int

    @property
    def needs_weights(self) -> bool:
        return self.relax == RELAX_WIDEST


def spec_for(program: PushProgram) -> Optional[KernelSpec]:
    """The compiled-kernel spec for a program, or ``None``.

    Derived from the applicability table — the single source of truth
    the static analyzer certifies against the relax body — and gated
    on the program not overriding the hooks a fused kernel cannot
    reproduce.  Only MIN/MAX programs have one (PageRank's ADD runs
    ``RankStep``).  ``None`` means "run the numpy path"; it is never an
    error.
    """
    expectation = PROGRAM_EXPECTATIONS.get(program.name)
    if expectation is None:
        return None
    if program.reduce.value != expectation.reduce_op:
        return None  # drifted from the table; analyzer flags it too
    if type(program).filter_pushes is not PushProgram.filter_pushes:
        return None
    if type(program).lane_relax is not PushProgram.lane_relax:
        return None
    relax = _RELAX_CODES.get(expectation.relax_class)
    reduce_ = _REDUCE_CODES.get(expectation.reduce_op)
    if relax is None or reduce_ is None:
        return None
    return KernelSpec(relax, reduce_)


# ----------------------------------------------------------------------
# The hooks, and the backends by name
# ----------------------------------------------------------------------
def _i64(a: np.ndarray) -> bool:
    return a.dtype == np.int64 and a.flags.c_contiguous


def _f64(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def _u64(a: np.ndarray) -> bool:
    return a.dtype == np.uint64 and a.flags.c_contiguous


def _i32(a: np.ndarray) -> bool:
    return a.dtype == np.int32 and a.flags.c_contiguous


def _floats(n: int, *arrays: np.ndarray) -> bool:
    """Distinct C-contiguous ``float64`` arrays of shape ``(n,)``."""
    return (len({id(a) for a in arrays}) == len(arrays)
            and all(_f64(a) and a.shape == (n,) for a in arrays))


#: the empty frontier (what a whole-graph walk hands ``_gate_walk``).
_NO_IDS = np.empty(0, dtype=np.int64)


def _counted(hook):
    """Count a JIT backend's hook outcome under its lock (hooks run on
    worker threads plus one per shard; a bare ``+=`` loses updates).
    The numpy backend has no kernels, so it counts nothing."""

    @functools.wraps(hook)
    def counted(self, *args, **kwargs):
        result = hook(self, *args, **kwargs)
        if self.jit:
            with self._lock:
                if result is None or result is False:
                    self.declined += 1
                else:
                    self.engaged += 1
        return result

    return counted


class KernelBackend:
    """Where the engines offer their launches to compiled kernels.

    Each ``try_*`` hook mirrors one engine call site: it asks
    :meth:`function` for its kernel, admits the arguments through its
    gate and calls the kernel with its C prototype's arguments
    (``None`` for NULL), returning ``True`` (or the step's result).  No
    kernel, or any gate failing, returns ``False`` (``None``) and the
    engine runs its numpy body — so a backend can never change values,
    only speed.  Argument arrays are the engine's own (full
    ``targets``/``weights`` arrays, per-batch descriptor arrays); a
    kernel writes only destination values and the scratch it is given.
    The base class *is* the ``numpy`` backend: it has no kernels.
    """

    name = "numpy"
    #: whether this backend runs kernels (and counts its launches).
    jit = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: launches handled by compiled kernels (parity tests assert
        #: the fused path actually engaged).
        self.engaged = 0
        #: launches a JIT backend was offered and left to numpy.
        self.declined = 0
        #: whether ``rank_run`` sums as numpy does (probed on first use)
        self._numpy_sums: Optional[bool] = None

    def is_available(self) -> bool:
        return True

    def availability_note(self) -> str:
        """Human-readable reason when :meth:`is_available` is False."""
        return "always available"

    def function(self, name: str):
        """The kernel of C function ``name`` (see :data:`_C_UNITS`),
        called with its prototype's arguments; ``None``: numpy has none."""
        return None

    # -- gates ----------------------------------------------------------
    @staticmethod
    def _gate_values(spec, values, read_values, weights) -> bool:
        if values is read_values:
            # sync_relaxation_blocks' blocked order: the numpy body's
            return False
        if not (_f64(values) and _f64(read_values)):
            return False
        if weights is None:
            return not spec.needs_weights
        return _f64(weights)

    @staticmethod
    def _gate_walk(active, offsets, targets, scratch=None) -> int:
        """The node count once everything a compiled walk dereferences
        is sized and bounded, else ``-1`` (``offsets`` is ``None`` for
        an unwalkable scheduler)."""
        if offsets is None:
            return -1
        n = len(offsets) - 1
        if not (_i64(active) and _i64(offsets) and _i64(targets)):
            return -1
        if scratch is not None:
            mark, changed = scratch[:2]
            if not (mark.dtype == np.uint8 and mark.shape == (n,)
                    and _i64(changed) and changed.shape == (n + 1,)):
                return -1
        if len(active) and (active.min() < 0 or active.max() >= n):
            return -1
        return n

    def _gate_step(self, spec, out, read, active, offsets, targets, weights,
                   scratch) -> bool:
        """Admission checks for :meth:`try_push_step`."""
        n = self._gate_walk(active, offsets, targets, scratch)
        return (spec is not None and n >= 0
                and out.shape == read.shape == (n,)
                and self._gate_values(spec, out, read, weights))

    def _gate_lanes(self, spec, out, read, active, offsets, targets, weights,
                    scratch) -> bool:
        """Admission checks for :meth:`try_lane_step`."""
        n = self._gate_walk(active, offsets, targets, scratch)
        if spec is None or n < 0:
            return False
        live = scratch[2]
        return (live.dtype == np.uint8 and live.ndim == 1 and len(live) > 0
                and out.shape == read.shape == (n, len(live))
                and self._gate_values(spec, out, read, weights))

    def _gate_hops(self, new_w, frontier_w, visited, values, active, offsets,
                   targets, scratch) -> bool:
        """Admission checks for :meth:`try_hop_step`: three distinct
        single-word mask arrays and at most 64 lanes to stamp."""
        n = self._gate_walk(active, offsets, targets, scratch)
        return (n >= 0 and _u64(new_w) and _u64(frontier_w) and _u64(visited)
                and new_w.shape == frontier_w.shape == visited.shape == (n,)
                and new_w is not frontier_w and new_w is not visited
                and frontier_w is not visited
                and _f64(values) and values.ndim == 2
                and values.shape[0] == n and 0 < values.shape[1] <= 64)

    def _gate_bc(self, levels, order, source, offsets, targets, *floats) -> bool:
        """Admission checks for :meth:`try_bc_run` (``order`` is scratch:
        its contents are never read before they are written)."""
        n = self._gate_walk(_NO_IDS, offsets, targets)
        return (0 <= source < n and _i64(levels) and _i64(order)
                and levels.shape == order.shape == (n,) and levels is not order
                and _floats(n, *floats))

    @staticmethod
    def _gate_rank(rank, inv_deg, layout, scratch, *floats) -> bool:
        """Admission checks for :meth:`try_rank_gather` and :meth:`try_rank_run`:
        ``layout`` is :meth:`try_rank_layout`'s (ids in range), ``x`` holds ``x[n]``."""
        if layout is None:
            return False
        (perm, chunk, cols), (x, contrib), n = layout, scratch, len(rank)
        return (_i32(perm) and perm.shape == (n,) and _i64(chunk) and _i32(cols)
                and chunk.shape == ((n + 7) // 8 + 1,) and _f64(x)
                and x.shape == (n + 1,) and _floats(n, rank, inv_deg, contrib, *floats))

    def _sums_agree(self, fn) -> bool:
        """Whether ``rank_run``'s two sums are this process's numpy's,
        probed on the first call (:func:`_rank_sums_match_numpy`)."""
        if self._numpy_sums is None:
            self._numpy_sums = _rank_sums_match_numpy(fn)
        return self._numpy_sums

    # -- hooks ----------------------------------------------------------
    def _walk(self, fn, spec, out, read, active, offsets, targets, weights,
              scratch, *lane_args):
        """Call one of the two value supersteps (they share a prefix)
        -> ``(sorted changed ids, stats)``."""
        mark, changed = scratch[:2]
        stats = (ctypes.c_int64 * 2)()
        kept = fn(
            out, read, active, len(active), offsets, targets, weights, mark,
            changed, stats, weights is not None, spec.relax, spec.reduce,
            *lane_args,
        )
        return np.sort(changed[:kept]), stats

    @_counted
    def try_push_step(self, spec, out, read, active, offsets, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int]]:
        """One whole :class:`~repro.engine.push.PushStep`: ``(sorted
        changed ids, edges)``, or ``None`` to decline."""
        fn = self.function("push_step")
        if fn is None or not self._gate_step(
                spec, out, read, active, offsets, targets, weights, scratch):
            return None
        changed, stats = self._walk(
            fn, spec, out, read, active, offsets, targets, weights, scratch)
        return changed, stats[0]

    @_counted
    def try_lane_step(self, spec, out, read, active, offsets, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int, int]]:
        """One float-lane :class:`~repro.engine.push.LaneStep` over
        ``(n, S)`` matrices, ``read`` rows committed: ``(sorted changed
        ids, edges, lanes that changed)``, or ``None`` to decline."""
        fn = self.function("push_lanes_step")
        if fn is None or not self._gate_lanes(
                spec, out, read, active, offsets, targets, weights, scratch):
            return None
        changed, stats = self._walk(fn, spec, out, read, active, offsets, targets,
                                    weights, scratch, out.shape[1], scratch[2])
        return changed, stats[0], stats[1]

    @_counted
    def try_hop_step(self, new_w, frontier_w, visited, values, level, active,
                     offsets, targets, scratch,
                     ) -> Optional[Tuple[np.ndarray, int, int]]:
        """One bit-packed hop level of a ``LaneStep`` (same result)."""
        fn = self.function("hop_step")
        if fn is None or not self._gate_hops(
                new_w, frontier_w, visited, values, active, offsets, targets, scratch):
            return None
        mark, changed = scratch[:2]
        stats = (ctypes.c_int64 * 2)()
        kept = fn(new_w, frontier_w, visited, values, values.shape[1], level,
                  active, len(active), offsets, targets, mark, changed, stats)
        return np.sort(changed[:kept]), stats[0], stats[1]

    @staticmethod
    def _run_scratch(active, n):
        """A ``*_run``'s own frontier buffer — ``n + 1`` ids, ``active``
        first (at most ``n``: a frontier repeats none) — and stats."""
        frontier = np.empty(n + 1, dtype=np.int64)
        frontier[:len(active)] = active
        return frontier, (ctypes.c_int64 * 4)()

    @_counted
    def try_push_run(self, spec, out, read, active, offsets, targets, weights,
                     scratch, max_iterations, dense_threshold,
                     ) -> Optional[Tuple[bool, int, int, int, int]]:
        """A whole MIN/MAX :func:`~repro.engine.push.run_push` loop from
        ``active``, ``read`` committed: ``(converged, iterations, edges,
        dense iterations, lane iterations)``, or ``None`` to decline."""
        fn = self.function("push_run")
        if fn is None or len(active) > len(out) or not self._gate_step(
                spec, out, read, active, offsets, targets, weights, scratch):
            return None
        frontier, stats = self._run_scratch(active, len(out))
        converged = fn(out, read, frontier, len(active), offsets, targets,
                       weights, *scratch[:2], stats, weights is not None,
                       spec.relax, spec.reduce, len(out), max_iterations,
                       dense_threshold)
        return (bool(converged), *stats)

    @_counted
    def try_lane_run(self, spec, out, read, active, offsets, targets, weights,
                     scratch, max_iterations, dense_threshold,
                     ) -> Optional[Tuple[bool, int, int, int, int]]:
        """A whole float-lane :func:`~repro.engine.push.run_push_lanes`
        loop (same result)."""
        fn = self.function("push_lanes_run")
        if fn is None or len(active) > len(out) or not self._gate_lanes(
                spec, out, read, active, offsets, targets, weights, scratch):
            return None
        frontier, stats = self._run_scratch(active, len(out))
        converged = fn(out, read, frontier, len(active), offsets, targets,
                       weights, *scratch[:2], stats, weights is not None,
                       spec.relax, spec.reduce, out.shape[1], scratch[2],
                       len(out), max_iterations, dense_threshold)
        return (bool(converged), *stats)

    @_counted
    def try_hop_run(self, new_w, frontier_w, visited, values, level, active,
                    offsets, targets, scratch, max_iterations, dense_threshold,
                    ) -> Optional[Tuple[bool, int, int, int, int]]:
        """The bit-packed hop levels of ``run_push_lanes`` after
        ``level`` (same result)."""
        fn = self.function("hop_run")
        if fn is None or len(active) > len(values) or not self._gate_hops(
                new_w, frontier_w, visited, values, active, offsets, targets,
                scratch):
            return None
        frontier, stats = self._run_scratch(active, len(values))
        converged = fn(new_w, frontier_w, visited, values, values.shape[1],
                       level, frontier, len(active), offsets, targets,
                       *scratch[:2], stats, len(values), max_iterations,
                       dense_threshold)
        return (bool(converged), *stats)

    @_counted
    def try_bc_run(self, levels, sigma, delta, order, source, offsets, targets,
                   max_iterations, dense_threshold,
                   ) -> Optional[Tuple[int, int]]:
        """A whole :func:`~repro.algorithms.bc.bc` run from ``source``
        (``levels``, ``sigma`` and ``delta`` initialised): the forward
        levels, then the backward levels deepest-first, each level's
        sorted frontier kept in ``order``.  ``(iterations, edges)``, or
        ``None`` to decline."""
        fn = self.function("bc_run")
        if fn is None or not self._gate_bc(levels, order, source, offsets, targets,
                                           sigma, delta):
            return None
        stats = (ctypes.c_int64 * 2)()
        fn(levels, sigma, delta, order, source, offsets, targets, len(levels),
           max_iterations, dense_threshold, stats)
        return stats[0], stats[1]

    @_counted
    def try_rank_layout(self, offsets, targets) -> Optional[Tuple[np.ndarray, ...]]:
        """``(perm, chunk, cols)``: the graph's transpose as
        :meth:`try_rank_gather` and :meth:`try_rank_run` read it."""
        fn = self.function("rank_layout")
        n = -1 if fn is None else self._gate_walk(_NO_IDS, offsets, targets)
        if n < 0 or n >= ID_LIMIT or offsets[n] != len(targets):
            return None
        # room for in-degrees up to n (no parallel edges) or E; past it the
        # kernel returns the top one negated
        room, used = min(n, len(targets)), -1
        while used < 0:
            perm, chunk, cols = (np.empty(n, np.int32), np.empty((n + 7) // 8 + 1, np.int64),
                                 np.empty(len(targets) + 7 * room, np.int32))
            used = fn(offsets, targets, n, room, np.zeros(n, np.int64),
                      np.zeros(room + 1, np.int64), perm, chunk, cols)
            room = -used
        cols.resize(used, refcheck=False)  # only this array holds it
        return perm, chunk, cols

    @_counted
    def try_symmetrize(self, offsets, targets, weighted_order,
                       ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``to_undirected``'s ``(offsets, targets)`` for a weighted (``weighted_order``)
        or an unweighted input, exactly sized; ``None`` to decline."""
        fn = self.function("symmetrize")
        n = -1 if fn is None else self._gate_walk(_NO_IDS, offsets, targets)
        m = len(targets)
        if n < 0 or offsets[n] != m:
            return None
        sym_off, sym = np.empty(n + 1, np.int64), np.empty(2 * m, np.int64)
        first = (np.empty(n + 1, np.int64), np.empty(2 * m, np.int64)) if (
            weighted_order) else (sym_off, sym)
        used = fn(offsets, targets, n, bool(weighted_order), np.empty(n + 1, np.int64),
                  np.empty(m, np.int64), np.empty(n, np.int64), *first, sym_off, sym)
        sym.resize(used, refcheck=False)  # only this array holds it
        return sym_off, sym

    @_counted
    def try_components(self, offsets, targets) -> Optional[np.ndarray]:
        """The weak components of a CSR, edge direction ignored: each
        node's component's least id as ``float64`` labels, or ``None``
        to decline."""
        fn = self.function("components")
        n = -1 if fn is None else self._gate_walk(_NO_IDS, offsets, targets)
        if n < 0 or offsets[n] != len(targets):
            return None
        labels = np.empty(n)
        fn(offsets, targets, n, np.empty(n, np.int64), labels)
        return labels

    @_counted
    def try_rank_gather(self, rank, inv_deg, layout, scratch) -> bool:
        """One :class:`~repro.engine.rank.RankStep` gather: ``rank *
        inv_deg`` over ``layout`` into ``scratch``'s ``contrib``."""
        fn = self.function("rank_gather")
        if fn is None or not self._gate_rank(rank, inv_deg, layout, scratch):
            return False
        fn(rank, inv_deg, *scratch, *layout, len(rank))
        return True

    @_counted
    def try_rank_run(self, rank, spare, inv_deg, dangling, layout, scratch,
                     damping, tolerance, max_iterations,
                     ) -> Optional[Tuple[int, bool]]:
        """A whole :func:`~repro.algorithms.pagerank.pagerank` loop from
        ``rank`` over ``layout``, the ranks left in ``rank``:
        ``(iterations, converged)``, or ``None`` to decline — also when
        the compiled sums are not this process's numpy's."""
        fn = self.function("rank_run")
        n = len(rank)
        if fn is None or not (
                self._gate_rank(rank, inv_deg, layout, scratch, spare)
                and _i64(dangling) and dangling.ndim == 1 and len(dangling) <= n
                and (not len(dangling)
                     or dangling.min() >= 0 and dangling.max() < n)
        ) or not self._sums_agree(fn):
            return None
        stats = (ctypes.c_int64 * 2)()
        fn(rank, spare, inv_deg, *scratch, *layout, n, dangling,
           len(dangling), damping, tolerance, max_iterations, stats)
        return stats[0], bool(stats[1])


#: lengths whose sums walk every branch of numpy's pairwise tree: the
#: plain loop (1, 7), eight accumulators with and without a remainder
#: (8, 100, 128), and splits down to both (129, 1001).
_PROBE_SIZES = (1, 7, 8, 100, 128, 129, 1001)


def _rank_sums_match_numpy(rank_run) -> bool:
    """Whether ``rank_run`` reproduces numpy's ``add.reduce`` in this
    process: one iteration against :func:`~repro.engine.rank.damp` over
    an edgeless graph whose every node dangles, so the new ranks are the
    damped dangling mass (the first sum) and the returned distance is
    the second, on spread-out magnitudes that a different summation
    tree would round apart."""
    from repro.engine.rank import damp

    rng = np.random.default_rng(0)
    for n in _PROBE_SIZES:
        rank = rng.random(n) * 10.0 ** rng.integers(-6, 7, n)
        dangling, want, got = np.arange(n), np.empty(n), rank.copy()
        distance = damp(rank, np.zeros(n), dangling, 0.85, want)
        edgeless = (np.arange(n, dtype=np.int32), np.zeros(n // 8 + 2, np.int64),
                    np.empty(0, np.int32))
        last = rank_run(got, np.empty(n), np.zeros(n), np.empty(n + 1), np.empty(n),
                        *edgeless, n, dangling, n, 0.85, 0.0, 1, (ctypes.c_int64 * 2)())
        if last != distance or got.tobytes() != want.tobytes():
            return False
    return True


def registered_backends() -> Tuple[str, ...]:
    """Every backend name, available or not."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Backend names that can actually run on this machine."""
    return tuple(sorted(
        n for n, b in list(_REGISTRY.items()) if b.is_available()))


def get_backend(name: str) -> KernelBackend:
    """The backend called ``name``, availability unchecked.

    Raises :class:`~repro.errors.EngineError` for unknown names (a
    typo in ``--kernel-backend`` should fail loudly, not silently run
    the scalar path).
    """
    backend = _REGISTRY.get(name)
    if backend is None:
        raise EngineError(
            f"unknown kernel backend {name!r}; known: "
            + ", ".join(("auto",) + registered_backends())
        )
    return backend


_warned_unavailable: set = set()


def resolve_backend(
    name: Optional[str] = None, *, edges: Optional[int] = None
) -> KernelBackend:
    """Pick the backend for one engine run.

    ``name`` (usually ``EngineOptions.kernel_backend``) wins, then
    ``$REPRO_KERNEL_BACKEND``, then ``"auto"``.  ``auto`` runs ``cjit``
    on a graph of ``edges`` edges from
    :data:`~repro.engine.costmodel.JIT_MIN_EDGES` up when a compiler is
    available, else numpy (without a warning).  A requested but
    unavailable backend (no C compiler) warns once and falls back to
    numpy — results are identical either way, so degrading is always
    safe.
    An unknown name raises (:func:`get_backend`).
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND") or "auto"
    if name == "auto":
        from repro.engine import costmodel

        name = costmodel.choose_kernel_backend(
            edges=edges or 0, candidates=available_backends,
        )
    backend = get_backend(name)
    if not backend.is_available():
        if name not in _warned_unavailable:
            _warned_unavailable.add(name)
            warnings.warn(
                f"kernel backend {name!r} is unavailable "
                f"({backend.availability_note()}); falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        return get_backend("numpy")
    return backend


# ----------------------------------------------------------------------
# C backend (system compiler + ctypes)
# ----------------------------------------------------------------------
#: what every compile unit starts with.  relax/reduce arrive as
#: loop-invariant int flags.
_C_PRELUDE = r"""
#include <stdint.h>

#define WEIGHT(e) (has_w ? w[(e)] : 1.0)
#define RELAX(c, s, wt) do { \
    if (relax == 0)      (c) = (s) + (wt); \
    else if (relax == 1) (c) = ((s) < (wt) ? (s) : (wt)); \
    else                 (c) = (s); \
} while (0)

/* HOT marks the kernels serving spends its time in: hoisting the
   loop-invariant relax/reduce flags out of their edge loops is worth
   10-20 % on cache-resident graphs for ~0.02 s of compile each.
   HOT_LANES also asks for vector code: a lane loop runs over S
   consecutive doubles (-O2 alone leaves it scalar, 1.6x slower).
   Where the loader resolves ifuncs (glibc, x86-64, GCC >= 11) it is
   also built twice, for the baseline ISA and for x86-64-v3's 256-bit
   vectors; the library stays portable, the loader picks the clone */
#if defined(__GNUC__) && !defined(__clang__)
#define HOT __attribute__((optimize("unswitch-loops")))
#define HOT_LANES_OPT __attribute__((optimize("unswitch-loops", \
    "tree-vectorize", "vect-cost-model=dynamic")))
#if __GNUC__ >= 11 && defined(__x86_64__) && defined(__GLIBC__)
#define HOT_LANES HOT_LANES_OPT \
    __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define HOT_LANES HOT_LANES_OPT
#endif
#else
#define HOT
#define HOT_LANES
#endif

/* MIN (reduce 0) or MAX; `wrote` runs after every store (marks) */
#define FOLD(v, d, c, wrote) do { \
    if (reduce == 0) { if ((c) < (v)[(d)]) { (v)[(d)] = (c); wrote; } } \
    else             { if ((c) > (v)[(d)]) { (v)[(d)] = (c); wrote; } } \
} while (0)
"""

#: the C transliteration of the spec kernels, one compile unit —
#: its own ``.so``, built the first time one of its functions is asked
#: for — per kernel, or per pair of kernels only ever used together.
_C_UNITS: Dict[str, str] = {}

#: the counting pass a transpose starts with.
_C_COUNT = r"""
/* counts[i] += how often i occurs in ids[0..m) -> the largest count */
static int64_t count_ids(const int64_t* ids, int64_t m, int64_t* counts,
                         int64_t n) {
    int64_t top = 0;
    for (int64_t e = 0; e < m; e++) counts[ids[e]]++;
    for (int64_t i = 0; i < n; i++) top = counts[i] > top ? counts[i] : top;
    return top;
}
"""

#: ascending node ids for ``qsort``.
_C_SORT = r"""
#include <stdlib.h>

static int by_id(const void* a, const void* b) {
    const int64_t x = *(const int64_t*)a, y = *(const int64_t*)b;
    return (x > y) - (x < y);
}
"""

#: what a unit with a ``*_run`` adds: run_push's loop around its step.
_C_RUN = _C_SORT + r"""
/* changed[0..kept) into next in ascending order, as Frontier.ids()
   hands them back: a scan of marks set for them when the frontier is
   dense (Frontier's occupancy test; the marks end zero), else a sort
   -> whether it is dense */
static int next_frontier(const int64_t* changed, int64_t kept, int64_t* next,
                         uint8_t* mark, int64_t n, double dense) {
    if (n > 0 && (double)kept / (double)n >= dense) {
        int64_t j = 0;
        for (int64_t i = 0; i < kept; i++) mark[changed[i]] = 1;
        for (int64_t d = 0; d < n; d++) {
            if (mark[d]) { mark[d] = 0; next[j++] = d; }
        }
        return 1;
    }
    for (int64_t i = 0; i < kept; i++) next[i] = changed[i];
    qsort(next, (size_t)kept, sizeof(int64_t), by_id);
    return 0;
}

/* a *_run's body: STEP (its stats into `step`) from frontier[0..
   nactive) until no row changes or max_iterations steps, COMMIT after
   each step that changed rows; stats = {iterations, edges, dense
   iterations, lanes live before each step (all before the first)}
   -> whether it converged */
#define RUN(lanes, STEP, COMMIT) do { \
    int64_t step[2] = {0, (lanes)}; \
    int dense_now = n > 0 && (double)nactive / (double)n >= dense; \
    stats[0] = stats[1] = stats[2] = stats[3] = 0; \
    while (stats[0] < max_iterations) { \
        if (nactive == 0) return 1; \
        stats[2] += dense_now; stats[3] += step[1]; \
        const int64_t kept = STEP; \
        stats[0]++; stats[1] += step[0]; \
        if (kept == 0) return 1; \
        COMMIT; \
        dense_now = next_frontier(changed, kept, frontier, mark, n, dense); \
        nactive = kept; \
    } \
    return 0; \
} while (0)
"""

_C_UNITS["push_step"] = r"""
/* one MIN/MAX superstep, in place: each active row in order */
HOT int64_t push_step(double* v, const double* rv, const int64_t* active,
                  int64_t nactive, const int64_t* off,
                  const int64_t* targets, const double* w, uint8_t* mark,
                  int64_t* changed, int64_t* stats,
                  int has_w, int relax, int reduce) {
    int64_t cnt = 0, kept = 0, total = 0;
    for (int64_t i = 0; i < nactive; i++) {
        const int64_t p = active[i], end = off[p + 1];
        const double s = v[p];
        total += end - off[p];
        for (int64_t e = off[p]; e < end; e++) {
            const int64_t d = targets[e];
            double c;
            RELAX(c, s, WEIGHT(e));
            /* branch-free: first writes are a coin flip to predict
               (hence one spare slot at changed[n]) */
            FOLD(v, d, c, changed[cnt] = d; cnt += !mark[d]; mark[d] = 1);
        }
    }
    for (int64_t i = 0; i < cnt; i++) {
        const int64_t d = changed[i];
        mark[d] = 0;
        if (v[d] != rv[d]) changed[kept++] = d;
    }
    stats[0] = total;
    return kept;
}
""" + _C_RUN + r"""
/* run_push's loop over push_step: frontier (n + 1 ids) holds each
   step's active ids, rv is committed */
int64_t push_run(double* v, double* rv, int64_t* frontier, int64_t nactive,
                 const int64_t* off, const int64_t* targets, const double* w,
                 uint8_t* mark, int64_t* changed, int64_t* stats, int has_w,
                 int relax, int reduce, int64_t n, int64_t max_iterations,
                 double dense) {
    RUN(1, push_step(v, rv, frontier, nactive, off, targets, w, mark,
                     changed, step, has_w, relax, reduce),
        for (int64_t i = 0; i < kept; i++) rv[changed[i]] = v[changed[i]]);
}
"""

_C_UNITS["push_lanes_step"] = r"""
/* push_step over node-major (n, lanes) matrices, in place like it:
   one targets[e]/w[e] load serves every lane.  Every
   touched row is then compared, committed to rv and its differing
   lanes flagged live; stats = {edges, live lanes} */
HOT_LANES int64_t push_lanes_step(double* v, double* rv,
                  const int64_t* active, int64_t nactive, const int64_t* off,
                  const int64_t* targets, const double* w,
                  uint8_t* mark, int64_t* changed, int64_t* stats,
                  int has_w, int relax, int reduce,
                  int64_t lanes, uint8_t* live) {
    int64_t cnt = 0, kept = 0, total = 0, nlive = 0;
    for (int64_t i = 0; i < nactive; i++) {
        const int64_t p = active[i], end = off[p + 1];
        /* in place; no restrict: a self-loop makes s and vd one row */
        const double* s = v + p * lanes;
        total += end - off[p];
        for (int64_t e = off[p]; e < end; e++) {
            const int64_t d = targets[e];
            const double wt = WEIGHT(e);
            double* vd = v + d * lanes;
            for (int64_t k = 0; k < lanes; k++) {
                double c;
                RELAX(c, s[k], wt);
                vd[k] = (reduce == 0 ? c < vd[k] : c > vd[k]) ? c : vd[k];
            }
            changed[cnt] = d; cnt += !mark[d]; mark[d] = 1;
        }
    }
    for (int64_t k = 0; k < lanes; k++) live[k] = 0;
    for (int64_t i = 0; i < cnt; i++) {
        const int64_t d = changed[i];
        const double* restrict vd = v + d * lanes;
        double* restrict rd = rv + d * lanes;
        uint8_t differs = 0;
        mark[d] = 0;
        for (int64_t k = 0; k < lanes; k++) {
            const uint8_t ne = vd[k] != rd[k];
            live[k] |= ne; differs |= ne;
            rd[k] = vd[k];
        }
        changed[kept] = d; kept += differs;
    }
    for (int64_t k = 0; k < lanes; k++) nlive += live[k];
    stats[0] = total; stats[1] = nlive;
    return kept;
}
""" + _C_RUN + r"""
/* run_push_lanes' loop over push_lanes_step (which commits rv) */
int64_t push_lanes_run(double* v, double* rv, int64_t* frontier,
                       int64_t nactive, const int64_t* off,
                       const int64_t* targets, const double* w, uint8_t* mark,
                       int64_t* changed, int64_t* stats, int has_w, int relax,
                       int reduce, int64_t lanes, uint8_t* live, int64_t n,
                       int64_t max_iterations, double dense) {
    RUN(lanes, push_lanes_step(v, rv, frontier, nactive, off, targets, w,
                               mark, changed, step, has_w, relax, reduce,
                               lanes, live), (void)0);
}
"""

_C_UNITS["hop_step"] = r"""
/* one MS-BFS level over single-word lane masks: OR frontier words
   along the walk (any order: OR commutes), strip visited, stamp
   `level` into each fresh (node, lane) cell; new_w is left holding the
   next frontier, frontier_w zeroed.  stats as above */
int64_t hop_step(uint64_t* new_w, uint64_t* frontier_w, uint64_t* visited,
                 double* values, int64_t lanes, double level,
                 const int64_t* active, int64_t nactive, const int64_t* off,
                 const int64_t* targets, uint8_t* mark, int64_t* changed,
                 int64_t* stats) {
    /* a stray bit above `lanes` must not stamp outside its row */
    const uint64_t in_row = lanes < 64 ? ((uint64_t)1 << lanes) - 1 : ~0ull;
    int64_t cnt = 0, kept = 0, total = 0, nlive = 0;
    uint64_t live = 0;
    for (int64_t i = 0; i < nactive; i++) {
        const int64_t p = active[i], end = off[p + 1];
        const uint64_t bits = frontier_w[p];
        total += end - off[p];
        for (int64_t e = off[p]; e < end; e++) {
            const int64_t d = targets[e];
            new_w[d] |= bits;
            changed[cnt] = d; cnt += !mark[d]; mark[d] = 1;
        }
    }
    for (int64_t i = 0; i < nactive; i++) frontier_w[active[i]] = 0;
    for (int64_t i = 0; i < cnt; i++) {
        const int64_t d = changed[i];
        uint64_t fresh = new_w[d] & ~visited[d] & in_row;
        mark[d] = 0;
        new_w[d] = fresh;
        if (!fresh) continue;
        visited[d] |= fresh; live |= fresh;
        changed[kept++] = d;
        do {
            values[d * lanes + __builtin_ctzll(fresh)] = level;
        } while (fresh &= fresh - 1);
    }
    for (; live; live &= live - 1) nlive++;
    stats[0] = total; stats[1] = nlive;
    return kept;
}
""" + _C_RUN + r"""
/* run_push_lanes' hop levels after `level` over hop_step, the two
   frontier word arrays trading places between levels */
int64_t hop_run(uint64_t* new_w, uint64_t* frontier_w, uint64_t* visited,
                double* values, int64_t lanes, double level, int64_t* frontier,
                int64_t nactive, const int64_t* off, const int64_t* targets,
                uint8_t* mark, int64_t* changed, int64_t* stats, int64_t n,
                int64_t max_iterations, double dense) {
    RUN(lanes, hop_step(new_w, frontier_w, visited, values, lanes,
                        level += 1.0, frontier, nactive, off, targets, mark,
                        changed, step),
        uint64_t* spent = frontier_w; frontier_w = new_w; new_w = spent);
}
"""

_C_UNITS["bc"] = _C_SORT + r"""
/* one Brandes forward level: the first edge to reach an unsettled node
   settles it at `level` (levels doubles as the mark) and every edge
   landing on that level adds its source's path count, rows in order;
   the frontier's own sigma is never written (it sits one level up) */
static int64_t bc_forward(int64_t* levels, double* sigma,
                          const int64_t* frontier, int64_t nfrontier,
                          const int64_t* off, const int64_t* targets,
                          int64_t level, int64_t* found, int64_t* edges) {
    int64_t cnt = 0;
    for (int64_t i = 0; i < nfrontier; i++) {
        const int64_t p = frontier[i], end = off[p + 1];
        const double s = sigma[p];
        *edges += end - off[p];
        for (int64_t e = off[p]; e < end; e++) {
            const int64_t d = targets[e];
            if (levels[d] < 0) { levels[d] = level; found[cnt++] = d; }
            if (levels[d] == level) sigma[d] += s;
        }
    }
    return cnt;
}

/* one Brandes backward level: a frontier node's dependency is summed
   over its children one level down, its row in order, in a register
   (delta[p] is read by no edge of this level) */
static void bc_backward(const int64_t* levels, const double* sigma,
                        double* delta, const int64_t* frontier,
                        int64_t nfrontier, const int64_t* off,
                        const int64_t* targets, int64_t* edges) {
    for (int64_t i = 0; i < nfrontier; i++) {
        const int64_t p = frontier[i], end = off[p + 1];
        const int64_t down = levels[p] + 1;
        const double s = sigma[p];
        double acc = delta[p];
        *edges += end - off[p];
        for (int64_t e = off[p]; e < end; e++) {
            const int64_t d = targets[e];
            if (levels[d] == down && sigma[d] > 0) {
                const double q = s / sigma[d], o = 1.0 + delta[d];
                acc += q * o;
            }
        }
        delta[p] = acc;
    }
}

/* bc()'s two phases from `source`: forward levels while the frontier
   is non-empty and fewer than max_iterations ran, each found level
   sorted into order[] behind the last (by a scan of the level marks
   when dense, by next_frontier's rule, else a sort); then backward
   over the same ranges deepest-first, but for the deepest one run
   (nothing below it was collected).  stats = {iterations, edges} */
void bc_run(int64_t* levels, double* sigma, double* delta, int64_t* order,
            int64_t source, const int64_t* off, const int64_t* targets,
            int64_t n, int64_t max_iterations, double dense, int64_t* stats) {
    int64_t lo = 0, hi = 1, last = 0, depth = 0, edges = 0;
    order[0] = source;
    while (hi > lo && depth < max_iterations) {
        const int64_t level = ++depth;
        const int64_t cnt = bc_forward(levels, sigma, order + lo, hi - lo, off,
                                       targets, level, order + hi, &edges);
        if ((double)cnt / (double)n >= dense) {
            for (int64_t d = 0, j = hi; j < hi + cnt; d++) {
                if (levels[d] == level) order[j++] = d;
            }
        } else {
            qsort(order + hi, (size_t)cnt, sizeof(int64_t), by_id);
        }
        last = lo; lo = hi; hi += cnt;
    }
    /* order[0..last) holds levels 0 .. depth - 2, each a run of ids */
    for (int64_t level = depth - 2, end = last; level >= 0; level--) {
        int64_t start = end;
        while (start > 0 && levels[order[start - 1]] == level) start--;
        bc_backward(levels, sigma, delta, order + start, end - start, off,
                    targets, &edges);
        end = start;
    }
    stats[0] = depth + (depth > 0 ? depth - 1 : 0);
    stats[1] = edges;
}
"""

_C_UNITS["rank"] = _C_COUNT + r"""
/* numpy's float64 add.reduce, operation for operation: a plain loop
   below 8 elements, eight accumulators (combined as a balanced tree,
   then the remainder) up to 128, else the two halves split at n / 2
   rounded down to a multiple of 8 */
static double pairwise(const double* a, int64_t n) {
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8) {
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    const int64_t half = n / 2 - (n / 2) % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* the CSR's transpose as SELL-8: rows by in-degree (counted into deg,
   zeroed), descending (a stable counting sort; bucket holds room + 1
   zeros), 8 to a chunk, each chunk's sources column-major and padded
   to its longest row with id n (x[n] is +0.0).  Rows are read in
   ascending order, so each destination's sources ascend, as every
   walk's scatter adds them.  deg ends as cursors; cols has room for
   E + 7 room -> the slots used, or the largest in-degree negated when
   it exceeds room (nothing else written) */
int64_t rank_layout(const int64_t* off, const int64_t* targets, int64_t n,
                    int64_t room, int64_t* deg, int64_t* bucket, int32_t* perm,
                    int64_t* chunk, int32_t* cols) {
    const int64_t top = count_ids(targets, off[n], deg, n);
    int64_t at = 0;
    if (top > room) return -top;
    for (int64_t d = 0; d < n; d++) bucket[deg[d]]++;
    for (int64_t k = top; k >= 0; k--) { at += bucket[k]; bucket[k] = at - bucket[k]; }
    for (int64_t d = 0; d < n; d++) perm[bucket[deg[d]]++] = (int32_t)d;
    chunk[0] = 0;
    for (int64_t i = 0; i < n; i += 8) chunk[i / 8 + 1] = chunk[i / 8] + 8 * deg[perm[i]];
    for (int64_t i = 0; i < n; i++) deg[perm[i]] = chunk[i / 8] + i % 8;
    for (int64_t s = 0; s < chunk[(n + 7) / 8]; s++) cols[s] = (int32_t)n;
    for (int64_t p = 0; p < n; p++) {
        for (int64_t e = off[p]; e < off[p + 1]; e++) {
            cols[deg[targets[e]]] = (int32_t)p; deg[targets[e]] += 8;
        }
    }
    return chunk[(n + 7) / 8];
}

/* one iteration's contrib = the sum of x = rank * inv_deg over each
   row's sources in order, from +0.0 (the scatter's additions; adding
   the padding's +0.0 changes no such sum), four 2-wide lanes a chunk */
typedef double pair __attribute__((vector_size(16)));
void rank_gather(const double* rank, const double* inv_deg, double* x,
                 double* contrib, const int32_t* perm, const int64_t* chunk,
                 const int32_t* cols, int64_t n) {
    for (int64_t i = 0; i < n; i++) x[i] = rank[i] * inv_deg[i];
    x[n] = 0.0;
    for (int64_t c = 0; c * 8 < n; c++) {
        pair a[4] = {{0.0, 0.0}};
        for (const int32_t* k = cols + chunk[c]; k < cols + chunk[c + 1]; k += 8) {
            a[0] += (pair){x[k[0]], x[k[1]]}; a[1] += (pair){x[k[2]], x[k[3]]};
            a[2] += (pair){x[k[4]], x[k[5]]}; a[3] += (pair){x[k[6]], x[k[7]]};
        }
        for (int r = 0; r < 8 && 8 * c + r < n; r++) contrib[perm[8 * c + r]] = a[r / 2][r % 2];
    }
}

/* pagerank()'s loop, rank.damp's float recipe term for term: the
   dangling mass, the gather, the damped update into the spare vector
   and its L1 distance (both sums gathered into x, then summed as numpy
   sums, from its 0.0 identity), until the distance drops below
   tolerance or max_iterations ran.  The ranks end in `rank`; stats =
   {iterations, converged} -> the last distance (0 when none ran) */
double rank_run(double* rank, double* spare, const double* inv_deg, double* x,
                double* contrib, const int32_t* perm, const int64_t* chunk,
                const int32_t* cols, int64_t n, const int64_t* dangling,
                int64_t ndangling, double damping, double tolerance,
                int64_t max_iterations, int64_t* stats) {
    const double c0 = (1.0 - damping) / (double)n;
    double *cur = rank, *next = spare, distance = 0.0;
    stats[0] = stats[1] = 0;
    while (stats[0] < max_iterations) {
        for (int64_t i = 0; i < ndangling; i++) x[i] = cur[dangling[i]];
        const double mass = (0.0 + pairwise(x, ndangling)) / (double)n;
        rank_gather(cur, inv_deg, x, contrib, perm, chunk, cols, n);
        for (int64_t i = 0; i < n; i++) {
            const double t = contrib[i] + mass, scaled = damping * t;
            next[i] = c0 + scaled;
            x[i] = __builtin_fabs(next[i] - cur[i]);
        }
        distance = 0.0 + pairwise(x, n);
        double* spent = cur; cur = next; next = spent;
        stats[0]++;
        if (distance < tolerance) { stats[1] = 1; break; }
    }
    for (int64_t i = 0; cur != rank && i < n; i++) rank[i] = cur[i];
    return distance;
}
"""

_C_UNITS["symmetrize"] = _C_COUNT + r"""
/* the transpose of the n-row CSR (off, targets): toff from a counting
   pass, then each row's sources ascending into src (rows are read in
   order); cursor is n scratch */
static void transpose(const int64_t* off, const int64_t* targets, int64_t n,
                      int64_t* toff, int64_t* src, int64_t* cursor) {
    for (int64_t d = 0; d < n; d++) cursor[d] = 0;
    count_ids(targets, off[n], cursor, n);
    toff[0] = 0;
    for (int64_t d = 0; d < n; d++) { toff[d + 1] = toff[d] + cursor[d]; cursor[d] = toff[d]; }
    for (int64_t p = 0; p < n; p++) {
        for (int64_t e = off[p]; e < off[p + 1]; e++) src[cursor[targets[e]]++] = p;
    }
}

/* to_undirected's rows, each node's out- and in-neighbours once.  Into
   (u_off, u): the out-row, then the in-neighbours (the transpose) not in
   it, ascending, cursor stamping each node with the row that took it;
   weighted_order transposes that symmetric graph into (sym_off, sym):
   the same rows, ascending.  u and sym have room for 2E -> the length */
int64_t symmetrize(const int64_t* off, const int64_t* targets, int64_t n,
                   int weighted_order, int64_t* toff, int64_t* tsrc,
                   int64_t* cursor, int64_t* u_off, int64_t* u,
                   int64_t* sym_off, int64_t* sym) {
    int64_t k = 0;
    transpose(off, targets, n, toff, tsrc, cursor);
    for (int64_t d = 0; d < n; d++) cursor[d] = -1;
    u_off[0] = 0;
    for (int64_t p = 0; p < n; p++) {
        for (int64_t e = off[p]; e < off[p + 1]; e++) {
            if (cursor[targets[e]] != p) { cursor[targets[e]] = p; u[k++] = targets[e]; }
        }
        for (int64_t j = toff[p]; j < toff[p + 1]; j++) {
            if (cursor[tsrc[j]] != p) { cursor[tsrc[j]] = p; u[k++] = tsrc[j]; }
        }
        u_off[p + 1] = k;
    }
    if (weighted_order) transpose(u_off, u, n, sym_off, sym, cursor);
    return k;
}
"""

_C_UNITS["components"] = r"""
/* x's root, halving the path on the way up (parent[x] <= x throughout) */
static int64_t find_root(int64_t* parent, int64_t x) {
    while (parent[x] != x) { parent[x] = parent[parent[x]]; x = parent[x]; }
    return x;
}

/* the weak components of the n-row CSR (off, targets): each edge hooks
   the larger of its ends' roots under the smaller (a is p's root
   throughout its row), so a root is its tree's least id; one ascending
   pass then writes each node's root (its parent's is already final)
   into labels */
void components(const int64_t* off, const int64_t* targets, int64_t n,
                int64_t* parent, double* labels) {
    for (int64_t v = 0; v < n; v++) parent[v] = v;
    for (int64_t p = 0; p < n; p++) {
        int64_t a = find_root(parent, p);
        for (int64_t e = off[p]; e < off[p + 1]; e++) {
            const int64_t b = find_root(parent, targets[e]);
            if (a < b) parent[b] = a;
            else if (b < a) { parent[a] = b; a = b; }
        }
    }
    for (int64_t v = 0; v < n; v++) {
        parent[v] = parent[parent[v]];
        labels[v] = (double)parent[v];
    }
}
"""

#: a C function definition at the start of a line: an optional
#: attribute, the return type, the name and the parameter list.
_DEFINITION = re.compile(
    r"^(?:HOT\w* )?(void|int64_t|double) (\w+)\(([^)]*)\)", re.M)
#: scalar C types -> ctypes (every pointer is a ``c_void_p``).
_CTYPES = {"void": None, "int64_t": ctypes.c_int64, "int": ctypes.c_int,
           "double": ctypes.c_double}


class _Prototype(NamedTuple):
    unit: str
    restype: Optional[type]
    argtypes: List[type]
    params: List[str]


def _prototypes() -> Dict[str, _Prototype]:
    """Every C function of :data:`_C_UNITS` as its definition declares
    it: the owning unit, the ctypes signature and the parameter names."""
    found = {}
    for unit, source in _C_UNITS.items():
        for restype, name, params in _DEFINITION.findall(source):
            argtypes, names = [], []
            for param in params.split(","):
                *_, ctype, pname = re.findall(r"\w+", param)
                argtypes.append(
                    ctypes.c_void_p if "*" in param else _CTYPES[ctype])
                names.append(pname)
            found[name] = _Prototype(unit, _CTYPES[restype], argtypes, names)
    return found


_PROTOTYPES = _prototypes()

_BYTES = ctypes.c_char * 0


def _address(a: np.ndarray) -> int:
    """``a.ctypes.data``, three times cheaper for a writable array (a
    launch passes up to ten: ``a.ctypes`` was most of a hook's cost)."""
    if a.flags.writeable:
        try:
            return ctypes.addressof(_BYTES.from_buffer(a))
        except (TypeError, ValueError):  # not contiguous
            pass
    return a.ctypes.data


def _pointers(fn):
    """``fn`` taking each pointer argument as a numpy array (or None)."""
    return lambda *args: fn(
        *[_address(a) if isinstance(a, np.ndarray) else a for a in args])


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


class CJitBackend(KernelBackend):
    """Kernels compiled with the system C compiler, each the first
    time it is called.

    Every compile unit's shared library is content-addressed by
    (source, compiler, flags) and cached under the repro cache dir, so
    a kernel's compile cost is paid once per machine, not per process
    — and never by a process whose traffic does not call it.
    """

    name = "cjit"
    jit = True
    #: -O2, not -O3: every cold boot pays the compile, and what -O3
    #: bought the hot loops — unswitching — the source's HOT attribute
    #: asks for by name.  -ffp-contract=off: a `a * b + c` fused into
    #: one FMA (where the target has one) rounds once, numpy twice.
    CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

    def __init__(self) -> None:
        super().__init__()
        #: bound C functions of the units loaded so far, by name.
        self._functions: Dict[str, object] = {}
        self._failed: Optional[str] = None
        #: wall seconds this process spent compiling (0 on cache hits).
        self.compile_seconds = 0.0

    # -- compilation ----------------------------------------------------
    def is_available(self) -> bool:
        with self._lock:
            if self._functions:
                return True
            if self._failed is not None:
                return False
        return _find_cc() is not None

    def availability_note(self) -> str:
        with self._lock:
            failed = self._failed
        if failed is not None:
            return failed
        if _find_cc() is None:
            return "no C compiler on PATH (set $CC or install gcc/clang)"
        return "available"

    def function(self, name: str):
        """The bound C function ``name``, its unit compiled (or loaded
        from the cache) on first use; ``None`` once a compile failed."""
        fn = self._functions.get(name)  # a loaded kernel takes no lock
        if fn is not None:
            return fn
        unit = _PROTOTYPES[name].unit
        with self._lock:
            if name not in self._functions and self._failed is None:
                try:
                    self._functions.update(self._load(unit))
                except Exception as exc:  # compile trouble = degrade, never fail
                    self._failed = f"kernel compile failed: {exc}"
                    warnings.warn(
                        f"cjit backend disabled: {self._failed}",
                        RuntimeWarning, stacklevel=2,
                    )
            return self._functions.get(name)

    def _load(self, unit: str) -> Dict[str, object]:
        import time

        from repro.engine.costmodel import cache_dir

        cc = _find_cc()
        if cc is None:
            raise EngineError("no C compiler on PATH")
        source = _C_PRELUDE + _C_UNITS[unit]
        digest = hashlib.sha256(
            "\0".join((source, cc) + self.CFLAGS).encode()
        ).hexdigest()[:16]
        lib_dir = os.path.join(cache_dir(), "kernels")
        os.makedirs(lib_dir, exist_ok=True)
        lib_path = os.path.join(lib_dir, f"repro-{unit}-{digest}.so")

        def compile_unit() -> None:
            started = time.perf_counter()
            # every file is written under this process's own name, then
            # renamed (atomic: racers see whole files); a racer opening
            # a shared name for writing would truncate what cc reads
            stem = os.path.join(lib_dir, f"repro-{unit}-{digest}")
            src_path = f"{stem}.{os.getpid()}.c"
            tmp_path = f"{lib_path}.tmp.{os.getpid()}"
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(source)
            subprocess.run(
                [cc, *self.CFLAGS, "-o", tmp_path, src_path],
                check=True, capture_output=True, text=True,
            )
            os.replace(tmp_path, lib_path)
            os.replace(src_path, f"{stem}.c")  # kept beside its library
            self.compile_seconds += time.perf_counter() - started

        def bind() -> Dict[str, object]:
            lib = ctypes.CDLL(lib_path)
            bound = {}
            for name, proto in _PROTOTYPES.items():
                if proto.unit == unit:
                    fn = getattr(lib, name)
                    fn.restype, fn.argtypes = proto.restype, proto.argtypes
                    bound[name] = _pointers(fn)
            return bound

        cached = os.path.exists(lib_path)
        if not cached:
            compile_unit()
        try:
            return bind()
        except (OSError, AttributeError):
            if not cached:
                raise
            # a truncated or foreign file under our name: rebuild it once
            os.unlink(lib_path)
            compile_unit()
            return bind()


#: every backend by name: the scalar baseline and the JIT (a test may
#: add one for its duration).
_REGISTRY: Dict[str, KernelBackend] = {"numpy": KernelBackend(), "cjit": CJitBackend()}


def engagement() -> Tuple[str, int, int]:
    """``(backend, engaged, declined)`` for this process: the backend
    that handled the most launches (``"numpy"`` when none engaged) and
    the launch counts summed over every backend."""
    backends = list(_REGISTRY.values())
    return (
        max(backends, key=lambda b: b.engaged).name,
        sum(b.engaged for b in backends),
        sum(b.declined for b in backends),
    )


def jit_backends() -> List[str]:
    """Available backends that JIT-compile (cost-model candidates)."""
    return sorted(n for n, b in list(_REGISTRY.items()) if b.jit and b.is_available())
