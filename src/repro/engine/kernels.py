"""Pluggable kernel backends behind the Push/PullProgram API.

The engines' hot path is always the same shape: gather each active
thread's edges, relax along every edge, and scatter-reduce candidates
into destination values.  The numpy *fallback* realises that shape
with several full-edge-array temporaries per launch
(``edge_indices``, ``sources_per_edge``, the gathered source values,
the relax result) before ``ufunc.at`` even runs.  A compiled kernel
makes one pass over the edges with zero temporaries; the push
superstep (``push_step``) also indexes the virtual-node array itself,
as Algorithms 2-3 do, and returns the changed destinations — the
next frontier.  The lane supersteps (``push_lanes_step``, ``hop_step``)
do the same for ``S`` sources at once, lanes innermost.  Results are
**bitwise identical**: the compiled loops perform the exact same float
operations in the exact same order ``ufunc.at`` would.

Three backends are registered:

``numpy``
    The scalar baseline: the engines' own vectorised code path.  Its
    ``try_*`` hooks all decline, so the engine falls through to the
    canonical numpy implementation that every other backend is
    measured (and parity-tested) against.
``cjit``
    Generates a small C source file covering every certified
    (relax-class, reduction) pair, compiles it once with the system C
    compiler into a cached shared library (under
    :func:`repro.engine.costmodel.cache_dir`), and calls it through
    :mod:`ctypes`.  Available wherever a C compiler is; the compile
    is amortised across every subsequent run in the process *and*
    across processes via the on-disk cache.
``numba``
    JIT-compiles the pure-Python reference kernels in this module
    with :func:`numba.njit`.  Auto-detected: when numba is not
    installed the backend reports unavailable and resolution falls
    back gracefully.

Backend choice is per engine run: ``EngineOptions.kernel_backend``
wins, else ``$REPRO_KERNEL_BACKEND``, else ``"auto"`` — which asks
the measured cost model (:mod:`repro.engine.costmodel`) whether the
graph is big enough for a JIT kernel to pay for its call overhead.

Safety gates (any failure falls back to numpy, never errors):

* the program's (relax, reduce) pair must be certified by
  :data:`repro.core.applicability.PROGRAM_EXPECTATIONS` — the same
  table ``repro analyze`` diffs against the source (SPLIT001–006),
  so a program whose relax body drifted from its declared class is
  caught *statically* before a fused kernel could disagree with it;
* the program must not override ``filter_pushes`` or ``lane_relax``
  (a fused kernel cannot honor arbitrary Python hooks);
* arrays must be C-contiguous ``float64``/``int64`` (``uint64`` hop
  masks, one word per node); the pull hook needs per-thread owners
  (``phys``) and the supersteps a
  :meth:`~repro.engine.schedule.Scheduler.walk_layout`, so
  warp-segmentation launches decline;
* the read array must not alias the write array (synchronization
  relaxation re-reads values mid-launch, which only the buffered
  numpy path reproduces).

Every registered backend must also declare a parity fixture in
:data:`repro.core.applicability.KERNEL_BACKEND_EXPECTATIONS`; rule
KERN001 of ``repro analyze --strict`` fails the build otherwise.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import threading
import warnings
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.applicability import PROGRAM_EXPECTATIONS
from repro.engine.program import PushProgram
from repro.errors import EngineError

#: relax-body codes shared by every compiled backend (and the pure
#: Python reference kernels below).
RELAX_ADDITIVE = 0     # c = src + w   (w = 1.0 on unweighted graphs)
RELAX_WIDEST = 1       # c = min(src, w)
RELAX_PROPAGATION = 2  # c = src

#: reduction codes.
REDUCE_MIN = 0
REDUCE_MAX = 1
REDUCE_ADD = 2

_RELAX_CODES = {
    "additive": RELAX_ADDITIVE,
    "widest_path": RELAX_WIDEST,
    "propagation": RELAX_PROPAGATION,
}
_REDUCE_CODES = {"min": REDUCE_MIN, "max": REDUCE_MAX, "add": REDUCE_ADD}

#: ``LANE_BITS[k]`` is lane ``k``'s bit in a packed hop-mask word.
LANE_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


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
    reproduce.  ``None`` means "run the numpy path"; it is never an
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
# Pure-Python reference kernels
# ----------------------------------------------------------------------
# These loops define, operation for operation, what every compiled
# backend must do.  The numba backend JIT-compiles them directly; the
# C backend is a transliteration.  They match the engines' vectorised
# numpy path bitwise: the gather order is thread-by-thread in strided
# slot order (exactly `strided_ranges_to_indices`), and the fold is
# the same comparison / addition `ufunc.at` applies element-wise.

def _push_step_kernel(v, rv, active, off, fv, has_fv, targets, w, has_w,
                      relax, reduce_, mark, changed):
    # one superstep over a schedule.WalkLayout -> (changed count, edges)
    cnt = 0
    edges = 0
    for i in range(active.shape[0]):
        p = active[i]
        s = rv[p]
        base = off[p]
        end = off[p + 1]
        edges += end - base
        fam = fv[p + 1] - fv[p] if has_fv else 1
        for r in range(fam):
            for e in range(base + r, end, fam):
                if relax == 0:
                    c = s + (w[e] if has_w else 1.0)
                elif relax == 1:
                    c = min(s, w[e])
                else:
                    c = s
                d = targets[e]
                if reduce_ == 0:
                    wrote = c < v[d]
                elif reduce_ == 1:
                    wrote = c > v[d]
                else:
                    wrote = True
                    c += v[d]
                if wrote:
                    v[d] = c
                    if mark[d] == 0:
                        mark[d] = 1
                        changed[cnt] = d
                        cnt += 1
    kept = 0
    for i in range(cnt):
        d = changed[i]
        mark[d] = 0
        if v[d] != rv[d]:
            changed[kept] = d
            kept += 1
    return kept, edges


def _pull_kernel(v, rv, own, counts, starts, strides, in_sources, w,
                 has_w, relax, reduce_):
    for t in range(own.shape[0]):
        o = own[t]
        b = starts[t]
        st = strides[t]
        for j in range(counts[t]):
            e = b + j * st
            s = rv[in_sources[e]]
            if relax == 0:
                c = s + (w[e] if has_w else 1.0)
            elif relax == 1:
                c = min(s, w[e])
            else:
                c = s
            if reduce_ == 0:
                if c < v[o]:
                    v[o] = c
            elif reduce_ == 1:
                if c > v[o]:
                    v[o] = c
            else:
                v[o] += c


def _push_lanes_step_kernel(v, rv, active, off, fv, has_fv, targets, w, has_w,
                            relax, reduce_, mark, changed, live):
    # push_step over node-major (n, S) matrices: every touched row is
    # compared and committed to rv -> (changed count, edges, live lanes)
    lanes = v.shape[1]
    cnt = 0
    edges = 0
    for i in range(active.shape[0]):
        p = active[i]
        base = off[p]
        end = off[p + 1]
        edges += end - base
        fam = fv[p + 1] - fv[p] if has_fv else 1
        for r in range(fam):
            for e in range(base + r, end, fam):
                d = targets[e]
                wt = w[e] if has_w else 1.0
                for k in range(lanes):
                    s = rv[p, k]
                    if relax == 0:
                        c = s + wt
                    elif relax == 1:
                        c = min(s, wt)
                    else:
                        c = s
                    if c < v[d, k] if reduce_ == 0 else c > v[d, k]:
                        v[d, k] = c
                if mark[d] == 0:
                    mark[d] = 1
                    changed[cnt] = d
                    cnt += 1
    live[:] = 0
    kept = 0
    for i in range(cnt):
        d = changed[i]
        mark[d] = 0
        differs = False
        for k in range(lanes):
            if v[d, k] != rv[d, k]:
                rv[d, k] = v[d, k]
                live[k] = 1
                differs = True
        if differs:
            changed[kept] = d
            kept += 1
    return kept, edges, live.sum()


def _hop_step_kernel(new_w, frontier_w, visited, values, level, active, off,
                     targets, mark, changed, bit):
    # one MS-BFS level over single-word lane masks (bit[k] = 1 << k)
    # -> (fresh count, edges, live lanes)
    lanes = values.shape[1]
    cnt = 0
    edges = 0
    for i in range(active.shape[0]):
        p = active[i]
        edges += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            new_w[d] |= frontier_w[p]
            if mark[d] == 0:
                mark[d] = 1
                changed[cnt] = d
                cnt += 1
    for i in range(active.shape[0]):
        frontier_w[active[i]] = 0
    kept = 0
    live = 0
    for i in range(cnt):
        d = changed[i]
        mark[d] = 0
        new_w[d] &= ~visited[d]
        if new_w[d]:
            visited[d] |= new_w[d]
            changed[kept] = d
            kept += 1
    for k in range(lanes):
        seen = False
        for i in range(kept):
            if new_w[changed[i]] & bit[k]:
                values[changed[i], k] = level
                seen = True
        live += seen
    return kept, edges, live


def _edge_mul_add_kernel(out, values, src, dst, scale):
    for e in range(src.shape[0]):
        out[dst[e]] += values[src[e]] * scale[e]


# ----------------------------------------------------------------------
# Backend base class and registry
# ----------------------------------------------------------------------
def _i64(a: np.ndarray) -> bool:
    return a.dtype == np.int64 and a.flags.c_contiguous


def _f64(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


def _u64(a: np.ndarray) -> bool:
    return a.dtype == np.uint64 and a.flags.c_contiguous


def _counted(hook):
    """Count a JIT hook's outcome under the backend's lock (hooks run
    on worker threads plus one per shard; a bare ``+=`` loses updates)."""

    @functools.wraps(hook)
    def counted(self, *args):
        result = hook(self, *args)
        with self._lock:
            if result is None or result is False:
                self.declined += 1
            else:
                self.engaged += 1
        return result

    return counted


class KernelBackend:
    """One relax/reduce inner-loop implementation.

    The base class *is* the ``numpy`` backend: every ``try_*`` hook
    declines, which makes the engines run their canonical vectorised
    path.  Compiled backends override the hooks and return ``True``
    (``try_push_step``: its result) when they handled the launch; any
    gate failure returns ``False`` (``None``) and the engine falls
    back — so a backend can never change results, only speed.
    """

    #: registry key; must appear in KERNEL_BACKEND_EXPECTATIONS.
    name = "numpy"
    #: whether this backend JIT-compiles kernels.
    jit = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: launches handled by compiled kernels (parity tests assert
        #: the fused path actually engaged).
        self.engaged = 0
        #: launches a JIT backend was offered and left to numpy.
        self.declined = 0

    def is_available(self) -> bool:
        return True

    def availability_note(self) -> str:
        """Human-readable reason when :meth:`is_available` is False."""
        return "always available"

    # Each hook mirrors one engine call site.  Argument arrays are the
    # engine's own (full ``targets``/``weights`` arrays, per-batch
    # descriptor arrays); the hook must not mutate anything but the
    # destination values.
    def try_push_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int]]:
        """One whole :class:`~repro.engine.push.PushStep`: ``(sorted
        changed ids, edges)``, or ``None`` to decline."""
        return None

    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        return False

    def try_lane_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int, int]]:
        """One float-lane :class:`~repro.engine.push.LaneStep` over
        ``(n, S)`` matrices, ``read`` rows committed: ``(sorted changed
        ids, edges, lanes that changed)``, or ``None`` to decline."""
        return None

    def try_hop_step(self, new_w, frontier_w, visited, values, level, active,
                     walk, targets, scratch,
                     ) -> Optional[Tuple[np.ndarray, int, int]]:
        """One bit-packed hop level of a ``LaneStep`` (same result)."""
        return None

    def try_edge_mul_add(self, out, values, src, dst, scale) -> bool:
        return False

    # ------------------------------------------------------------------
    def _gate_common(self, spec, values, read_values, batch, weights) -> bool:
        """Admission checks for :meth:`try_pull` (minus its in-edge array)."""
        if spec is None or batch.phys is None:
            return False
        if not (_i64(batch.phys) and _i64(batch.counts)
                and _i64(batch.starts) and _i64(batch.strides)):
            return False
        return self._gate_values(spec, values, read_values, weights)

    @staticmethod
    def _gate_values(spec, values, read_values, weights) -> bool:
        if values is read_values:
            # synchronization relaxation re-reads mid-launch; only the
            # buffered numpy path reproduces that order.
            return False
        if not (_f64(values) and _f64(read_values)):
            return False
        if weights is None:
            return not spec.needs_weights
        return _f64(weights)

    @staticmethod
    def _gate_walk(active, walk, targets, scratch) -> int:
        """The node count once everything a compiled walk dereferences
        is sized and bounded, else ``-1``."""
        if walk is None:
            return -1
        n = len(walk.offsets) - 1
        mark, changed = scratch[:2]
        if not (_i64(active) and _i64(walk.offsets) and _i64(targets)
                and (walk.family_starts is None
                     or _i64(walk.family_starts)
                     and walk.family_starts.shape == (n + 1,))
                and mark.dtype == np.uint8 and mark.shape == (n,)
                and _i64(changed) and changed.shape == (n + 1,)):
            return -1
        if len(active) and (active.min() < 0 or active.max() >= n):
            return -1
        return n

    def _gate_step(self, spec, out, read, active, walk, targets, weights,
                   scratch) -> bool:
        """Admission checks for :meth:`try_push_step`."""
        n = self._gate_walk(active, walk, targets, scratch)
        return (spec is not None and n >= 0
                and out.shape == read.shape == (n,)
                and self._gate_values(spec, out, read, weights))

    def _gate_lanes(self, spec, out, read, active, walk, targets, weights,
                    scratch) -> bool:
        """Admission checks for :meth:`try_lane_step` (lanes only
        fold idempotently: MIN or MAX)."""
        n = self._gate_walk(active, walk, targets, scratch)
        if spec is None or n < 0 or spec.reduce == REDUCE_ADD:
            return False
        live = scratch[2]
        return (live.dtype == np.uint8 and live.ndim == 1 and len(live) > 0
                and out.shape == read.shape == (n, len(live))
                and self._gate_values(spec, out, read, weights))

    def _gate_hops(self, new_w, frontier_w, visited, values, active, walk,
                   targets, scratch) -> bool:
        """Admission checks for :meth:`try_hop_step`: three distinct
        single-word mask arrays and at most 64 lanes to stamp."""
        n = self._gate_walk(active, walk, targets, scratch)
        return (n >= 0 and _u64(new_w) and _u64(frontier_w) and _u64(visited)
                and new_w.shape == frontier_w.shape == visited.shape == (n,)
                and new_w is not frontier_w and new_w is not visited
                and frontier_w is not visited
                and _f64(values) and values.ndim == 2
                and values.shape[0] == n and 0 < values.shape[1] <= 64)


_REGISTRY: Dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (idempotent by name)."""
    with _REGISTRY_LOCK:
        _REGISTRY[backend.name] = backend
    return backend


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, available or not."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Backend names that can actually run on this machine."""
    with _REGISTRY_LOCK:
        items = list(_REGISTRY.items())
    return tuple(sorted(n for n, b in items if b.is_available()))


def get_backend(name: str) -> KernelBackend:
    """The registered backend, availability unchecked.

    Raises :class:`~repro.errors.EngineError` for unknown names (a
    typo in ``--kernel-backend`` should fail loudly, not silently run
    the scalar path).
    """
    with _REGISTRY_LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise EngineError(
            f"unknown kernel backend {name!r}; registered: "
            + ", ".join(registered_backends())
        )
    return backend


_warned_unavailable: set = set()


def resolve_backend(
    name: Optional[str] = None, *, edges: Optional[int] = None
) -> KernelBackend:
    """Pick the backend for one engine run.

    ``name`` (usually ``EngineOptions.kernel_backend``) wins, then
    ``$REPRO_KERNEL_BACKEND``, then ``"auto"``.  ``auto`` asks the
    measured cost model which backend minimises predicted kernel time
    for a graph of ``edges`` edges.  A requested-but-unavailable
    backend (numba not installed, no C compiler) warns once and falls
    back to numpy — results are identical either way, so degrading is
    always safe.
    """
    if name is None:
        name = os.environ.get("REPRO_KERNEL_BACKEND") or "auto"
    if name == "auto":
        from repro.engine import costmodel

        name = costmodel.get_profile().choose_kernel_backend(
            edges=edges or 0, candidates=available_backends(),
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
#: the C transliteration of the reference kernels.  One function per
#: shape; relax/reduce arrive as loop-invariant int flags.
_C_SOURCE = r"""
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
   consecutive doubles (-O2 alone leaves it scalar, 1.6x slower) */
#if defined(__GNUC__) && !defined(__clang__)
#define HOT __attribute__((optimize("unswitch-loops")))
#define HOT_LANES __attribute__((optimize("unswitch-loops", \
    "tree-vectorize", "vect-cost-model=dynamic")))
#else
#define HOT
#define HOT_LANES
#endif

/* `wrote` runs after every store (the superstep marks there) */
#define FOLD(v, d, c, wrote) do { \
    if (reduce == 0)      { if ((c) < (v)[(d)]) { (v)[(d)] = (c); wrote; } } \
    else if (reduce == 1) { if ((c) > (v)[(d)]) { (v)[(d)] = (c); wrote; } } \
    else                  { (v)[(d)] += (c); wrote; } \
} while (0)

HOT int64_t push_step(double* v, const double* rv, const int64_t* active,
                  int64_t nactive, const int64_t* off, const int64_t* fv,
                  const int64_t* targets, const double* w, uint8_t* mark,
                  int64_t* changed, int64_t* stats,
                  int has_w, int relax, int reduce) {
    int64_t cnt = 0, kept = 0, total = 0;
    for (int64_t i = 0; i < nactive; i++) {
        const int64_t p = active[i], base = off[p], end = off[p + 1];
        const int64_t fam = fv ? fv[p + 1] - fv[p] : 1;
        const double s = rv[p];
        total += end - base;
        for (int64_t r = 0; r < fam; r++) {
            for (int64_t e = base + r; e < end; e += fam) {
                const int64_t d = targets[e];
                double c;
                RELAX(c, s, WEIGHT(e));
                /* branch-free: first writes are a coin flip to predict
                   (hence one spare slot at changed[n]) */
                FOLD(v, d, c,
                     changed[cnt] = d; cnt += !mark[d]; mark[d] = 1);
            }
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

void pull_batch(double* v, const double* rv, const int64_t* own,
                const int64_t* counts, const int64_t* starts,
                const int64_t* strides, const int64_t* in_sources,
                const double* w, int64_t nthreads,
                int has_w, int relax, int reduce) {
    for (int64_t t = 0; t < nthreads; t++) {
        const int64_t o = own[t];
        const int64_t b = starts[t], st = strides[t], k = counts[t];
        for (int64_t j = 0; j < k; j++) {
            const int64_t e = b + j * st;
            double c;
            RELAX(c, rv[in_sources[e]], WEIGHT(e));
            FOLD(v, o, c, (void)0);
        }
    }
}

/* push_step over node-major (n, lanes) matrices, MIN/MAX only: one
   targets[e]/w[e] load serves every lane.  Every touched row is then
   compared, committed to rv and its differing lanes flagged live;
   stats = {edges, live lanes} */
HOT_LANES int64_t push_lanes_step(double* v, double* rv,
                  const int64_t* active, int64_t nactive, const int64_t* off,
                  const int64_t* fv, const int64_t* targets, const double* w,
                  uint8_t* mark, int64_t* changed, int64_t* stats,
                  int has_w, int relax, int reduce,
                  int64_t lanes, uint8_t* live) {
    int64_t cnt = 0, kept = 0, total = 0, nlive = 0;
    for (int64_t i = 0; i < nactive; i++) {
        const int64_t p = active[i], base = off[p], end = off[p + 1];
        const int64_t fam = fv ? fv[p + 1] - fv[p] : 1;
        const double* restrict s = rv + p * lanes;
        total += end - base;
        for (int64_t r = 0; r < fam; r++) {
            for (int64_t e = base + r; e < end; e += fam) {
                const int64_t d = targets[e];
                const double wt = WEIGHT(e);
                double* restrict vd = v + d * lanes;
                for (int64_t k = 0; k < lanes; k++) {
                    double c;
                    RELAX(c, s[k], wt);
                    vd[k] = (reduce == 0 ? c < vd[k] : c > vd[k]) ? c : vd[k];
                }
                changed[cnt] = d; cnt += !mark[d]; mark[d] = 1;
            }
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

void edge_mul_add(double* out, const double* values, const int64_t* src,
                  const int64_t* dst, const double* scale, int64_t nedges) {
    for (int64_t e = 0; e < nedges; e++) {
        out[dst[e]] += values[src[e]] * scale[e];
    }
}
"""


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


class CJitBackend(KernelBackend):
    """Kernels compiled once with the system C compiler.

    The shared library is content-addressed by (source, compiler,
    flags) and cached under the repro cache dir, so the compile cost is paid
    once per machine, not per process.  Loading is lazy: the compiler
    is only invoked the first time a hook actually fires.
    """

    name = "cjit"
    jit = True
    #: -O2, not -O3: every cold boot pays the compile (0.12 s against
    #: 0.21 s), and what -O3 bought the hot loops — unswitching — the
    #: source's HOT attribute asks for by name.
    CFLAGS = ("-O2", "-fPIC", "-shared")

    def __init__(self) -> None:
        super().__init__()
        self._lib: Optional[ctypes.CDLL] = None
        self._failed: Optional[str] = None
        #: wall seconds the one-time compile took (0 on cache hit).
        self.compile_seconds = 0.0

    # -- compilation ----------------------------------------------------
    def is_available(self) -> bool:
        with self._lock:
            if self._lib is not None:
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

    def _ensure_lib(self) -> Optional[ctypes.CDLL]:
        # an uncontended lock costs ~100ns — noise next to a launch
        with self._lock:
            if self._lib is None and self._failed is None:
                try:
                    self._lib = self._compile()
                except Exception as exc:  # compile trouble = degrade, never fail
                    self._failed = f"kernel compile failed: {exc}"
                    warnings.warn(
                        f"cjit backend disabled: {self._failed}",
                        RuntimeWarning, stacklevel=2,
                    )
            return self._lib

    def _compile(self) -> ctypes.CDLL:
        import time

        from repro.engine.costmodel import cache_dir

        cc = _find_cc()
        if cc is None:
            raise EngineError("no C compiler on PATH")
        digest = hashlib.sha256(
            "\0".join((_C_SOURCE, cc) + self.CFLAGS).encode()
        ).hexdigest()[:16]
        lib_dir = os.path.join(cache_dir(), "kernels")
        os.makedirs(lib_dir, exist_ok=True)
        lib_path = os.path.join(lib_dir, f"repro-kernels-{digest}.so")
        if not os.path.exists(lib_path):
            started = time.perf_counter()
            src_path = os.path.join(lib_dir, f"repro-kernels-{digest}.c")
            tmp_path = f"{lib_path}.tmp.{os.getpid()}"
            with open(src_path, "w", encoding="utf-8") as fh:
                fh.write(_C_SOURCE)
            subprocess.run(
                [cc, *self.CFLAGS, "-o", tmp_path, src_path],
                check=True, capture_output=True, text=True,
            )
            os.replace(tmp_path, lib_path)  # atomic: racers see whole files
            self.compile_seconds = time.perf_counter() - started
        lib = ctypes.CDLL(lib_path)
        for fn in ("pull_batch", "edge_mul_add"):
            getattr(lib, fn).restype = None
        ptr, i64, i32 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
        step = [ptr] * 3 + [i64] + [ptr] * 7 + [i32] * 3
        for fn, argtypes in (
            ("push_step", step),
            ("push_lanes_step", step + [i64, ptr]),
            ("hop_step", [ptr] * 4 + [i64, ctypes.c_double, ptr, i64]
             + [ptr] * 5),
        ):
            getattr(lib, fn).restype = i64
            getattr(lib, fn).argtypes = argtypes
        return lib

    # -- hooks ----------------------------------------------------------
    @staticmethod
    def _ptr(a: np.ndarray) -> ctypes.c_void_p:
        return ctypes.c_void_p(a.ctypes.data)

    @staticmethod
    def _walk(fn, spec, out, read, active, walk, targets, weights, scratch,
              *lane_args):
        """Call one of the two value supersteps (they share a prefix)
        -> ``(sorted changed ids, stats)``."""
        mark, changed = scratch[:2]
        fv = walk.family_starts
        w = weights if weights is not None else out  # never read when has_w=0
        stats = (ctypes.c_int64 * 2)()
        kept = fn(
            out.ctypes.data, read.ctypes.data, active.ctypes.data,
            len(active), walk.offsets.ctypes.data,
            None if fv is None else fv.ctypes.data, targets.ctypes.data,
            w.ctypes.data, mark.ctypes.data, changed.ctypes.data, stats,
            weights is not None, spec.relax, spec.reduce, *lane_args,
        )
        return np.sort(changed[:kept]), stats

    @_counted
    def try_push_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int]]:
        if not self._gate_step(spec, out, read, active, walk, targets,
                               weights, scratch):
            return None
        lib = self._ensure_lib()
        if lib is None:
            return None
        changed, stats = self._walk(lib.push_step, spec, out, read, active,
                                    walk, targets, weights, scratch)
        return changed, stats[0]

    @_counted
    def try_lane_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int, int]]:
        if not self._gate_lanes(spec, out, read, active, walk, targets,
                                weights, scratch):
            return None
        lib = self._ensure_lib()
        if lib is None:
            return None
        changed, stats = self._walk(
            lib.push_lanes_step, spec, out, read, active, walk, targets,
            weights, scratch, out.shape[1], scratch[2].ctypes.data)
        return changed, stats[0], stats[1]

    @_counted
    def try_hop_step(self, new_w, frontier_w, visited, values, level, active,
                     walk, targets, scratch,
                     ) -> Optional[Tuple[np.ndarray, int, int]]:
        if not self._gate_hops(new_w, frontier_w, visited, values, active,
                               walk, targets, scratch):
            return None
        lib = self._ensure_lib()
        if lib is None:
            return None
        mark, changed = scratch[:2]
        stats = (ctypes.c_int64 * 2)()
        kept = lib.hop_step(
            new_w.ctypes.data, frontier_w.ctypes.data, visited.ctypes.data,
            values.ctypes.data, values.shape[1], level, active.ctypes.data,
            len(active), walk.offsets.ctypes.data, targets.ctypes.data,
            mark.ctypes.data, changed.ctypes.data, stats,
        )
        return np.sort(changed[:kept]), stats[0], stats[1]

    @_counted
    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        if not self._gate_common(spec, values, read_values, batch, weights):
            return False
        if not _i64(in_sources):
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        w = weights if weights is not None else values
        lib.pull_batch(
            self._ptr(values), self._ptr(read_values), self._ptr(batch.phys),
            self._ptr(batch.counts), self._ptr(batch.starts),
            self._ptr(batch.strides), self._ptr(in_sources), self._ptr(w),
            ctypes.c_int64(batch.num_threads),
            ctypes.c_int(int(weights is not None)),
            ctypes.c_int(spec.relax), ctypes.c_int(spec.reduce),
        )
        return True

    @_counted
    def try_edge_mul_add(self, out, values, src, dst, scale) -> bool:
        if not (_f64(out) and _f64(values) and _f64(scale)
                and _i64(src) and _i64(dst)):
            return False
        lib = self._ensure_lib()
        if lib is None:
            return False
        lib.edge_mul_add(
            self._ptr(out), self._ptr(values), self._ptr(src),
            self._ptr(dst), self._ptr(scale), ctypes.c_int64(len(src)),
        )
        return True


# ----------------------------------------------------------------------
# Numba backend
# ----------------------------------------------------------------------
class NumbaBackend(KernelBackend):
    """The reference kernels JIT-compiled with :func:`numba.njit`.

    Optional: :meth:`is_available` probes for an importable numba
    without importing it at module load.  Kernels compile lazily per
    shape on first use; ``compile_seconds`` accumulates the one-time
    cost so benches can report warm and compile-included timings
    separately.
    """

    name = "numba"
    jit = True

    def __init__(self) -> None:
        super().__init__()
        self._kernels: Dict[str, object] = {}
        self._failed: Optional[str] = None
        self.compile_seconds = 0.0

    def is_available(self) -> bool:
        with self._lock:
            if self._kernels:
                return True
            if self._failed is not None:
                return False
        import importlib.util

        try:
            return importlib.util.find_spec("numba") is not None
        except (ImportError, ValueError):
            return False

    def availability_note(self) -> str:
        with self._lock:
            failed = self._failed
        if failed is not None:
            return failed
        return "numba is not installed (pip install numba)"

    def _kernel(self, key: str, py_func):
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None or self._failed is not None:
                return kernel
            try:
                import time

                import numba

                started = time.perf_counter()
                kernel = numba.njit(cache=False)(py_func)
                self.compile_seconds += time.perf_counter() - started
            except Exception as exc:
                self._failed = f"numba unavailable: {exc}"
                warnings.warn(
                    f"numba backend disabled: {self._failed}",
                    RuntimeWarning, stacklevel=2,
                )
                return None
            self._kernels[key] = kernel
        return kernel

    _EMPTY_W = np.empty(0, dtype=np.float64)

    @_counted
    def try_push_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int]]:
        if not self._gate_step(spec, out, read, active, walk, targets,
                               weights, scratch):
            return None
        kernel = self._kernel("push_step", _push_step_kernel)
        if kernel is None:
            return None
        mark, changed = scratch
        fv = walk.family_starts
        kept, edges = kernel(
            out, read, active, walk.offsets,
            walk.offsets if fv is None else fv, fv is not None, targets,
            weights if weights is not None else self._EMPTY_W,
            weights is not None, spec.relax, spec.reduce, mark, changed)
        return np.sort(changed[:kept]), int(edges)

    @_counted
    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        if not self._gate_common(spec, values, read_values, batch, weights):
            return False
        if not _i64(in_sources):
            return False
        kernel = self._kernel("pull", _pull_kernel)
        if kernel is None:
            return False
        kernel(values, read_values, batch.phys, batch.counts, batch.starts,
               batch.strides, in_sources,
               weights if weights is not None else self._EMPTY_W,
               weights is not None, spec.relax, spec.reduce)
        return True

    @_counted
    def try_lane_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int, int]]:
        if not self._gate_lanes(spec, out, read, active, walk, targets,
                                weights, scratch):
            return None
        kernel = self._kernel("push_lanes_step", _push_lanes_step_kernel)
        if kernel is None:
            return None
        mark, changed, live = scratch
        fv = walk.family_starts
        kept, edges, nlive = kernel(
            out, read, active, walk.offsets,
            walk.offsets if fv is None else fv, fv is not None, targets,
            weights if weights is not None else self._EMPTY_W,
            weights is not None, spec.relax, spec.reduce, mark, changed, live)
        return np.sort(changed[:kept]), int(edges), int(nlive)

    @_counted
    def try_hop_step(self, new_w, frontier_w, visited, values, level, active,
                     walk, targets, scratch,
                     ) -> Optional[Tuple[np.ndarray, int, int]]:
        if not self._gate_hops(new_w, frontier_w, visited, values, active,
                               walk, targets, scratch):
            return None
        kernel = self._kernel("hop_step", _hop_step_kernel)
        if kernel is None:
            return None
        mark, changed = scratch[:2]
        kept, edges, nlive = kernel(
            new_w, frontier_w, visited, values, level, active, walk.offsets,
            targets, mark, changed, LANE_BITS)
        return np.sort(changed[:kept]), int(edges), int(nlive)

    @_counted
    def try_edge_mul_add(self, out, values, src, dst, scale) -> bool:
        if not (_f64(out) and _f64(values) and _f64(scale)
                and _i64(src) and _i64(dst)):
            return False
        kernel = self._kernel("edge_mul_add", _edge_mul_add_kernel)
        if kernel is None:
            return False
        kernel(out, values, src, dst, scale)
        return True


#: the default registry: the scalar baseline plus both JIT backends.
NUMPY_BACKEND = register_backend(KernelBackend())
CJIT_BACKEND = register_backend(CJitBackend())
NUMBA_BACKEND = register_backend(NumbaBackend())


def engagement() -> Tuple[str, int, int]:
    """``(backend, engaged, declined)`` for this process: the backend
    that handled the most launches (``"numpy"`` when none engaged) and
    the launch counts summed over the registry."""
    with _REGISTRY_LOCK:
        backends = list(_REGISTRY.values())
    return (
        max(backends, key=lambda b: b.engaged).name,
        sum(b.engaged for b in backends),
        sum(b.declined for b in backends),
    )


def jit_backends() -> List[str]:
    """Available backends that JIT-compile (cost-model candidates)."""
    with _REGISTRY_LOCK:
        items = list(_REGISTRY.items())
    return sorted(
        n for n, b in items if b.jit and b.is_available()
    )
