"""Executable spec of the compiled kernels: Algorithms 2-3 as plain loops.

These loops define, operation for operation, what every C unit in
``repro.engine.kernels._C_UNITS`` must do; the C text is a
transliteration of them.  The ADD loops match the engines' vectorised
numpy path bitwise, superstep by superstep: the gather order is
thread-by-thread in strided slot order (exactly
``strided_ranges_to_indices``), and the fold is the same addition
``ufunc.at`` applies element-wise.  The MIN/MAX push steps relax in
place, as the C does, so they match the numpy path at the fixpoint.

:class:`ReferenceBackend` drives them through the same ``try_*`` hooks
and ``_gate_*`` admission checks the engines offer ``cjit``, so the
lockstep suites in ``tests/test_kernels.py`` compare spec and C kernel
superstep by superstep, and each against the numpy body.  It is
registered by a fixture only — never at import — so ``auto`` can not
pick an interpreted loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.engine.kernels import LANE_BITS, KernelBackend, _counted, _i64


def _push_step_kernel(v, rv, active, off, fv, has_fv, targets, w, has_w,
                      relax, reduce_, mark, changed):
    # one superstep over a schedule.WalkLayout -> (changed count, edges);
    # MIN/MAX read v itself (in place: a value improved earlier in the
    # superstep is pushed now), ADD the superstep-start snapshot rv
    cnt = 0
    edges = 0
    for i in range(active.shape[0]):
        p = active[i]
        s = rv[p] if reduce_ == 2 else v[p]
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
    # push_step over node-major (n, S) matrices, in place like it (lanes
    # are MIN/MAX only): every touched row is compared and committed to
    # rv -> (changed count, edges, live lanes)
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
                    s = v[p, k]
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


def _bc_forward_kernel(levels, sigma, frontier, off, fv, has_fv, targets,
                       level, found):
    # one Brandes forward level: settle depth `level` below the frontier
    # and count its shortest paths in the same walk -> (found, edges)
    cnt = 0
    edges = 0
    for i in range(frontier.shape[0]):
        p = frontier[i]
        s = sigma[p]
        base = off[p]
        end = off[p + 1]
        edges += end - base
        fam = fv[p + 1] - fv[p] if has_fv else 1
        for r in range(fam):
            for e in range(base + r, end, fam):
                d = targets[e]
                if levels[d] < 0:
                    levels[d] = level
                    found[cnt] = d
                    cnt += 1
                if levels[d] == level:
                    sigma[d] += s
    return cnt, edges


def _bc_backward_kernel(levels, sigma, delta, frontier, off, fv, has_fv,
                        targets):
    # one Brandes backward level: each frontier node's dependency from
    # its children one level down -> edges
    edges = 0
    for i in range(frontier.shape[0]):
        p = frontier[i]
        s = sigma[p]
        down = levels[p] + 1
        acc = delta[p]
        base = off[p]
        end = off[p + 1]
        edges += end - base
        fam = fv[p + 1] - fv[p] if has_fv else 1
        for r in range(fam):
            for e in range(base + r, end, fam):
                d = targets[e]
                if levels[d] == down and sigma[d] > 0:
                    acc += s / sigma[d] * (1.0 + delta[d])
        delta[p] = acc
    return edges


def _rank_launch_kernel(off, fv, has_fv, targets, src, dst):
    # PageRank's all-nodes launch, flattened once in batch() order
    k = 0
    for p in range(off.shape[0] - 1):
        base = off[p]
        end = off[p + 1]
        fam = fv[p + 1] - fv[p] if has_fv else 1
        for r in range(fam):
            for e in range(base + r, end, fam):
                src[k] = p
                dst[k] = targets[e]
                k += 1


def _rank_step_kernel(rank, inv_deg, x, contrib, src, dst, damp, new_rank,
                      diff, c0, damping, mass):
    # one PageRank iteration over the flat launch; `damp` also applies
    # the rank update and leaves |new - old| per node in `diff`
    for i in range(rank.shape[0]):
        x[i] = rank[i] * inv_deg[i]
        contrib[i] = 0.0
    for e in range(src.shape[0]):
        contrib[dst[e]] += x[src[e]]
    if damp:
        for i in range(rank.shape[0]):
            r = c0 + damping * (contrib[i] + mass)
            new_rank[i] = r
            diff[i] = abs(r - rank[i])


class ReferenceBackend(KernelBackend):
    """The spec kernels behind the production hook signatures."""

    name = "reference"
    jit = True

    _EMPTY_W = np.empty(0, dtype=np.float64)

    @staticmethod
    def _layout(walk, targets):
        """``off, fv, has_fv, targets`` as every walking kernel takes
        them (``fv`` is never read when ``has_fv`` is false: pass any)."""
        fv = walk.family_starts
        return (walk.offsets, walk.offsets if fv is None else fv,
                fv is not None, targets)

    @_counted
    def try_push_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int]]:
        if not self._gate_step(spec, out, read, active, walk, targets,
                               weights, scratch):
            return None
        mark, changed = scratch
        kept, edges = _push_step_kernel(
            out, read, active, *self._layout(walk, targets),
            weights if weights is not None else self._EMPTY_W,
            weights is not None, spec.relax, spec.reduce, mark, changed)
        return np.sort(changed[:kept]), int(edges)

    @_counted
    def try_pull(self, spec, values, read_values, batch, in_sources, weights) -> bool:
        if not self._gate_common(spec, values, read_values, batch, weights):
            return False
        if not _i64(in_sources):
            return False
        _pull_kernel(values, read_values, batch.phys, batch.counts,
                     batch.starts, batch.strides, in_sources,
                     weights if weights is not None else self._EMPTY_W,
                     weights is not None, spec.relax, spec.reduce)
        return True

    @_counted
    def try_lane_step(self, spec, out, read, active, walk, targets, weights,
                      scratch) -> Optional[Tuple[np.ndarray, int, int]]:
        if not self._gate_lanes(spec, out, read, active, walk, targets,
                                weights, scratch):
            return None
        mark, changed, live = scratch
        kept, edges, nlive = _push_lanes_step_kernel(
            out, read, active, *self._layout(walk, targets),
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
        mark, changed = scratch[:2]
        kept, edges, nlive = _hop_step_kernel(
            new_w, frontier_w, visited, values, level, active, walk.offsets,
            targets, mark, changed, LANE_BITS)
        return np.sort(changed[:kept]), int(edges), int(nlive)

    @_counted
    def try_bc_forward(self, levels, sigma, frontier, level, walk, targets,
                       found) -> Optional[Tuple[np.ndarray, int]]:
        if not (self._gate_bc(levels, frontier, walk, targets, sigma)
                and _i64(found) and found.shape == levels.shape):
            return None
        cnt, edges = _bc_forward_kernel(
            levels, sigma, frontier, *self._layout(walk, targets), level, found)
        return np.sort(found[:cnt]), int(edges)

    @_counted
    def try_bc_backward(self, levels, sigma, delta, frontier, walk,
                        targets) -> Optional[int]:
        if not self._gate_bc(levels, frontier, walk, targets, sigma, delta):
            return None
        return int(_bc_backward_kernel(levels, sigma, delta, frontier,
                                       *self._layout(walk, targets)))

    @_counted
    def try_rank_launch(
        self, walk, targets
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if self._gate_rank_launch(walk, targets) < 0:
            return None
        src, dst = np.empty((2, len(targets)), dtype=np.int32)
        _rank_launch_kernel(*self._layout(walk, targets), src, dst)
        return src, dst

    @_counted
    def try_rank_step(self, rank, inv_deg, launch, scratch, new_rank=None,
                      c0=0.0, damping=0.0, mass=0.0) -> bool:
        if not self._gate_rank(rank, inv_deg, launch, scratch, new_rank):
            return False
        x, contrib, diff = scratch
        _rank_step_kernel(
            rank, inv_deg, x, contrib, *launch, new_rank is not None,
            diff if new_rank is None else new_rank, diff, c0, damping, mass)
        return True
