"""Executable spec of the compiled kernels: one plain loop per C function.

One loop per C function in ``repro.engine.kernels._C_UNITS``, named as
it is and taking exactly its prototype's arguments, in order: ``None``
for a NULL pointer, numpy arrays for the others (``stats`` is the
hooks' ``ctypes`` array).  Each returns and writes what the C does, and
the C text is a transliteration of these loops, operation for
operation (:func:`_relax`, :func:`_fold` and :func:`_run` are its
``RELAX``, ``FOLD`` and ``RUN`` macros; :func:`_next_frontier`,
:func:`_bc_forward`, :func:`_bc_backward`, :func:`_pairwise`,
:func:`_count_ids`, :func:`_transpose` and :func:`_find_root` its
``static`` helpers of those names).  Every loop walks each active
node's CSR row in order.  The ADD loops match the engines' vectorised
numpy path bitwise: bc's numpy bodies fold their launch's edges sorted
by CSR edge index, PageRank's gather takes each destination's sources
in ascending order (as every walk reaches them), the fold is the same
addition ``ufunc.at`` applies element-wise, and a sum is numpy's
pairwise ``add.reduce``.  The MIN/MAX push steps relax in place, as
the C does, so they match the numpy path at the fixpoint.

:class:`ReferenceBackend` hands them to the production ``try_*`` hooks
— the same gates, the same calls the C kernels receive — so the
lockstep suites in ``tests/test_kernels.py`` compare spec and C kernel
superstep by superstep, and each against the numpy body.  It is
registered by a fixture only — never at import — so ``auto`` can not
pick an interpreted loop.
"""

from __future__ import annotations

from repro.engine.kernels import KernelBackend


def _relax(s, wt, relax):
    # RELAX: additive, widest path, propagation
    if relax == 0:
        return s + wt
    if relax == 1:
        return s if s < wt else wt
    return s


def _fold(v, d, c, reduce):
    # FOLD: MIN (reduce 0) or MAX into v[d] -> whether it stored
    if not (c < v[d] if reduce == 0 else c > v[d]):
        return False
    v[d] = c
    return True


def push_step(v, rv, active, nactive, off, targets, w, mark, changed,
              stats, has_w, relax, reduce):
    # one MIN/MAX superstep, in place: each active row in order ->
    # changed count
    cnt = kept = total = 0
    for i in range(nactive):
        p = active[i]
        s = v[p]
        total += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            c = _relax(s, w[e] if has_w else 1.0, relax)
            if _fold(v, d, c, reduce):
                changed[cnt] = d
                cnt += not mark[d]
                mark[d] = 1
    for i in range(cnt):
        d = changed[i]
        mark[d] = 0
        if v[d] != rv[d]:
            changed[kept] = d
            kept += 1
    stats[0] = total
    return kept


def push_lanes_step(v, rv, active, nactive, off, targets, w, mark,
                    changed, stats, has_w, relax, reduce, lanes, live):
    # push_step over node-major (n, lanes) matrices, in place like it;
    # every touched row is then compared, committed to rv and its
    # differing lanes flagged live
    cnt = kept = total = 0
    for i in range(nactive):
        p = active[i]
        total += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            wt = w[e] if has_w else 1.0
            for k in range(lanes):
                c = _relax(v[p, k], wt, relax)
                if c < v[d, k] if reduce == 0 else c > v[d, k]:
                    v[d, k] = c
            changed[cnt] = d
            cnt += not mark[d]
            mark[d] = 1
    for k in range(lanes):
        live[k] = 0
    for i in range(cnt):
        d = changed[i]
        mark[d] = 0
        differs = False
        for k in range(lanes):
            if v[d, k] != rv[d, k]:
                live[k] = 1
                differs = True
            rv[d, k] = v[d, k]
        changed[kept] = d
        kept += differs
    stats[0] = total
    stats[1] = sum(int(live[k]) for k in range(lanes))
    return kept


def hop_step(new_w, frontier_w, visited, values, lanes, level, active,
             nactive, off, targets, mark, changed, stats):
    # one MS-BFS level over single-word lane masks (held as Python
    # ints): OR frontier words along the walk, strip visited, stamp
    # `level` into each fresh (node, lane) cell
    in_row = (1 << lanes) - 1  # a stray bit above `lanes` stamps nothing
    cnt = kept = total = live = 0
    for i in range(nactive):
        p = active[i]
        bits = int(frontier_w[p])
        total += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            new_w[d] = int(new_w[d]) | bits
            changed[cnt] = d
            cnt += not mark[d]
            mark[d] = 1
    for i in range(nactive):
        frontier_w[active[i]] = 0
    for i in range(cnt):
        d = changed[i]
        fresh = int(new_w[d]) & ~int(visited[d]) & in_row
        mark[d] = 0
        new_w[d] = fresh
        if not fresh:
            continue
        visited[d] = int(visited[d]) | fresh
        live |= fresh
        changed[kept] = d
        kept += 1
        for k in range(lanes):
            if fresh >> k & 1:
                values[d, k] = level
    stats[0] = total
    stats[1] = bin(live).count("1")
    return kept


def _next_frontier(changed, kept, frontier, mark, n, dense):
    # changed[:kept] into frontier in ascending order: a scan of the
    # marks when the frontier is dense (Frontier's occupancy test),
    # else a sort -> whether it is dense
    if n > 0 and kept / n >= dense:
        for i in range(kept):
            mark[changed[i]] = 1
        j = 0
        for d in range(n):
            if mark[d]:
                mark[d] = 0
                frontier[j] = d
                j += 1
        return True
    frontier[:kept] = sorted(changed[:kept])
    return False


def _run(lanes, step, commit, frontier, nactive, mark, changed, stats, n,
         max_iterations, dense):
    # RUN: step(active, nactive, step_stats) until no row changes or
    # max_iterations steps, commit(kept) after each step that changed
    # rows; stats = {iterations, edges, dense iterations, lanes live
    # before each step} -> converged
    step_stats = [0, lanes]
    dense_now = n > 0 and nactive / n >= dense
    stats[0] = stats[1] = stats[2] = stats[3] = 0
    while stats[0] < max_iterations:
        if nactive == 0:
            return True
        stats[2] += dense_now
        stats[3] += step_stats[1]
        kept = step(frontier, nactive, step_stats)
        stats[0] += 1
        stats[1] += step_stats[0]
        if kept == 0:
            return True
        commit(kept)
        dense_now = _next_frontier(changed, kept, frontier, mark, n, dense)
        nactive = kept
    return False


def push_run(v, rv, frontier, nactive, off, targets, w, mark, changed,
             stats, has_w, relax, reduce, n, max_iterations, dense):
    # run_push's loop over push_step, rv committed

    def commit(kept):
        for i in range(kept):
            rv[changed[i]] = v[changed[i]]

    return _run(
        1, lambda active, nactive, step: push_step(
            v, rv, active, nactive, off, targets, w, mark, changed, step,
            has_w, relax, reduce),
        commit, frontier, nactive, mark, changed, stats, n, max_iterations,
        dense)


def push_lanes_run(v, rv, frontier, nactive, off, targets, w, mark,
                   changed, stats, has_w, relax, reduce, lanes, live, n,
                   max_iterations, dense):
    # run_push_lanes' loop over push_lanes_step (which commits rv)
    return _run(
        lanes, lambda active, nactive, step: push_lanes_step(
            v, rv, active, nactive, off, targets, w, mark, changed, step,
            has_w, relax, reduce, lanes, live),
        lambda kept: None, frontier, nactive, mark, changed, stats, n,
        max_iterations, dense)


def hop_run(new_w, frontier_w, visited, values, lanes, level, frontier,
            nactive, off, targets, mark, changed, stats, n, max_iterations,
            dense):
    # run_push_lanes' hop levels after `level` over hop_step, the two
    # word arrays trading places between levels
    words = [new_w, frontier_w]
    levels = [level]

    def step(active, nactive, step_stats):
        levels[0] += 1.0
        return hop_step(words[0], words[1], visited, values, lanes, levels[0],
                        active, nactive, off, targets, mark, changed,
                        step_stats)

    def commit(kept):
        words.reverse()

    return _run(lanes, step, commit, frontier, nactive, mark, changed, stats,
                n, max_iterations, dense)


def _by_id(ids):
    # qsort with by_id: ascending node ids
    ids[:] = sorted(ids)


def _bc_forward(levels, sigma, frontier, nfrontier, off, targets, level,
                found, edges):
    # one Brandes forward level: settle depth `level` below the frontier
    # and count its shortest paths in the same walk -> found count
    cnt = 0
    for i in range(nfrontier):
        p = frontier[i]
        s = sigma[p]
        edges[0] += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            if levels[d] < 0:
                levels[d] = level
                found[cnt] = d
                cnt += 1
            if levels[d] == level:
                sigma[d] += s
    return cnt


def _bc_backward(levels, sigma, delta, frontier, nfrontier, off, targets,
                 edges):
    # one Brandes backward level: each frontier node's dependency from
    # its children one level down, its row in order
    for i in range(nfrontier):
        p = frontier[i]
        down = levels[p] + 1
        s = sigma[p]
        acc = delta[p]
        edges[0] += off[p + 1] - off[p]
        for e in range(off[p], off[p + 1]):
            d = targets[e]
            if levels[d] == down and sigma[d] > 0:
                q = s / sigma[d]
                o = 1.0 + delta[d]
                acc += q * o
        delta[p] = acc


def bc_run(levels, sigma, delta, order, source, off, targets, n,
           max_iterations, dense, stats):
    # bc()'s two phases: forward levels, each found level sorted into
    # order behind the last (a scan of the level marks when dense,
    # else a sort), then backward over the same ranges deepest-first,
    # but for the deepest one run
    lo, hi, last, depth = 0, 1, 0, 0
    edges = [0]
    order[0] = source
    while hi > lo and depth < max_iterations:
        depth += 1
        level = depth
        cnt = _bc_forward(levels, sigma, order[lo:], hi - lo, off, targets,
                          level, order[hi:], edges)
        if cnt / n >= dense:
            j, d = hi, 0
            while j < hi + cnt:
                if levels[d] == level:
                    order[j] = d
                    j += 1
                d += 1
        else:
            _by_id(order[hi:hi + cnt])
        last, lo, hi = lo, hi, hi + cnt
    end = last
    for level in range(depth - 2, -1, -1):
        start = end
        while start > 0 and levels[order[start - 1]] == level:
            start -= 1
        _bc_backward(levels, sigma, delta, order[start:], end - start, off,
                     targets, edges)
        end = start
    stats[0] = depth + max(depth - 1, 0)
    stats[1] = edges[0]


def _pairwise(a, n):
    # numpy's float64 add.reduce: a plain loop below 8 elements, eight
    # accumulators up to 128, else halves split at a multiple of 8
    if n < 8:
        res = 0.0
        for i in range(n):
            res += a[i]
        return res
    if n <= 128:
        r = [a[j] for j in range(8)]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(i, n):
            res += a[i]
        return res
    half = n // 2 - (n // 2) % 8
    return _pairwise(a, half) + _pairwise(a[half:], n - half)


def _count_ids(ids, m, counts, n):
    # counts[i] += how often i occurs in ids[:m] -> the largest count
    for e in range(m):
        counts[ids[e]] += 1
    return max(counts[:n], default=0)


def rank_layout(off, targets, n, room, deg, bucket, perm, chunk, cols):
    # the transpose as SELL-8: rows by in-degree (counted here),
    # descending and stable (a counting sort), 8 to a chunk,
    # column-major, padded with id n -> slots, or the top in-degree
    # negated when it exceeds room
    top = _count_ids(targets, off[n], deg, n)
    if top > room:
        return -top
    for d in range(n):
        bucket[deg[d]] += 1
    at = 0
    for k in range(top, -1, -1):
        bucket[k], at = at, at + bucket[k]
    for d in range(n):
        perm[bucket[deg[d]]] = d
        bucket[deg[d]] += 1
    chunk[0] = 0
    for i in range(0, n, 8):
        chunk[i // 8 + 1] = chunk[i // 8] + 8 * deg[perm[i]]
    for i in range(n):
        deg[perm[i]] = chunk[i // 8] + i % 8
    slots = chunk[(n + 7) // 8]
    cols[:slots] = n
    for p in range(n):
        for e in range(off[p], off[p + 1]):
            cols[deg[targets[e]]] = p
            deg[targets[e]] += 8
    return slots


def rank_gather(rank, inv_deg, x, contrib, perm, chunk, cols, n):
    # one iteration's contributions, each row's sources summed in order
    # from +0.0 (the C runs a chunk's eight rows side by side)
    for i in range(n):
        x[i] = rank[i] * inv_deg[i]
    x[n] = 0.0
    for c in range(0, (n + 7) // 8):
        acc = [0.0] * 8
        for s in range(chunk[c], chunk[c + 1], 8):
            for r in range(8):
                acc[r] += x[cols[s + r]]
        for r in range(min(8, n - c * 8)):
            contrib[perm[c * 8 + r]] = acc[r]


def rank_run(rank, spare, inv_deg, x, contrib, perm, chunk, cols, n, dangling,
             ndangling, damping, tolerance, max_iterations, stats):
    # pagerank()'s loop, rank.damp's recipe: the dangling mass, the
    # gather, the damped update and its L1 distance, both sums numpy's
    # -> the last distance; the ranks end in `rank`
    c0 = (1.0 - damping) / n
    cur, nxt = rank, spare
    distance = 0.0
    stats[0] = stats[1] = 0
    while stats[0] < max_iterations:
        for i in range(ndangling):
            x[i] = cur[dangling[i]]
        mass = (0.0 + _pairwise(x, ndangling)) / n
        rank_gather(cur, inv_deg, x, contrib, perm, chunk, cols, n)
        for i in range(n):
            t = contrib[i] + mass
            scaled = damping * t
            nxt[i] = c0 + scaled
            x[i] = abs(nxt[i] - cur[i])
        distance = 0.0 + _pairwise(x, n)
        cur, nxt = nxt, cur
        stats[0] += 1
        if distance < tolerance:
            stats[1] = 1
            break
    if cur is not rank:
        rank[:] = cur
    return distance


def _transpose(off, targets, n, toff, src, cursor):
    # the transpose: toff by a counting pass, each row's sources ascending
    cursor[:n] = 0
    _count_ids(targets, off[n], cursor, n)
    toff[0] = 0
    for d in range(n):
        toff[d + 1] = toff[d] + cursor[d]
        cursor[d] = toff[d]
    for p in range(n):
        for e in range(off[p], off[p + 1]):
            src[cursor[targets[e]]] = p
            cursor[targets[e]] += 1


def symmetrize(off, targets, n, weighted_order, toff, tsrc, cursor, u_off,
               u, sym_off, sym):
    # to_undirected's rows, each node's out- and in-neighbours once: the
    # out-row in order, then the in-neighbours not in it, ascending (a
    # stamp per node); weighted_order transposes that symmetric graph,
    # each row ascending -> the length
    k = 0
    _transpose(off, targets, n, toff, tsrc, cursor)
    cursor[:n] = -1
    u_off[0] = 0
    for p in range(n):
        out_row = [targets[e] for e in range(off[p], off[p + 1])]
        for d in out_row + [tsrc[j] for j in range(toff[p], toff[p + 1])]:
            if cursor[d] != p:
                cursor[d] = p
                u[k] = d
                k += 1
        u_off[p + 1] = k
    if weighted_order:
        _transpose(u_off, u, n, sym_off, sym, cursor)
    return k


def _find_root(parent, x):
    # x's root, halving the path on the way up
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def components(off, targets, n, parent, labels):
    # the weak components: each edge hooks the larger of its ends' roots
    # under the smaller (a is p's root throughout its row), then one
    # ascending pass writes each node's root into labels
    for v in range(n):
        parent[v] = v
    for p in range(n):
        a = _find_root(parent, p)
        for e in range(off[p], off[p + 1]):
            b = _find_root(parent, targets[e])
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
                a = b
    for v in range(n):
        parent[v] = parent[parent[v]]
        labels[v] = float(parent[v])


#: the spec loop of every C function, by its name.
LOOPS = {loop.__name__: loop for loop in (
    push_step, push_lanes_step, hop_step, push_run, push_lanes_run, hop_run,
    bc_run, rank_layout, rank_gather, rank_run, symmetrize, components,
)}


class ReferenceBackend(KernelBackend):
    """The spec loops behind the production hooks and gates."""

    name = "reference"
    jit = True

    def function(self, name):
        return LOOPS[name]
