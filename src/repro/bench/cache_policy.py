"""Cache economics: pre-warm cold starts, GDSF vs LRU eviction.

Not a paper table — this experiment prices the serving layer's cache
economics (:mod:`repro.service.economics`).  Three phases:

``cold-start`` / ``prewarmed``
    The ``mixed`` golden trace replayed against a fresh service,
    without and with a pre-warm pass over the same trace.  Its one cc
    request reads the one artifact the catalog builds, so the
    replay's own ``builds`` read 1 cold and 0 prewarmed, and its
    ``catalog_hits`` are all ``prewarm_hits``.
    ``extras["prewarm_p95_ratio"]`` is prewarmed p95 / cold p95.

``parity``
    The same prewarmed replay across every (policy × backend) pair,
    diffing every recorded digest — eviction economics must never
    change answers.  The ``processes`` pairs publish cc's pre-warmed
    graph to the shared tier and hydrate it back.

``policy:mixed-cost`` / ``policy:uniform-recency``
    Synthetic eviction duels with controlled build costs.  The mixed
    workload (one expensive hot artifact + cheap one-shot scans) is
    where GDSF earns its keep; the uniform-recency workload (equal
    costs, sliding locality window) is LRU's home turf and is
    reported honestly — GDSF is allowed to lose there, and the
    ``when LRU is still right`` section of docs/cache-economics.md
    points at these rows.

The golden trace pins its own graph recipes (fingerprint-verified),
so ``scale`` only shrinks the synthetic policy duels.
"""

from __future__ import annotations

import os
import random
import time

from repro.bench.report import ExperimentReport
from repro.errors import TigrError
from repro.service import (
    AnalyticsService,
    ArtifactKey,
    GraphCatalog,
    Prewarmer,
    load_trace,
    replay_trace,
    resolve_trace_graphs,
)

#: the golden trace this experiment replays (see tests/traces/).
DEFAULT_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))),
    "tests", "traces", "mixed.jsonl",
)


class _SimArtifact:
    """Synthetic artifact with a dialled-in build cost and size.

    The eviction duel needs artifacts whose ``build_seconds`` and
    ``nbytes()`` are exact inputs, not measurements — the catalog's
    ``seconds_building`` then *is* the simulated rebuild bill.
    """

    def __init__(self, build_seconds: float, size: int) -> None:
        self.build_seconds = float(build_seconds)
        self._size = int(size)

    def nbytes(self) -> int:
        return self._size


def _sim_key(tag: str) -> ArtifactKey:
    return ArtifactKey(graph_fingerprint=f"{tag:0>64s}", recipe="none")


def _replay_once(
    trace, graphs, *, policy: str, backend: str, workers: int, prewarm: bool,
):
    """One fresh-service replay; returns (report, p95_s, seconds, hit_rate,
    replay catalog hits, replay catalog builds, catalog)."""
    catalog = GraphCatalog(policy=policy)
    with AnalyticsService(catalog, workers=workers, backend=backend) as service:
        if prewarm:
            Prewarmer(service, trace, graphs=graphs).run_inline()
        hits_before, builds_before = catalog.stats.hits, catalog.stats.builds
        start = time.perf_counter()
        report = replay_trace(trace, service=service, graphs=graphs)
        elapsed = time.perf_counter() - start
        p95 = service.metrics.stage_percentile("total", 0.95)
        hit_rate = service.metrics.cache_hit_rate
    return (report, p95, elapsed, hit_rate, catalog.stats.hits - hits_before,
            catalog.stats.builds - builds_before, catalog)


def _policy_duel(report: ExperimentReport, scale: float) -> None:
    """Synthetic eviction duels: identical streams, both policies."""
    steps = max(16, int(160 * scale))
    rng = random.Random(2018)
    size = 50_000
    hot = _sim_key("hot")
    cheap = [_sim_key(f"cheap{i}") for i in range(16)]
    uniform = [_sim_key(f"uni{i}") for i in range(12)]

    # mixed-cost: one 5 s hot artifact re-read every 8th request, with
    # 50 ms one-shot scans between — each scan burst is longer than the
    # 4-entry tier, so pure recency flushes the hot artifact every
    # cycle while cost-aware eviction sacrifices the scans instead.
    mixed = []
    for step in range(steps):
        mixed.append((hot, 5.0) if step % 8 == 0
                     else (rng.choice(cheap), 0.05))
    # uniform-recency: equal costs, sliding window of locality
    recency = []
    for step in range(steps):
        window = uniform[(step // 6) % 8:][:4] or uniform[:4]
        recency.append((rng.choice(window), 0.1))

    duels = {"mixed-cost": mixed, "uniform-recency": recency}
    building = {}
    for workload, stream in duels.items():
        for policy in ("lru", "gdsf"):
            catalog = GraphCatalog(max_entries=4, policy=policy)
            for key, cost in stream:
                catalog.get_for_key(
                    key, lambda cost=cost: _SimArtifact(cost, size)
                )
            stats = catalog.stats
            building[(workload, policy)] = stats.seconds_building
            report.add_row(
                phase=f"policy:{workload}",
                policy=policy,
                backend="-",
                queries=len(stream),
                rebuild_s=round(stats.seconds_building, 3),
                hit_rate=round(stats.hit_rate, 3),
                evictions=stats.evictions,
            )
    report.extras["gdsf_mixed_rebuild_ratio"] = (
        building[("mixed-cost", "gdsf")]
        / max(building[("mixed-cost", "lru")], 1e-12)
    )
    report.extras["gdsf_recency_rebuild_ratio"] = (
        building[("uniform-recency", "gdsf")]
        / max(building[("uniform-recency", "lru")], 1e-12)
    )


def cache_policy(
    scale: float = 1.0,
    *,
    trace_path: str = DEFAULT_TRACE,
    workers: int = 2,
) -> ExperimentReport:
    """Pre-warm builds before traffic + eviction-policy economics."""
    report = ExperimentReport(
        "Cache policy economics",
        f"mixed golden trace, prewarm on/off, lru vs gdsf "
        f"({workers} workers)",
    )
    if not os.path.exists(trace_path):
        raise TigrError(
            f"golden trace {trace_path!r} not found; pass trace_path="
        )
    trace = load_trace(trace_path)
    graphs = resolve_trace_graphs(trace)

    # -- cold start vs prewarmed (threads, gdsf) -----------------------
    p95s = {}
    for prewarm in (False, True):
        phase = "prewarmed" if prewarm else "cold-start"
        replay, p95, elapsed, hit_rate, hits, builds, catalog = _replay_once(
            trace, graphs, policy="gdsf", backend="threads",
            workers=workers, prewarm=prewarm,
        )
        p95s[phase] = p95
        report.add_row(
            phase=phase,
            policy="gdsf",
            backend="threads",
            queries=replay.requests_submitted,
            p95_ms=round(p95 * 1e3, 3),
            seconds=round(elapsed, 4),
            hit_rate=round(hit_rate, 3),
            builds=builds,
            catalog_hits=hits,
            prewarm_built=catalog.stats.prewarm_built,
            prewarm_hits=catalog.stats.prewarm_hits,
            digests_ok=replay.ok,
        )
    report.extras["prewarm_p95_ratio"] = (
        p95s["prewarmed"] / max(p95s["cold-start"], 1e-12)
    )

    # -- digest parity across every (policy × backend) pair ------------
    parity_clean = True
    for policy in ("lru", "gdsf"):
        for backend in ("threads", "processes"):
            replay, p95, *_ = _replay_once(
                trace, graphs, policy=policy, backend=backend,
                workers=workers, prewarm=True,
            )
            parity_clean = parity_clean and replay.ok
            report.add_row(
                phase="parity",
                policy=policy,
                backend=backend,
                queries=replay.requests_submitted,
                p95_ms=round(p95 * 1e3, 3),
                digests_checked=replay.digests_checked,
                digests_matched=(
                    replay.digests_checked - len(replay.mismatches)
                ),
                digests_ok=replay.ok,
            )
    report.extras["parity_clean"] = parity_clean

    # -- synthetic eviction duels --------------------------------------
    _policy_duel(report, scale)
    return report
