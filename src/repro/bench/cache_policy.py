"""Cache economics: digest parity and GDSF vs LRU eviction.

Not a paper table — this experiment prices the serving layer's cache
economics (:mod:`repro.service.economics`).  Two phases:

``parity``
    The ``mixed`` golden trace replayed against a fresh service under
    every (policy × backend) pair, diffing every recorded digest —
    eviction economics must never change answers.  Serving builds no
    catalog artifact (cc is a union-find over the CSR as it is), so
    each replay's ``builds`` reads 0.

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

from repro.bench.report import ExperimentReport
from repro.errors import TigrError
from repro.service import (
    AnalyticsService,
    ArtifactKey,
    GraphCatalog,
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


def _replay_once(trace, graphs, *, policy: str, backend: str, workers: int):
    """One fresh-service replay; returns (report, p95_s, catalog builds)."""
    catalog = GraphCatalog(policy=policy)
    with AnalyticsService(catalog, workers=workers, backend=backend) as service:
        report = replay_trace(trace, service=service, graphs=graphs)
        p95 = service.metrics.stage_percentile("total", 0.95)
    return report, p95, catalog.stats.builds


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
    """Golden-trace digest parity + eviction-policy economics."""
    report = ExperimentReport(
        "Cache policy economics",
        f"mixed golden trace, lru vs gdsf ({workers} workers)",
    )
    if not os.path.exists(trace_path):
        raise TigrError(
            f"golden trace {trace_path!r} not found; pass trace_path="
        )
    trace = load_trace(trace_path)
    graphs = resolve_trace_graphs(trace)

    # -- digest parity across every (policy × backend) pair ------------
    parity_clean = True
    for policy in ("lru", "gdsf"):
        for backend in ("threads", "processes"):
            replay, p95, builds = _replay_once(
                trace, graphs, policy=policy, backend=backend, workers=workers,
            )
            parity_clean = parity_clean and replay.ok
            report.add_row(
                phase="parity",
                policy=policy,
                backend=backend,
                queries=replay.requests_submitted,
                p95_ms=round(p95 * 1e3, 3),
                builds=builds,
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
