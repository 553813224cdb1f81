#!/usr/bin/env python
"""Regenerate the golden trace fixtures under ``tests/traces/``.

Run from the repo root::

    PYTHONPATH=src python tools/make_golden_traces.py [outdir]

Each fixture is recorded by driving a real :class:`AnalyticsService`
with a :class:`TraceRecorder` attached, so the files carry genuine
result digests; ``tests/test_service_replay.py`` replays them on both
backends and any digest drift fails the suite.  The request mixes are
fully seeded — regenerating on an unchanged tree must produce traces
that replay clean (timing fields and request UUIDs differ run to run,
digests must not).

Fixture design (see ``tests/traces/README.md``):

``bfs-heavy.jsonl``
    One analytic, many sources: 16 BFS queries on the pokec stand-in
    across the three transform flavours, exercising same-graph
    coalescing and source dedup.
``mixed.jsonl``
    Every analytic the service knows, single- and multi-source,
    varied K — the broad regression net.
``degraded.jsonl``
    The deadline paths, made deterministic by construction: a udt
    query under a 0.1s budget (enough for its cold build; the digest
    is the same if the planner degrades it to the raw CSR instead),
    then a wall of cold builds saturating every worker, then a
    10 microsecond deadline that is always already expired when a
    dispatcher finally dequeues it ("timed out in queue").  Digests
    cover values + error text only, so both outcomes replay stably.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from repro.graph.datasets import load_dataset
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    TraceRecorder,
    dataset_graph_entry,
)

#: bump when the fixture *design* changes (not on mere regeneration).
FIXTURE_NOTE = "golden fixture v1; regenerate: tools/make_golden_traces.py"


def _record(
    path: Path,
    graphs: dict,
    requests,
    *,
    workers: int = 2,
    note: str = FIXTURE_NOTE,
) -> int:
    """Drive one service over ``requests``, capturing to ``path``."""
    recipes = {
        name: dataset_graph_entry(
            spec["dataset"], scale=spec["scale"],
            fingerprint=spec["graph"].fingerprint(),
        )
        for name, spec in graphs.items()
    }
    recorder = TraceRecorder(str(path), graphs=recipes, note=note)
    with AnalyticsService(
        GraphCatalog(), workers=workers, queue_size=256, recorder=recorder
    ) as service:
        for name, spec in graphs.items():
            service.register(name, spec["graph"])
        tickets = service.submit_batch(list(requests))
        for ticket in tickets:
            ticket.result(300.0)
    recorder.close()
    print(
        f"  {path.name}: {recorder.requests_recorded} request(s), "
        f"{recorder.results_recorded} digest(s)"
    )
    return recorder.results_recorded


def bfs_heavy(outdir: Path) -> None:
    graph = load_dataset("pokec", scale=0.2)
    rng = random.Random(20180324)
    requests = []
    for index in range(16):
        transform = ("auto", "udt", "virtual")[index % 3]
        requests.append(
            QueryRequest.single(
                "bfs", "pokec", rng.randrange(graph.num_nodes),
                transform=transform,
            )
        )
    _record(
        outdir / "bfs-heavy.jsonl",
        {"pokec": {"dataset": "pokec", "scale": 0.2, "graph": graph}},
        requests,
    )


def mixed(outdir: Path) -> None:
    graph = load_dataset("pokec", scale=0.2)
    rng = random.Random(7)
    requests = []
    for algorithm in ("bfs", "sssp", "sswp", "bc"):
        for transform in ("auto", "udt"):
            requests.append(
                QueryRequest.single(
                    algorithm, "pokec", rng.randrange(graph.num_nodes),
                    transform=transform,
                )
            )
    # multi-source lanes + a custom K + the sourceless analytics
    requests.append(
        QueryRequest(
            "bfs", "pokec",
            sources=tuple(rng.randrange(graph.num_nodes) for _ in range(4)),
            transform="udt",
        )
    )
    requests.append(
        QueryRequest(
            "sssp", "pokec",
            sources=tuple(rng.randrange(graph.num_nodes) for _ in range(3)),
            transform="virtual", degree_bound=8,
        )
    )
    requests.append(QueryRequest("cc", "pokec", transform="udt"))
    requests.append(QueryRequest("pr", "pokec", transform="virtual"))
    _record(
        outdir / "mixed.jsonl",
        {"pokec": {"dataset": "pokec", "scale": 0.2, "graph": graph}},
        requests,
    )


def degraded(outdir: Path) -> None:
    graph = load_dataset("pokec", scale=2.0)
    rng = random.Random(13)

    def source() -> int:
        return rng.randrange(graph.num_nodes)

    requests = []
    # Head of the stream, workers idle: dequeued in microseconds with
    # a 0.1s budget, which funds the cold udt build (2.4 ms padded estimate).
    # Degradation is invisible to the digest (same answers), so the
    # head replays stably whichever plan runs.  One
    # multi-source request, not three single-source ones: a single
    # request is a single batch under every replay submission window,
    # so it can never queue behind its own siblings and expire.
    requests.append(
        QueryRequest(
            "bfs", "pokec-xl",
            sources=(source(), source(), source()),
            transform="udt", timeout_s=0.1,
        )
    )
    # A wall of distinct (algorithm, transform, K) cells: each is its
    # own batch and a cold artifact build, saturating every dispatcher
    # for far longer than the next request's deadline.
    for algorithm, transform, k in (
        ("bfs", "virtual", None),
        ("sssp", "udt", None),
        ("sssp", "virtual", None),
        ("sswp", "udt", None),
        ("bc", "udt", None),
        ("bfs", "virtual", 8),
        ("cc", "udt", None),
        ("pr", "udt", None),
    ):
        if algorithm in ("cc", "pr"):
            requests.append(
                QueryRequest(
                    algorithm, "pokec-xl", transform=transform, degree_bound=k
                )
            )
        else:
            requests.append(
                QueryRequest.single(
                    algorithm, "pokec-xl", source(),
                    transform=transform, degree_bound=k,
                )
            )
    # Tail of the stream: transform="none" so it cannot coalesce into
    # any batch above, and a 10us deadline no dispatcher can beat
    # while the wall is building.  Always "timed out in queue"; the
    # error text is part of the digest, so the failure replays stably.
    requests.append(
        QueryRequest.single(
            "bfs", "pokec-xl", source(), transform="none", timeout_s=1e-5
        )
    )
    _record(
        outdir / "degraded.jsonl",
        {"pokec-xl": {"dataset": "pokec", "scale": 2.0, "graph": graph}},
        requests,
    )


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    outdir = Path(args[0]) if args else Path("tests/traces")
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"recording golden traces into {outdir}/")
    bfs_heavy(outdir)
    mixed(outdir)
    degraded(outdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
