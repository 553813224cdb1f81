"""Service soak: concurrent submitters, mixed outcomes, conservation.

Budget is dialable through the environment so CI can run a short pass
on every push and a longer one on demand:

``REPRO_SOAK_THREADS``   submitter threads (default 4)
``REPRO_SOAK_REQUESTS``  requests per submitter (default 40)
``REPRO_SOAK_SEED``      workload seed (default 20180324)

The invariant under test is *ticket-state conservation*: every
successfully submitted ticket resolves exactly once, and the
:class:`ServiceMetrics` counters partition them — ``queries_total``
equals the submitted count, and ok/failed/cancelled results match the
aggregate's ``queries_failed``/``queries_cancelled`` exactly.  A
ticket rejected at submit time (queue full) must never surface in any
counter.
"""

import os
import random
import threading

import pytest

from repro.errors import ServiceError
from repro.graph.generators import rmat
from repro.service import AnalyticsService, GraphCatalog, QueryRequest

SOAK_THREADS = int(os.environ.get("REPRO_SOAK_THREADS", "4"))
SOAK_REQUESTS = int(os.environ.get("REPRO_SOAK_REQUESTS", "40"))
SOAK_SEED = int(os.environ.get("REPRO_SOAK_SEED", "20180324"))


@pytest.mark.soak
class TestServiceSoak:
    def test_concurrent_mixed_workload_conserves_tickets(self):
        graph = rmat(600, 5000, seed=5, weight_range=(1, 8))
        service = AnalyticsService(
            GraphCatalog(), workers=3, queue_size=32, backend="threads"
        )
        service.register("g", graph)

        tickets = []
        rejected = [0]
        lock = threading.Lock()

        def submitter(index: int) -> None:
            rng = random.Random(SOAK_SEED + index)
            mine = []
            refused = 0
            for _ in range(SOAK_REQUESTS):
                roll = rng.random()
                algorithm = rng.choice(("bfs", "sssp", "pr"))
                kwargs = {}
                if roll < 0.15:
                    # a deadline so tight it usually expires in queue
                    kwargs["timeout_s"] = 1e-4
                # churn the catalog: distinct K cells force cold builds,
                # which is what keeps the queue under real pressure
                # (pr only runs on the virtual overlay, never udt)
                transform = (
                    "virtual"
                    if algorithm == "pr"
                    else rng.choice(("udt", "virtual"))
                )
                k = rng.choice((None, 4, 8, 16))
                if algorithm == "pr":
                    request = QueryRequest(
                        "pr", "g", transform=transform, degree_bound=k, **kwargs
                    )
                else:
                    request = QueryRequest.single(
                        algorithm, "g", rng.randrange(graph.num_nodes),
                        transform=transform, degree_bound=k, **kwargs
                    )
                try:
                    ticket = service.submit(
                        request, block=rng.random() < 0.5
                    )
                except ServiceError:
                    refused += 1  # queue full on a non-blocking submit
                    continue
                if rng.random() < 0.1:
                    ticket.cancel()  # may race completion; either is fine
                mine.append(ticket)
            with lock:
                tickets.extend(mine)
                rejected[0] += refused

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(SOAK_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # clean shutdown drains everything still queued
        service.close(wait=True)

        results = [ticket.result(0.5) for ticket in tickets]
        ok = sum(1 for r in results if r.ok)
        cancelled = sum(1 for r in results if r.error == "cancelled")
        timed_out = sum(
            1 for r in results if r.error == "timed out in queue"
        )
        failed = sum(1 for r in results if not r.ok)
        assert failed == cancelled + timed_out, (
            "the only failure modes this workload can produce are "
            "cancellation and queue expiry"
        )

        summary = service.metrics.summary()
        # conservation: submitted tickets, and nothing else, are counted
        assert summary["queries_total"] == len(tickets)
        assert summary["queries_cancelled"] == cancelled
        # cancelled tickets record cancelled=True/failed=False, so the
        # aggregate's failure counter is exactly the queue expiries
        assert summary["queries_failed"] == timed_out
        # late finishes also count as timed out (metrics-only), so >=
        assert summary["queries_timed_out"] >= timed_out
        assert ok == len(tickets) - failed
        # rejected submits never became tickets or records
        assert len(tickets) + rejected[0] == SOAK_THREADS * SOAK_REQUESTS
        # the workload exercised what it claims to exercise
        assert ok > 0
        for result in results:
            if result.ok:
                assert result.values, "ok result with no value arrays"

        # shutdown is sticky: no new work, no leaked dispatchers
        with pytest.raises(ServiceError, match="stopped"):
            service.submit(QueryRequest.single("bfs", "g", 0))

    def test_cancel_storm_resolves_every_ticket(self):
        graph = rmat(400, 3000, seed=6, weight_range=(1, 8))
        with AnalyticsService(
            GraphCatalog(), workers=2, queue_size=64, backend="threads"
        ) as service:
            service.register("g", graph)
            blocker = threading.Event()
            original = service._prepare

            def slow_prepare(g, algorithm):
                blocker.wait(5)
                return original(g, algorithm)

            service._prepare = slow_prepare
            tickets = [
                service.submit(
                    QueryRequest.single("bfs", "g", s % graph.num_nodes)
                )
                for s in range(24)
            ]
            cancellers = [
                threading.Thread(
                    target=lambda shard: [t.cancel() for t in shard],
                    args=(tickets[i::4],),
                )
                for i in range(4)
            ]
            for thread in cancellers:
                thread.start()
            for thread in cancellers:
                thread.join()
            blocker.set()
            results = [t.result(30.0) for t in tickets]
        # every ticket resolved exactly one way; the queue head may
        # have started executing before the storm, everything else
        # was drained as cancelled
        assert all(r.ok or r.error == "cancelled" for r in results)
        summary = service.metrics.summary()
        assert summary["queries_cancelled"] == sum(
            1 for r in results if r.error == "cancelled"
        )
        assert summary["queries_total"] == len(tickets)
