"""Asyncio bridge: awaitable tickets, backpressure, completion order."""

import asyncio
import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError, UnknownGraphError
from repro.service import AnalyticsService, GraphCatalog, QueryRequest
from repro.service.api.bridge import as_resolved, submit_batch_async


@pytest.fixture
def service(powerlaw_graph):
    with AnalyticsService(GraphCatalog(), workers=2) as svc:
        svc.register("g", powerlaw_graph)
        yield svc


class TestAwaitableTicket:
    def test_aresult_before_resolution(self, service):
        async def main():
            ticket = service.submit(QueryRequest.single("bfs", "g", 0))
            return await ticket.aresult()

        result = asyncio.run(main())
        assert result.ok

    def test_aresult_after_resolution_is_immediate(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        ticket.result(60.0)  # resolve synchronously first

        async def main():
            return await ticket.aresult()

        assert asyncio.run(main()).ok

    def test_aresult_timeout(self, service, monkeypatch):
        gate = threading.Event()
        original = service._prepare

        def stalled(*args, **kwargs):
            gate.wait(30.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(service, "_prepare", stalled)
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))

        async def main():
            await ticket.aresult(timeout=0.05)

        try:
            with pytest.raises(ServiceError, match="not finished within"):
                asyncio.run(main())
        finally:
            gate.set()
            ticket.result(60.0)

    def test_add_done_callback_after_resolution_fires(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        ticket.result(60.0)
        seen = []
        ticket.add_done_callback(lambda t, r: seen.append((t, r)))
        assert seen and seen[0][0] is ticket
        assert seen[0][1].ok

    def test_callback_exception_does_not_break_others(self, service):
        seen = []
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))

        def bad(_t, _r):
            raise RuntimeError("observer crashed")

        ticket.add_done_callback(bad)
        ticket.add_done_callback(lambda t, r: seen.append(r))
        result = ticket.result(60.0)
        assert result.ok
        # the crashing observer must not have eaten the later one
        deadline = time.perf_counter() + 5.0
        while not seen and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert seen and seen[0] is result

    def test_many_waiters_one_ticket(self, service):
        async def main():
            ticket = service.submit(QueryRequest.single("bfs", "g", 0))
            results = await asyncio.gather(
                *(ticket.aresult() for _ in range(8))
            )
            return results

        results = asyncio.run(main())
        assert len(results) == 8
        assert all(r is results[0] for r in results)


class TestSubmitBatchAsync:
    def test_submits_and_gathers(self, service):
        async def main():
            tickets = await submit_batch_async(
                service,
                [QueryRequest.single("bfs", "g", s) for s in range(4)],
            )
            return [await ticket.aresult() for ticket in tickets]

        results = asyncio.run(main())
        assert [r.ok for r in results] == [True] * 4
        # tickets come back in submission order
        assert [sorted(r.values) for r in results] == [[s] for s in range(4)]

    def test_backpressure_waits_then_raises(self, powerlaw_graph):
        gate = threading.Event()
        with AnalyticsService(
            GraphCatalog(), workers=1, queue_size=1
        ) as svc:
            svc.register("g", powerlaw_graph)
            original = svc._prepare

            def stalled(*args, **kwargs):
                gate.wait(30.0)
                return original(*args, **kwargs)

            svc._prepare = stalled
            # one item executing (stalled), one filling the queue:
            # every further admission sees a full queue
            stuck = svc.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)  # let the worker pick it up and stall
            queued = svc.submit(
                QueryRequest.single("bfs", "g", 1), block=False
            )

            async def main():
                t0 = time.monotonic()
                with pytest.raises(ServiceOverloadError):
                    await submit_batch_async(
                        svc,
                        [QueryRequest.single("bfs", "g", 2)],
                        max_wait_s=0.2,
                    )
                return time.monotonic() - t0

            waited = asyncio.run(main())
            assert waited >= 0.2  # it suspended, it did not give up early
            gate.set()
            assert stuck.result(60.0).ok
            assert queued.result(60.0).ok

    def test_backpressure_resolves_when_queue_drains(self, powerlaw_graph):
        gate = threading.Event()
        with AnalyticsService(
            GraphCatalog(), workers=1, queue_size=1
        ) as svc:
            svc.register("g", powerlaw_graph)
            original = svc._prepare

            def stalled(*args, **kwargs):
                gate.wait(30.0)
                return original(*args, **kwargs)

            svc._prepare = stalled
            stuck = svc.submit(QueryRequest.single("bfs", "g", 0))
            time.sleep(0.05)
            queued = svc.submit(
                QueryRequest.single("bfs", "g", 1), block=False
            )

            async def main():
                async def release():
                    await asyncio.sleep(0.1)
                    gate.set()

                opener = asyncio.ensure_future(release())
                tickets = await submit_batch_async(
                    svc,
                    [QueryRequest.single("bfs", "g", 2)],
                    max_wait_s=30.0,
                )
                await opener
                return [await ticket.aresult() for ticket in tickets]

            results = asyncio.run(main())
            assert results[0].ok
            assert stuck.result(60.0).ok and queued.result(60.0).ok

    def test_unknown_graph_raises_typed_error(self, service):
        async def main():
            await submit_batch_async(
                service, [QueryRequest.single("bfs", "nope", 0)]
            )

        with pytest.raises(UnknownGraphError, match="nope"):
            asyncio.run(main())

    def test_overload_error_is_service_error(self):
        assert issubclass(ServiceOverloadError, ServiceError)
        exc = ServiceOverloadError("full", retry_after_s=3.5)
        assert exc.retry_after_s == 3.5


class TestAsResolved:
    def test_completion_order_not_submission_order(
        self, powerlaw_graph, monkeypatch
    ):
        gate = threading.Event()
        slow_graph = powerlaw_graph.without_weights()
        with AnalyticsService(GraphCatalog(), workers=2) as svc:
            svc.register("fast", powerlaw_graph)
            svc.register("slow", slow_graph)
            original = svc._prepare

            def gated(graph, algorithm):
                if graph is slow_graph:
                    gate.wait(30.0)
                return original(graph, algorithm)

            monkeypatch.setattr(svc, "_prepare", gated)

            async def main():
                tickets = await submit_batch_async(
                    svc,
                    [
                        QueryRequest.single("bfs", "slow", 0),
                        QueryRequest.single("bfs", "fast", 0),
                    ],
                )
                order = []
                async for ticket, result in as_resolved(tickets):
                    order.append(ticket.request.graph)
                    assert result.ok
                    gate.set()  # release "slow" once "fast" streamed
                return order

            try:
                assert asyncio.run(main()) == ["fast", "slow"]
            finally:
                gate.set()

    def test_empty_sequence(self):
        async def main():
            return [pair async for pair in as_resolved([])]

        assert asyncio.run(main()) == []

    def test_drain_waits_for_inflight(self, service):
        tickets = service.submit_batch(
            [QueryRequest.single("bfs", "g", s) for s in range(8)]
        )
        assert service.drain(timeout_s=60.0) is True
        assert all(t.done() for t in tickets)
        # service still accepts work after a drain (unlike close)
        assert service.run(QueryRequest.single("bfs", "g", 0)).ok

    def test_drain_timeout_returns_false(self, powerlaw_graph, monkeypatch):
        gate = threading.Event()
        with AnalyticsService(GraphCatalog(), workers=1) as svc:
            svc.register("g", powerlaw_graph)
            original = svc._prepare

            def stalled(*args, **kwargs):
                gate.wait(30.0)
                return original(*args, **kwargs)

            monkeypatch.setattr(svc, "_prepare", stalled)
            ticket = svc.submit(QueryRequest.single("bfs", "g", 0))
            assert svc.drain(timeout_s=0.1) is False
            gate.set()
            assert ticket.result(60.0).ok
            assert svc.drain(timeout_s=60.0) is True
