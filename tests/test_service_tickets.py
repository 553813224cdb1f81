"""Tickets and admission: waiting, done callbacks, blocking backpressure, drain."""

import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError, UnknownGraphError
from repro.service import AnalyticsService, GraphCatalog, QueryRequest


@pytest.fixture
def service(powerlaw_graph):
    with AnalyticsService(GraphCatalog(), workers=2) as svc:
        svc.register("g", powerlaw_graph)
        yield svc


@pytest.fixture
def stalled(powerlaw_graph):
    """One worker stalled on a gated item, one item queued behind it:
    with ``queue_size=2`` one slot is free."""
    gate = threading.Event()
    with AnalyticsService(GraphCatalog(), workers=1, queue_size=2) as svc:
        svc.register("g", powerlaw_graph)
        prepared, original = [], svc._prepare

        def gated(graph, algorithm):
            prepared.append(algorithm)
            gate.wait(30.0)
            return original(graph, algorithm)

        svc._prepare = gated
        svc.prepared = prepared
        stuck = svc.submit(QueryRequest("cc", "g"))
        time.sleep(0.05)  # the worker picks it up and stalls
        queued = svc.submit(QueryRequest("pr", "g"), block=False)
        try:
            yield svc, gate
        finally:
            gate.set()
        assert stuck.result(60.0).ok and queued.result(60.0).ok


class TestWaiting:
    def test_result_waits_for_resolution(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        assert ticket.result(60.0).ok
        assert ticket.done()

    def test_result_after_resolution_is_immediate(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        first = ticket.result(60.0)
        started = time.monotonic()
        assert ticket.result(0.0) is first
        assert time.monotonic() - started < 1.0

    def test_result_timeout_names_the_request(self, service, monkeypatch):
        gate = threading.Event()
        original = service._prepare

        def stalled(*args, **kwargs):
            gate.wait(30.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(service, "_prepare", stalled)
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        try:
            with pytest.raises(ServiceError, match="not finished within"):
                ticket.result(0.05)
            assert not ticket.done()
        finally:
            gate.set()
            assert ticket.result(60.0).ok

    def test_many_waiters_one_ticket(self, service):
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        results = []
        waiters = [
            threading.Thread(target=lambda: results.append(ticket.result(60.0)))
            for _ in range(8)
        ]
        for waiter in waiters:
            waiter.start()
        for waiter in waiters:
            waiter.join(60.0)
        assert len(results) == 8
        assert all(r is results[0] for r in results) and results[0].ok


class TestDoneCallbacks:
    def test_callback_runs_on_resolution(self, service):
        seen = threading.Event()
        ticket = service.submit(QueryRequest.single("bfs", "g", 0))
        ticket.add_done_callback(lambda t, r: r.ok and seen.set())
        assert seen.wait(60.0)

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


class TestBlockingAdmission:
    def test_tickets_come_back_in_submission_order(self, service):
        tickets = service.submit_batch(
            [QueryRequest.single("bfs", "g", s) for s in range(4)],
            submit_timeout_s=30.0,
        )
        results = [ticket.result(60.0) for ticket in tickets]
        assert [r.ok for r in results] == [True] * 4
        assert [sorted(r.values) for r in results] == [[s] for s in range(4)]

    def test_unknown_graph_raises_typed_error(self, service):
        with pytest.raises(UnknownGraphError, match="nope"):
            service.submit_batch([QueryRequest.single("bfs", "nope", 0)])

    def test_non_blocking_admission_refuses_at_once(self, stalled):
        svc, _gate = stalled
        svc.submit(QueryRequest.single("bfs", "g", 1), block=False)  # the last free slot
        started = time.monotonic()
        with pytest.raises(ServiceOverloadError):
            svc.submit(QueryRequest.single("bfs", "g", 2), block=False)
        assert time.monotonic() - started < 1.0
    def test_full_queue_waits_then_raises(self, stalled):
        svc, _gate = stalled
        requests = [QueryRequest.single("bfs", "g", 1), QueryRequest.single("bfs", "g", 2)]
        svc.submit(requests[0], block=False)  # the last free slot
        started = time.monotonic()
        with pytest.raises(ServiceOverloadError):
            svc.submit(requests[1], submit_timeout_s=0.2)
        assert time.monotonic() - started >= 0.2  # it waited, it did not give up early

    def test_waiting_admission_lands_when_the_queue_drains(self, stalled):
        svc, gate = stalled
        svc.submit(QueryRequest.single("bfs", "g", 1), block=False)
        threading.Timer(0.1, gate.set).start()
        ticket = svc.submit(QueryRequest.single("bfs", "g", 2), submit_timeout_s=30.0)
        assert ticket.result(60.0).ok

    def test_a_refusal_cancels_every_ticket_of_the_submission(self, stalled):
        # the bfs group takes the free slot, the sssp group finds none:
        # one deadline for both, and the queued bfs group does no work
        svc, gate = stalled
        requests = [QueryRequest.single("bfs", "g", 0), QueryRequest.single("sssp", "g", 0)]
        started = time.monotonic()
        with pytest.raises(ServiceOverloadError):
            svc.submit_batch(requests, submit_timeout_s=0.2)
        assert time.monotonic() - started < 2.0
        gate.set()
        assert svc.drain(60.0)
        assert "bfs" not in svc.prepared and "sssp" not in svc.prepared
        assert svc.metrics.summary()["queries_cancelled"] == 1

    def test_overload_error_is_service_error(self):
        assert issubclass(ServiceOverloadError, ServiceError)
        exc = ServiceOverloadError("full", retry_after_s=3.5)
        assert exc.retry_after_s == 3.5


class TestDrain:
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
