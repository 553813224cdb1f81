"""Asyncio bridge: coroutine-shaped access to the threaded executor.

The executor's dispatcher pool is threads; the HTTP tier is one event
loop.  This module is the seam: admission that *suspends* instead of
blocking when the bounded queue is full, and resolution fan-in that
turns many :class:`~repro.service.executor.QueryTicket`\\ s into an
async stream in completion order — the primitive batch streaming is
built on.  No thread is parked per request anywhere on this path:
tickets hand their results across with ``loop.call_soon_threadsafe``
(see :meth:`QueryTicket.add_done_callback`), and backpressure waits
are ``asyncio.sleep`` retries against the non-blocking submit.
"""

from __future__ import annotations

import asyncio
import time
from typing import AsyncIterator, List, Sequence, Tuple

from repro.errors import QuotaExhaustedError, ServiceOverloadError
from repro.service.executor import AnalyticsService, QueryTicket
from repro.service.query import QueryRequest, QueryResult

#: admission retry backoff bounds (seconds).
POLL_FLOOR_S = 0.001
POLL_CEIL_S = 0.05


async def submit_batch_async(
    service: AnalyticsService,
    requests: Sequence[QueryRequest],
    *,
    max_wait_s: float = 2.0,
) -> List[QueryTicket]:
    """Admit a batch, suspending (not blocking) under backpressure.

    Tries the non-blocking submit; on :class:`ServiceOverloadError`
    sleeps on the loop with exponential backoff and retries until
    ``max_wait_s`` is spent, then re-raises the overload (the server
    maps it to 503 + ``Retry-After``).  ``max_wait_s=0`` is a pure
    admission probe — one attempt, no waiting.  A tenant's
    :class:`QuotaExhaustedError` is the caller's pace, not ours: it is
    raised on the first attempt (429), never waited out — a retry
    would charge the submission's earlier members again.
    """
    deadline = time.monotonic() + max_wait_s
    delay = POLL_FLOOR_S
    while True:
        try:
            return service.submit_batch(list(requests), block=False)
        except QuotaExhaustedError:
            raise
        except ServiceOverloadError:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise
            await asyncio.sleep(min(delay, remaining))
            delay = min(delay * 2, POLL_CEIL_S)


async def as_resolved(
    tickets: Sequence[QueryTicket],
) -> AsyncIterator[Tuple[QueryTicket, QueryResult]]:
    """Yield ``(ticket, result)`` pairs in completion order.

    Results cross from dispatcher threads onto the running loop via a
    queue; the first resolved ticket is yielded while the rest are
    still in flight, which is exactly the streaming contract of
    ``POST /v1/batch``.
    """
    if not tickets:
        return
    loop = asyncio.get_running_loop()
    resolved: "asyncio.Queue[Tuple[QueryTicket, QueryResult]]" = asyncio.Queue()

    def deliver(ticket: QueryTicket, result: QueryResult) -> None:
        def enqueue() -> None:
            resolved.put_nowait((ticket, result))

        try:
            loop.call_soon_threadsafe(enqueue)
        except RuntimeError:
            pass  # loop torn down mid-resolution; nobody is listening

    for ticket in tickets:
        ticket.add_done_callback(deliver)
    for _ in range(len(tickets)):
        yield await resolved.get()


async def gather_results(
    tickets: Sequence[QueryTicket],
) -> List[QueryResult]:
    """Await every ticket; results in *submission* order."""
    return [await ticket.aresult() for ticket in tickets]
