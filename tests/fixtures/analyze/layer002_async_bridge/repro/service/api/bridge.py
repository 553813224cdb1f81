"""Seeded LAYER002: the asyncio bridge grows back between the HTTP edge
and the dispatcher threads — a retrying submit, a completion-order
iterator and an awaitable ticket."""


async def submit_batch_async(service, requests, *, max_wait_s=2.0):
    return service.submit_batch(list(requests), block=False)


async def as_resolved(tickets):
    for ticket in tickets:
        yield ticket, await ticket.aresult()
