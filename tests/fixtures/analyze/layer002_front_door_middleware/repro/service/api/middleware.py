"""Seeded LAYER002: the front door grows its middleware onion back —
composable layers around each route, and a submission-order gather."""


class Middleware:
    async def __call__(self, request, nxt):
        return await nxt(request)


class TokenAuth(Middleware):
    pass


class RateLimit(Middleware):
    pass


class RequestShaper(Middleware):
    pass


async def gather_results(tickets):
    return [await ticket.aresult() for ticket in tickets]
