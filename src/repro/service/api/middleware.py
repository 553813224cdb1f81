"""Middleware chain: auth, rate limiting, request shaping.

The server composes an onion of small async callables around each
route handler::

    handler = chain([TokenAuth(...), RateLimit(...), RequestShaper(...)], endpoint)

Each middleware either short-circuits with a
:class:`~repro.service.api.http.Response` (401, 429, 400 …) or awaits
the next layer.  Policy stays here; the server loop and the route
handlers never look at an ``Authorization`` header or a token bucket
— the same policy-vs-mechanism split the executor keeps between
dispatch and degradation.

``RateLimit`` is a classic token bucket per client key: the
authenticated token when present, else the peer address.  Buckets
refill continuously at ``rate`` per second up to ``burst``; a request
arriving to an empty bucket is answered ``429`` with a
``Retry-After`` hint of the time until the next whole token.
"""

from __future__ import annotations

import time
from typing import Awaitable, Callable, Iterable, Optional

from repro.service.api.http import HttpRequest, Response
from repro.service.api.protocol import error_payload
from repro.service.metrics import ServiceMetrics
from repro.service.routing import TokenBuckets

#: a route handler / the continuation each middleware wraps.
Handler = Callable[[HttpRequest], Awaitable[object]]

#: routes every deployment leaves reachable without credentials —
#: health probes must not need a secret.
UNAUTHENTICATED_PATHS = ("/v1/healthz",)


def chain(middlewares: Iterable["Middleware"], endpoint: Handler) -> Handler:
    """Compose middlewares (outermost first) around ``endpoint``."""
    handler = endpoint
    for middleware in reversed(list(middlewares)):
        handler = middleware.wrap(handler)
    return handler


class Middleware:
    """Base: subclasses implement ``__call__(request, next)``."""

    def wrap(self, nxt: Handler) -> Handler:
        async def handler(request: HttpRequest):
            return await self(request, nxt)

        return handler

    async def __call__(self, request: HttpRequest, nxt: Handler):
        raise NotImplementedError


class TokenAuth(Middleware):
    """Bearer-token gate: constant set of accepted tokens.

    An empty token set disables the gate entirely (a development
    server); health probes pass regardless.  The accepted token is
    published to downstream middleware as ``request.context["client"]``
    — the rate limiter keys on it, so one tenant cannot spend
    another's budget by sharing an egress IP.
    """

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self.tokens = frozenset(t for t in tokens if t)

    async def __call__(self, request: HttpRequest, nxt: Handler):
        if not self.tokens or request.path in UNAUTHENTICATED_PATHS:
            return await nxt(request)
        header = request.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        if scheme.lower() != "bearer" or token.strip() not in self.tokens:
            return Response(
                401,
                error_payload(
                    "unauthorized",
                    "missing or invalid bearer token",
                    401,
                ),
                {"www-authenticate": "Bearer"},
            )
        request.context["client"] = token.strip()
        return await nxt(request)


class RateLimit(Middleware):
    """Per-client token bucket; 429 + ``Retry-After`` when empty.

    ``rate`` tokens/second refill up to ``burst``; ``clock`` is
    injectable so tests drive time by hand.  The buckets are
    :class:`~repro.service.routing.TokenBuckets`, one per client key.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        *,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        TokenBuckets.check(rate, burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self.metrics = metrics
        self._buckets = TokenBuckets(clock)

    def _take(self, key: str) -> float:
        """Try to spend one token; 0.0 on success, else seconds to wait."""
        return self._buckets.take(key, self.rate, self.burst)

    async def __call__(self, request: HttpRequest, nxt: Handler):
        if request.path in UNAUTHENTICATED_PATHS:
            return await nxt(request)
        key = request.context.get("client") or request.client or "anonymous"
        wait_s = self._take(key)
        if wait_s > 0.0:
            if self.metrics is not None:
                self.metrics.count(http_rate_limited=1)
            retry_after = max(1, int(wait_s + 0.999))
            return Response(
                429,
                error_payload(
                    "rate_limited",
                    f"client {key!r} exceeded {self.rate:g} requests/s "
                    f"(burst {int(self.burst)}); retry in {wait_s:.2f}s",
                    429,
                    retry_after_s=round(wait_s, 3),
                ),
                {"retry-after": str(retry_after)},
            )
        return await nxt(request)


class RequestShaper(Middleware):
    """Transport-level shaping before any JSON is parsed.

    Enforces the method and content-type contract per route (size
    bounds are already enforced by the stream reader); anything that
    fails here never reaches the executor.  Route-specific *schema*
    validation happens in the handlers via
    :func:`~repro.service.api.protocol.parse_wire_request`, which maps
    straight onto the planner's typed errors.
    """

    #: path prefix -> allowed methods.
    METHODS = {
        "/v1/query": ("POST",),
        "/v1/batch": ("POST",),
        "/v1/metrics": ("GET",),
        "/v1/healthz": ("GET",),
    }

    #: content types accepted for bodies (bare or with parameters).
    BODY_TYPES = ("application/json", "application/x-ndjson")

    async def __call__(self, request: HttpRequest, nxt: Handler):
        allowed = self.METHODS.get(request.path)
        if allowed is None:
            return Response(
                404,
                error_payload(
                    "not_found",
                    f"no route {request.path!r}; known: "
                    + ", ".join(sorted(self.METHODS)),
                    404,
                ),
            )
        if request.method not in allowed:
            return Response(
                405,
                error_payload(
                    "method_not_allowed",
                    f"{request.method} not allowed on {request.path}",
                    405,
                ),
                {"allow": ", ".join(allowed)},
            )
        if request.method == "POST":
            content_type = request.headers.get(
                "content-type", "application/json"
            ).split(";")[0].strip().lower()
            if content_type not in self.BODY_TYPES:
                return Response(
                    415,
                    error_payload(
                        "unsupported_media_type",
                        f"content-type {content_type!r} not accepted; "
                        f"send {' or '.join(self.BODY_TYPES)}",
                        415,
                    ),
                )
            if not request.body:
                return Response(
                    400,
                    error_payload(
                        "bad_request", "request body is empty", 400
                    ),
                )
        return await nxt(request)
