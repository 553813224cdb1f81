"""Seeded ROUTE001: a route handler registered in a module with no
typed-error mapping (no ``except`` -> ``error_response``)."""


class MiniServer:
    def __init__(self) -> None:
        self._routes = {
            "/v1/echo": self._handle_echo,
        }

    def _handle_echo(self, request):
        return {"echo": request}
