"""Seeded LAYER002: the per-query record and the ``*_observed``
recorders that the counter table replaced grow back."""


class QueryRecord:
    latency_s: float = 0.0


def queries_observed(records):
    return len(records)
