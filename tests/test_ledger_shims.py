"""The names the frozen benchmark ledger still reaches, pinned.

``benchmarks/ledger`` is not in this suite, and serving caches nothing,
so nothing else here notices if one of the shims it calls breaks:
``GraphCatalog(memory_budget_bytes=, policy=)``, a catalog as the first
argument of both services, ``prepare_for_algorithm``, ``serve``'s
``--cache-mb`` / ``--catalog-policy``, and the six ``catalog_*`` keys of
``GET /v1/metrics`` that ``run.py --trace 1`` subtracts.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.__main__ import _make_service, build_parser
from repro.algorithms import ALGORITHMS
from repro.errors import EngineError
from repro.service import (
    AnalyticsService,
    GraphCatalog,
    QueryRequest,
    ShardedAnalyticsService,
)
from repro.service.api import ThreadedApiServer
from repro.service.metrics import CATALOG_KEYS
from repro.service.workers import prepare, prepare_for_algorithm

LEDGER_CATALOG_KEYS = (
    "catalog_hits", "catalog_misses", "catalog_disk_hits",
    "catalog_builds", "catalog_evictions", "catalog_bytes_in_memory",
)


@pytest.fixture
def catalog():
    return GraphCatalog(memory_budget_bytes=12 << 20, policy="lru")


def _get_json(address: str, path: str) -> dict:
    host, _, port = address.rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        conn.close()


def test_both_services_take_a_catalog_and_answer(catalog, powerlaw_graph):
    request = QueryRequest.single("bfs", "g", 0)
    with AnalyticsService(catalog, workers=1, backend="threads") as plain:
        plain.register("g", powerlaw_graph)
        expected = plain.run(request)
    with ShardedAnalyticsService(
        catalog, shards=2, workers=2, backend="threads"
    ) as sharded:
        sharded.register("g", powerlaw_graph)
        answer = sharded.run(request)
        assert sharded.metrics.summary()["sharded_batches"] == 1
    assert expected.ok and answer.ok
    assert (answer.value(0) == expected.value(0)).all()


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_prepare_for_algorithm_is_prepare(catalog, powerlaw_graph, algorithm, weighted):
    assert len(ALGORITHMS) == 6
    graph = powerlaw_graph if weighted else powerlaw_graph.without_weights()
    if ALGORITHMS[algorithm].weighted and not weighted:
        for call in (lambda: prepare(graph, algorithm),
                     lambda: prepare_for_algorithm(catalog, graph, algorithm)):
            with pytest.raises(EngineError, match="requires a weighted graph"):
                call()
        return
    assert prepare_for_algorithm(catalog, graph, algorithm) is prepare(graph, algorithm)


def test_serve_accepts_and_ignores_the_catalog_flags():
    args = build_parser().parse_args([
        "serve", "pokec", "--scale", "0.1",
        "--cache-mb", "12", "--catalog-policy", "lru",
    ])
    with _make_service(args) as service:
        assert service.workers == 4


def test_metrics_endpoint_carries_the_six_catalog_keys_at_zero(powerlaw_graph):
    assert CATALOG_KEYS == LEDGER_CATALOG_KEYS
    with AnalyticsService(workers=1, backend="threads") as service:
        service.register("g", powerlaw_graph)
        assert service.run(QueryRequest("cc", "g")).ok
        with ThreadedApiServer(service) as server:
            summary = _get_json(server.address, "/v1/metrics")
    assert {key: summary[key] for key in LEDGER_CATALOG_KEYS} == dict.fromkeys(
        LEDGER_CATALOG_KEYS, 0)
