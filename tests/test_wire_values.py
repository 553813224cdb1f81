"""The ``include_values`` wire contract, byte for byte.

:func:`spec_line` is the renderer the protocol used before value
columns were encoded once per distinct float: every value through
``json.dumps`` as a Python float, non-finite ones as ``null``.  It is
kept here as the executable spec (as ``tests/kernel_reference.py`` is
for the C kernels), and the served bytes must equal its bytes for
any column — NaN payloads, ``-0.0``, ±inf, subnormals, few-distinct,
half-distinct and all-distinct columns, non-float dtypes, empty
arrays and several sources.
"""

import http.client
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import rmat
from repro.service import AnalyticsService, GraphCatalog, QueryRequest, QueryResult
from repro.service.api import ThreadedApiServer, result_payload
from repro.service.api.http import encode_line


def spec_values(values) -> dict:
    return {
        str(source): [
            None if not math.isfinite(v) else v
            for v in np.asarray(array, dtype=np.float64).tolist()
        ]
        for source, array in values.items()
    }


def spec_line(fields: dict, values) -> bytes:
    """``fields`` plus a last ``values`` member, as one JSON line."""
    payload = dict(fields, values=spec_values(values))
    return (json.dumps(payload, separators=(", ", ": ")) + "\n").encode("utf-8")


SPECIAL_BITS = [
    int(np.float64(v).view(np.int64))
    for v in (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1e16, 1e-7, 0.1, 1.0, 2.0**53)
] + [
    0x7FF8000000000000,  # quiet NaN
    -0x0008000000000000,  # NaN with the sign bit set
    0x7FF0000000000001,  # signalling NaN payload
]
BITS = st.one_of(
    st.sampled_from(SPECIAL_BITS), st.integers(-(2**63), 2**63 - 1)
)


@st.composite
def columns(draw):
    """A raw-bit-pattern column of a chosen distinct-value shape."""
    n = draw(st.integers(0, 48))
    shape = draw(st.sampled_from(["few", "distinct", "half", "over_half"]))
    if shape == "few":
        k = min(n, draw(st.integers(1, 4)))
    elif shape == "distinct":
        k = n
    else:
        n += n % 2
        k = n // 2 + (shape == "over_half" and n > 0)
    pool = draw(st.lists(BITS, min_size=k, max_size=k, unique=True))
    if shape == "few":
        index = draw(st.lists(
            st.integers(0, max(k - 1, 0)), min_size=n, max_size=n
        )) if k else []
    else:
        # every pool entry used: exactly k distinct of n
        index = draw(st.permutations(list(range(k)) + draw(st.lists(
            st.integers(0, max(k - 1, 0)), min_size=n - k, max_size=n - k
        ))))
    bits = np.array(pool, dtype=np.int64)[np.array(index, dtype=np.intp)]
    dtype = draw(st.sampled_from(["float64", "float32", "int32", "bool"]))
    if dtype == "float64":
        return bits.view(np.float64)
    low = (bits.view(np.uint64) & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    if dtype == "float32":
        return low.view(np.float32)
    if dtype == "int32":
        return low.view(np.int32)
    return (low & 1).astype(bool)


def _result(values) -> QueryResult:
    return QueryResult(
        request_id=1, algorithm="bfs", values=values,
        transform="none", degree_bound=0,
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@settings(max_examples=300, deadline=None)
@given(
    data=st.lists(columns(), min_size=1, max_size=4),
    sources=st.lists(
        st.integers(-1, 10_000), min_size=4, max_size=4, unique=True
    ),
)
def test_served_values_are_the_spec_bytes(data, sources):
    result = _result(dict(zip(sources, data)))
    fields = result_payload(7, result, elapsed_s=0.25)
    assert encode_line(fields) == (
        json.dumps(fields, separators=(", ", ": ")) + "\n"
    ).encode("utf-8")
    line = encode_line(result_payload(7, result, elapsed_s=0.25, include_values=True))
    assert line == spec_line(fields, result.values)


def test_plain_json_dumps_is_not_the_wire_format():
    """``values`` is already-encoded text: only ``encode_line`` splices it."""
    result = _result({0: np.array([1.0, math.inf])})
    payload = result_payload(1, result, include_values=True)
    plain = json.loads(json.dumps(payload))
    assert plain["values"] == '{"0": [1.0, null]}'
    assert json.loads(encode_line(payload))["values"] == {"0": [1.0, None]}


def test_signed_zero_and_empty_columns_survive():
    result = _result({0: np.array([0.0, -0.0, 0.0, -0.0]), 1: np.array([])})
    line = encode_line(result_payload(1, result, include_values=True))
    assert line.endswith(b'"values": {"0": [0.0, -0.0, 0.0, -0.0], "1": []}}\n')


class TestOverTheWire:
    """Raw response bytes equal the spec's rendering of the in-process
    answer, on both routes."""

    @pytest.fixture(scope="class")
    def served(self):
        with AnalyticsService(GraphCatalog(), workers=2) as service:
            service.register("g", rmat(200, 1500, seed=11, weight_range=(1, 10)))
            with ThreadedApiServer(service) as handle:
                host, _, port = handle.address.rpartition(":")
                yield service, host, int(port)

    @staticmethod
    def _expected(service, line: bytes, request: QueryRequest) -> bytes:
        fields = {
            k: v for k, v in json.loads(line).items() if k != "values"
        }
        return spec_line(fields, service.run(request).values)

    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc"])
    def test_query_route(self, served, algorithm):
        service, host, port = served
        sources = [] if algorithm == "cc" else [3]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/query",
                body=json.dumps({
                    "algorithm": algorithm, "graph": "g",
                    "sources": sources, "include_values": True,
                }),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 200
        request = QueryRequest(algorithm=algorithm, graph="g", sources=tuple(sources))
        assert body == self._expected(service, body, request)

    def test_batch_route(self, served):
        service, host, port = served
        lines = {
            1: {"algorithm": "bfs", "sources": [0]},
            2: {"algorithm": "bfs", "sources": [1, 2, 5, 9]},
            3: {"algorithm": "sssp", "sources": [4]},
            4: {"algorithm": "pr", "sources": []},
        }
        body = "".join(
            json.dumps({"type": "request", "id": i, "graph": "g", **line}) + "\n"
            for i, line in lines.items()
        )
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/batch?include_values=1", body=body.encode(),
                headers={"Content-Type": "application/x-ndjson"},
            )
            response = conn.getresponse()
            assert response.status == 200
            got = [response.readline() for _ in lines]
            assert response.read() == b""
        finally:
            conn.close()
        assert sorted(json.loads(line)["id"] for line in got) == sorted(lines)
        for line in got:
            wire = lines[json.loads(line)["id"]]
            request = QueryRequest(
                algorithm=wire["algorithm"], graph="g",
                sources=tuple(wire["sources"]),
            )
            assert line == self._expected(service, line, request)
