"""Counted prepared-graph builders for the catalog suites.

The catalog's one artifact kind is the prepared graph
(:func:`repro.service.workers.prepared_key`), so the suites key it the
way traffic does and build it with :func:`repro.algorithms.prepare_graph`
through a builder that counts its calls.
"""

import time

from repro.algorithms import prepare_graph
from repro.service import TransformArtifact
from repro.service.workers import prepared_key


class CountedBuilder:
    """Builds ``algorithm``'s prepared form of ``graph``, counting calls.

    ``cc`` (the default) symmetrises, so it builds fresh arrays on any
    graph; ``bfs`` strips the weights of a weighted one.
    """

    def __init__(self, graph, algorithm="cc"):
        self.graph = graph
        self.algorithm = algorithm
        self.key = prepared_key(graph, algorithm)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        start = time.perf_counter()
        payload = prepare_graph(self.graph, self.algorithm)
        return TransformArtifact(
            key=self.key, payload=payload,
            build_seconds=time.perf_counter() - start,
        )


def get(catalog, graph, algorithm="cc"):
    """``catalog.get_for_key`` on the prepared graph: (artifact, origin)."""
    builder = CountedBuilder(graph, algorithm)
    return catalog.get_for_key(builder.key, builder)
