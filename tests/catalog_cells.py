"""Counted prepared-graph builders for the catalog suites.

The catalog's one artifact is cc's prepared (symmetrised) graph
(:func:`repro.service.workers.prepared_key`), so the suites key it the
way traffic does and build it with :func:`repro.algorithms.prepare_graph`
through a builder that counts its calls.
"""

import time

from repro.algorithms import prepare_graph
from repro.service import TransformArtifact
from repro.service.workers import prepared_key


class CountedBuilder:
    """Builds cc's prepared form of ``graph``, counting calls.

    Symmetrisation builds fresh arrays on any graph.
    """

    def __init__(self, graph):
        self.graph = graph
        self.key = prepared_key(graph)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        start = time.perf_counter()
        payload = prepare_graph(self.graph, "cc")
        return TransformArtifact(
            key=self.key, payload=payload,
            build_seconds=time.perf_counter() - start,
        )


def get(catalog, graph):
    """``catalog.get_for_key`` on the prepared graph: (artifact, origin)."""
    builder = CountedBuilder(graph)
    return catalog.get_for_key(builder.key, builder)
