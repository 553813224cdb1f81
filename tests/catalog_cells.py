"""Counted prepared-graph builders for the catalog suites.

Serving builds no catalog artifact (cc reads the CSR as it is), so the
suites drive the catalog's mechanisms — spill, hydrate, budget, policy —
through :meth:`~repro.service.GraphCatalog.get_for_key` directly: the
artifact is cc's prepared (symmetrised) graph, built with
:func:`repro.algorithms.prepare_graph` through a builder that counts
its calls, under a key of the graph's fingerprint.
"""

import time

from repro.algorithms import prepare_graph
from repro.service import ArtifactKey, TransformArtifact


def key_of(graph):
    """The key the suites file ``graph``'s prepared form under."""
    return ArtifactKey(graph.fingerprint(), "sym-unw")


class CountedBuilder:
    """Builds cc's prepared form of ``graph``, counting calls.

    Symmetrisation builds fresh arrays on any graph.
    """

    def __init__(self, graph):
        self.graph = graph
        self.key = key_of(graph)
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
