"""Shared fixtures: small deterministic graphs used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import from_edge_list, to_undirected
from repro.graph.generators import grid_2d, rmat, star


@pytest.fixture
def figure2_graph():
    """The weighted 4-node SSSP example of the paper's Figure 2.

    Node 0 is the source; edges (0->1 w2), (0->2 w2), (1->2 w4),
    (1->3 w1), (2->3 w4).  Final distances: [0, 2, 2, 3].
    """
    return from_edge_list(
        [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 4.0), (1, 3, 1.0), (2, 3, 4.0)]
    )


@pytest.fixture
def diamond_graph():
    """Unweighted diamond: 0 -> {1, 2} -> 3."""
    return from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def star5_graph():
    """Degree-5 star — the Figure 6 UDT example input."""
    return star(5)


@pytest.fixture
def powerlaw_graph():
    """A small weighted power-law graph (seeded, ~200 nodes)."""
    return rmat(200, 1500, seed=11, weight_range=(1, 10))


@pytest.fixture
def powerlaw_unweighted(powerlaw_graph):
    return powerlaw_graph.without_weights()


@pytest.fixture
def powerlaw_symmetric(powerlaw_unweighted):
    return to_undirected(powerlaw_unweighted)


@pytest.fixture
def regular_graph():
    """A perfectly regular control graph (every node degree <= 4)."""
    return grid_2d(8, 8)


@pytest.fixture
def hub_source(powerlaw_graph):
    """Highest-outdegree node of the power-law fixture."""
    return int(np.argmax(powerlaw_graph.out_degrees()))


@pytest.fixture
def patch_prepare(monkeypatch):
    """``patch_prepare(fn)`` makes ``fn(graph, algorithm)`` serving's
    preparation step (:func:`repro.service.workers.prepare`) for this
    test, wherever this process prepares a batch: the dispatcher thread
    and the shard tier.  Local hosts prepare in their own processes, so
    a test that stalls or observes a batch this way pins threads."""
    from repro.service import sharding, workers

    def install(fn):
        monkeypatch.setattr(workers, "prepare", fn)
        monkeypatch.setattr(sharding, "prepare", fn)

    return install
