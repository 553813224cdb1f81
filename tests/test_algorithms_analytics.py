"""CC / BC / PageRank vs oracles, across execution targets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bc, connected_components, pagerank
from repro.algorithms.reference import (
    reference_bc,
    reference_connected_components,
    reference_pagerank,
)
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.core.weights import DumbWeight
from repro.engine.push import EngineOptions
from repro.engine.schedule import EdgeParallelScheduler, MaxWarpScheduler
from repro.graph.builder import from_edge_list, to_undirected
from repro.graph.generators import erdos_renyi, rmat


class TestCC:
    def test_matches_reference(self, powerlaw_symmetric):
        ref = reference_connected_components(powerlaw_symmetric)
        result = connected_components(powerlaw_symmetric)
        assert np.array_equal(result.values.astype(np.int64), ref)

    def test_virtual_and_edge_targets(self, powerlaw_symmetric):
        ref = reference_connected_components(powerlaw_symmetric)
        for target in (
            virtual_transform(powerlaw_symmetric, 5),
            EdgeParallelScheduler(powerlaw_symmetric),
            MaxWarpScheduler(powerlaw_symmetric, 8),
        ):
            result = connected_components(target)
            assert np.array_equal(result.values.astype(np.int64), ref)

    def test_on_udt_transformed(self, powerlaw_symmetric):
        """Corollary 1: UDT preserves connectivity, hence CC labels."""
        ref = reference_connected_components(powerlaw_symmetric)
        t = udt_transform(powerlaw_symmetric, 4, dumb_weight=DumbWeight.NONE)
        result = connected_components(t.graph)
        assert np.array_equal(
            t.read_values(result.values).astype(np.int64), ref
        )

    def test_disconnected_components(self):
        g = to_undirected(from_edge_list([(0, 1), (2, 3)], num_nodes=5))
        labels = connected_components(g).values.astype(np.int64)
        assert labels.tolist() == [0, 0, 2, 2, 4]

    def test_fully_connected(self):
        g = to_undirected(from_edge_list([(i, i + 1) for i in range(9)]))
        labels = connected_components(g).values.astype(np.int64)
        assert set(labels.tolist()) == {0}


class TestBC:
    def test_single_source_matches_brandes(self, powerlaw_unweighted, hub_source):
        ref = reference_bc(powerlaw_unweighted, hub_source)
        result = bc(powerlaw_unweighted, hub_source)
        assert np.allclose(result.centrality, ref)

    def test_virtual_target(self, powerlaw_unweighted, hub_source):
        ref = reference_bc(powerlaw_unweighted, hub_source)
        for coalesced in (False, True):
            v = virtual_transform(powerlaw_unweighted, 5, coalesced=coalesced)
            assert np.allclose(bc(v, hub_source).centrality, ref)

    def test_edge_parallel_target(self, powerlaw_unweighted, hub_source):
        ref = reference_bc(powerlaw_unweighted, hub_source)
        result = bc(EdgeParallelScheduler(powerlaw_unweighted), hub_source)
        assert np.allclose(result.centrality, ref)

    @pytest.mark.parametrize("backend", ["numpy", "cjit"])
    def test_reference_is_bitwise_the_engine(self, powerlaw_unweighted, backend):
        # every route folds each node's out-edges in CSR order, as
        # Brandes' loops do, whatever the transform or scheduler; the
        # second graph has multi-edges, self-loops, nodes no edge
        # touches and nodes the sources do not reach
        base = rmat(300, 3_000, seed=4, dedup=False).without_weights()
        src = np.repeat(np.arange(300), base.out_degrees()).tolist()
        loops = [(v, v) for v in range(0, 300, 7)]
        multi = from_edge_list(list(zip(src, base.targets.tolist())) + loops,
                               num_nodes=310)
        options = EngineOptions(kernel_backend=backend)
        for graph in (powerlaw_unweighted, multi):
            hubs = np.argsort(-graph.out_degrees(), kind="stable")[:2]
            for source in hubs.tolist():
                want = reference_bc(graph, source)
                assert (want == 0).any() and (want > 0).any()
                targets = [graph, MaxWarpScheduler(graph, 8),
                           EdgeParallelScheduler(graph)] + [
                    virtual_transform(graph, k, coalesced=coalesced)
                    for k in (1, 4) for coalesced in (False, True)]
                for target in targets:
                    got = bc(target, source, options=options).centrality
                    assert np.array_equal(got, want)

    def test_sigma_counts(self):
        # diamond: two shortest paths 0->3
        g = from_edge_list([(0, 1), (0, 2), (1, 3), (2, 3)])
        result = bc(g, 0)
        assert result.sigma.tolist() == [1, 1, 1, 2]
        assert result.levels.tolist() == [0, 1, 1, 2]
        # both 1 and 2 lie on half the 0->3 paths: delta = 0.5 each
        assert result.centrality[1] == pytest.approx(0.5)
        assert result.centrality[2] == pytest.approx(0.5)

    def test_source_centrality_zero(self, powerlaw_unweighted, hub_source):
        assert bc(powerlaw_unweighted, hub_source).centrality[hub_source] == 0.0

    def test_isolated_source(self):
        g = from_edge_list([(0, 1)], num_nodes=3)
        result = bc(g, 2)
        assert np.all(result.centrality == 0.0)
        assert result.levels[2] == 0

    def test_line_graph_dependencies(self):
        # 0->1->2->3: node 1 covers paths to 2,3; node 2 covers path to 3
        g = from_edge_list([(0, 1), (1, 2), (2, 3)])
        result = bc(g, 0)
        assert result.centrality[1] == pytest.approx(2.0)
        assert result.centrality[2] == pytest.approx(1.0)


class TestPageRank:
    def test_matches_reference(self, powerlaw_unweighted):
        ref = reference_pagerank(powerlaw_unweighted, tolerance=1e-12)
        result = pagerank(powerlaw_unweighted, tolerance=1e-12)
        assert np.allclose(result.values, ref, atol=1e-9)

    @pytest.mark.parametrize("backend", ["numpy", "cjit"])
    def test_reference_is_bitwise_the_engine(self, powerlaw_unweighted, backend):
        # both sum each node's in-edges in ascending source order and
        # multiply by the reciprocal out-degree; dangling nodes, a
        # self-loop and multi-edges in the second graph
        multi = rmat(300, 2_000, seed=4, dedup=False).without_weights()
        for graph in (powerlaw_unweighted, multi):
            want = reference_pagerank(graph)
            for target in (graph, virtual_transform(graph, 4),
                           virtual_transform(graph, 4, coalesced=True)):
                got = pagerank(target, options=EngineOptions(
                    kernel_backend=backend)).values
                assert np.array_equal(got, want)

    def test_virtual_target_identical(self, powerlaw_unweighted):
        """Theorem 3 + Corollary 4: virtual PR is exact, not approximate."""
        node = pagerank(powerlaw_unweighted, tolerance=1e-12)
        virt = pagerank(virtual_transform(powerlaw_unweighted, 5), tolerance=1e-12)
        assert np.allclose(node.values, virt.values, atol=1e-12)
        assert node.num_iterations == virt.num_iterations

    def test_ranks_sum_to_one(self, powerlaw_unweighted):
        assert pagerank(powerlaw_unweighted).values.sum() == pytest.approx(1.0)

    def test_dangling_mass_redistributed(self):
        g = from_edge_list([(0, 1)], num_nodes=2)  # node 1 dangles
        ranks = pagerank(g, tolerance=1e-14).values
        assert ranks.sum() == pytest.approx(1.0)
        assert ranks[1] > ranks[0]

    def test_uniform_on_regular_graph(self):
        g = erdos_renyi(1, 0)
        from repro.graph.generators import regular_ring

        ring = regular_ring(10, 2)
        ranks = pagerank(ring, tolerance=1e-14).values
        assert np.allclose(ranks, 0.1, atol=1e-8)

    def test_max_iterations_cap(self, powerlaw_unweighted):
        result = pagerank(powerlaw_unweighted, tolerance=0.0, max_iterations=5)
        assert result.num_iterations == 5
        assert not result.converged

    def test_empty_graph(self):
        g = from_edge_list([], num_nodes=0)
        assert pagerank(g).values.shape == (0,)


@given(seed=st.integers(min_value=0, max_value=40))
@settings(max_examples=20, deadline=None)
def test_cc_udt_preserves_components(seed):
    """Property (Corollary 1): UDT never merges or splits components."""
    graph = to_undirected(rmat(40, 120, seed=seed))
    t = udt_transform(graph, 3, dumb_weight=DumbWeight.NONE)
    got = t.read_values(connected_components(t.graph).values).astype(np.int64)
    assert np.array_equal(got, reference_connected_components(graph))


@given(seed=st.integers(min_value=0, max_value=40), k=st.integers(min_value=1, max_value=9))
@settings(max_examples=20, deadline=None)
def test_bc_virtual_equals_reference(seed, k):
    """Property: BC under virtual scheduling equals Brandes."""
    graph = rmat(40, 250, seed=seed)
    source = int(np.argmax(graph.out_degrees()))
    result = bc(virtual_transform(graph, k), source)
    assert np.allclose(result.centrality, reference_bc(graph, source))
