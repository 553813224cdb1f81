"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph


def make_small():
    # 0 -> 1, 0 -> 2, 2 -> 1
    return CSRGraph(
        np.array([0, 2, 2, 3]), np.array([1, 2, 1])
    )


class TestConstruction:
    def test_basic_shape(self):
        g = make_small()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert not g.is_weighted

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.max_out_degree() == 0

    def test_isolated_nodes(self):
        g = CSRGraph(np.array([0, 0, 0, 0]), np.array([], dtype=np.int64))
        assert g.num_nodes == 3
        assert list(g.out_degrees()) == [0, 0, 0]

    def test_weighted(self):
        g = CSRGraph(np.array([0, 1]), np.array([0]), np.array([2.5]))
        assert g.is_weighted
        assert g.weights[0] == 2.5

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphError, match="offsets\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]))

    def test_offsets_must_match_edge_count(self):
        with pytest.raises(GraphError, match="number of edges"):
            CSRGraph(np.array([0, 5]), np.array([0]))

    def test_targets_in_range(self):
        with pytest.raises(GraphError, match="targets"):
            CSRGraph(np.array([0, 1]), np.array([7]))

    def test_negative_target_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([-1]))

    def test_weights_shape_checked(self):
        with pytest.raises(GraphError, match="weights"):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_arrays_are_frozen(self):
        g = make_small()
        with pytest.raises(ValueError):
            g.targets[0] = 2
        with pytest.raises(ValueError):
            g.offsets[0] = 1


class TestAccessors:
    def test_degrees(self):
        g = make_small()
        assert g.out_degree(0) == 2
        assert g.out_degree(1) == 0
        assert list(g.out_degrees()) == [2, 0, 1]
        assert g.max_out_degree() == 2

    def test_in_degrees(self):
        g = make_small()
        assert list(g.in_degrees()) == [0, 2, 1]

    def test_neighbors(self):
        g = make_small()
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == []
        assert list(g.neighbors(2)) == [1]

    def test_neighbors_out_of_range(self):
        g = make_small()
        with pytest.raises(GraphError, match="out of range"):
            g.neighbors(3)
        with pytest.raises(GraphError):
            g.out_degree(-1)

    def test_edge_range(self):
        g = make_small()
        assert g.edge_range(0) == (0, 2)
        assert g.edge_range(1) == (2, 2)

    def test_has_edge(self):
        g = make_small()
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 0)

    def test_iter_edges(self):
        g = make_small()
        assert list(g.iter_edges()) == [(0, 1), (0, 2), (2, 1)]

    def test_edge_sources(self):
        g = make_small()
        assert list(g.edge_sources()) == [0, 0, 2]

    def test_edge_weights_of(self):
        g = from_edge_list([(0, 1, 5.0), (0, 2, 7.0)])
        assert list(g.edge_weights_of(0)) == [5.0, 7.0]
        unweighted = make_small()
        assert unweighted.edge_weights_of(0) is None


class TestDerivedGraphs:
    def test_reverse_flips_all_edges(self):
        g = make_small()
        r = g.reverse()
        assert sorted(r.iter_edges()) == sorted([(1, 0), (2, 0), (1, 2)])

    def test_reverse_twice_is_identity_as_edge_set(self):
        g = from_edge_list([(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (0, 2, 4.0)])
        rr = g.reverse().reverse()
        assert sorted(g.iter_edges()) == sorted(rr.iter_edges())

    def test_reverse_carries_weights(self):
        g = from_edge_list([(0, 1, 5.0), (2, 1, 7.0)])
        r = g.reverse()
        # node 1's out-edges in reverse are the in-edges of 1
        assert sorted(zip(r.neighbors(1), r.edge_weights_of(1))) == [
            (0, 5.0), (2, 7.0)
        ]

    def test_with_weights(self):
        g = make_small()
        w = g.with_weights([1.0, 2.0, 3.0])
        assert w.is_weighted
        assert list(w.weights) == [1.0, 2.0, 3.0]
        # original untouched
        assert not g.is_weighted

    def test_with_weights_bad_shape(self):
        with pytest.raises(GraphError):
            make_small().with_weights([1.0])

    def test_without_weights(self):
        g = from_edge_list([(0, 1, 5.0)])
        assert not g.without_weights().is_weighted

    def test_without_weights_is_one_view(self):
        g = from_edge_list([(0, 1, 5.0), (1, 2, 6.0)])
        view = g.without_weights()
        assert view is g.without_weights() and view is not g
        assert view.offsets is g.offsets and view.targets is g.targets
        assert view.without_weights() is view
        assert view.fingerprint() != g.fingerprint()

    def test_to_coo_roundtrip(self):
        g = from_edge_list([(0, 1, 5.0), (1, 2, 6.0), (0, 2, 7.0)])
        src, dst, w = g.to_coo()
        from repro.graph.builder import from_arrays

        g2 = from_arrays(src, dst, w, num_nodes=g.num_nodes)
        assert g2 == g


class TestValueSemantics:
    def test_equality(self):
        assert make_small() == make_small()

    def test_inequality_weights(self):
        g = make_small()
        assert g != g.with_weights([1.0, 1.0, 1.0])

    def test_inequality_structure(self):
        g1 = from_edge_list([(0, 1)])
        g2 = from_edge_list([(1, 0)])
        assert g1 != g2

    def test_eq_not_implemented_for_other_types(self):
        assert make_small().__eq__(42) is NotImplemented

    def test_repr(self):
        assert "num_nodes=3" in repr(make_small())
        assert "unweighted" in repr(make_small())

    def test_nbytes_counts_all_arrays(self):
        g = make_small()
        assert g.nbytes() == g.offsets.nbytes + g.targets.nbytes
        gw = g.with_weights([1.0, 1.0, 1.0])
        assert gw.nbytes() == g.nbytes() + gw.weights.nbytes


class TestFingerprint:
    """Content-based identity for the serving layer's artifact cache."""

    def test_deterministic_across_objects(self):
        a = from_edge_list([(0, 1), (1, 2), (2, 0)])
        b = from_edge_list([(0, 1), (1, 2), (2, 0)])
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_cached_on_instance(self):
        g = make_small()
        assert g.fingerprint() is g.fingerprint()

    def test_is_hex_sha256(self):
        fp = make_small().fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # parses as hex

    def test_structure_changes_fingerprint(self):
        g1 = from_edge_list([(0, 1)])
        g2 = from_edge_list([(1, 0)])
        assert g1.fingerprint() != g2.fingerprint()

    def test_weights_change_fingerprint(self):
        g = make_small()
        assert g.fingerprint() != g.with_weights([1.0, 1.0, 1.0]).fingerprint()
        assert (
            g.with_weights([1.0, 1.0, 1.0]).fingerprint()
            != g.with_weights([2.0, 1.0, 1.0]).fingerprint()
        )

    def test_stable_across_sessions(self):
        # pinned digest: a change here invalidates every spilled artifact,
        # which must be a deliberate (versioned) decision.
        g = CSRGraph(np.array([0, 1]), np.array([0]))
        assert g.fingerprint() == (
            "620de7d3631d056c36bccaa63d7f736c"
            "a3b8b8f92a27b1542758189520a4e3d4"
        )

    def test_empty_vs_single_node(self):
        empty = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        single = CSRGraph(np.array([0, 0]), np.array([], dtype=np.int64))
        assert empty.fingerprint() != single.fingerprint()
