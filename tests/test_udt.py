"""Unit + property tests for the UDT transformation (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    logarithmic_height_bound,
    predict_properties,
    udt_new_nodes,
    udt_tree_height,
)
from repro.core.properties import check_split_transformation
from repro.core.udt import udt_transform
from repro.core.weights import DumbWeight
from repro.errors import TransformError
from repro.graph.builder import from_edge_list
from repro.graph.generators import (
    configuration_power_law,
    erdos_renyi,
    grid_2d,
    rmat,
    star,
)
from tests.udt_reference import udt_transform_reference


class TestFigure6Example:
    """The paper's Figure 6: degree-5 node, K=3."""

    def test_one_new_node_no_residuals(self):
        result = udt_transform(star(5), 3)
        assert result.stats.new_nodes == 1
        assert result.stats.new_edges == 1
        # the family has no residual beyond possibly the root:
        # new node has exactly degree 3, root has degree 3 (2 leaves + new node)
        degrees = result.graph.out_degrees()
        assert degrees[0] == 3
        assert degrees[6] == 3

    def test_hops(self):
        assert udt_transform(star(5), 3).stats.max_family_hops == 1


class TestBasics:
    def test_no_high_degree_nodes_is_identity_like(self, regular_graph):
        result = udt_transform(regular_graph, 10)
        assert result.stats.new_nodes == 0
        assert result.graph.num_nodes == regular_graph.num_nodes
        assert np.array_equal(result.graph.targets, regular_graph.targets)

    def test_degree_bound_enforced(self, powerlaw_graph):
        for k in (2, 4, 16):
            result = udt_transform(powerlaw_graph, k)
            assert result.graph.max_out_degree() <= k

    def test_k_below_two_rejected(self, powerlaw_graph):
        with pytest.raises(TransformError, match="K >= 2"):
            udt_transform(powerlaw_graph, 1)
        with pytest.raises(TransformError):
            udt_transform(powerlaw_graph, 0)

    def test_at_most_one_residual_per_family(self, powerlaw_graph):
        """The UDT selling point over recursive T_star (Figure 6)."""
        k = 4
        result = udt_transform(powerlaw_graph, k)
        degrees = result.graph.out_degrees()
        for root, members in result.families().items():
            residuals = int(np.sum(degrees[members] < k))
            assert residuals <= 1, f"family of {root} has {residuals} residuals"

    def test_definition2_contract(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 5)
        check_split_transformation(powerlaw_graph, result)

    def test_incoming_edges_stay_at_root(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 4)
        n = powerlaw_graph.num_nodes
        original_edges = result.graph.targets[~result.new_edge_mask]
        assert np.all(original_edges < n)

    def test_node_origin_shape(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 4)
        assert len(result.node_origin) == result.graph.num_nodes
        n = powerlaw_graph.num_nodes
        assert np.array_equal(result.node_origin[:n], np.arange(n))
        assert np.all(result.node_origin[n:] < n)

    def test_read_values_projects_roots(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 4)
        values = np.arange(result.graph.num_nodes, dtype=float)
        assert np.array_equal(
            result.read_values(values), np.arange(powerlaw_graph.num_nodes)
        )


class TestDumbWeights:
    def test_zero_policy_weights(self, star5_graph):
        result = udt_transform(star5_graph, 3, dumb_weight=DumbWeight.ZERO)
        w = result.graph.weights
        assert np.all(w[result.new_edge_mask] == 0.0)
        assert np.all(w[~result.new_edge_mask] == 1.0)  # promoted unweighted

    def test_infinity_policy_weights(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 4, dumb_weight=DumbWeight.INFINITY)
        w = result.graph.weights
        assert np.all(np.isinf(w[result.new_edge_mask]))
        assert np.all(np.isfinite(w[~result.new_edge_mask]))

    def test_none_policy_keeps_unweighted(self, powerlaw_unweighted):
        result = udt_transform(powerlaw_unweighted, 4, dumb_weight=DumbWeight.NONE)
        assert not result.graph.is_weighted

    def test_original_weights_preserved(self, powerlaw_graph):
        result = udt_transform(powerlaw_graph, 4)
        got = np.sort(result.graph.weights[~result.new_edge_mask])
        want = np.sort(powerlaw_graph.weights)
        assert np.allclose(got, want)


class TestAnalysisConsistency:
    @pytest.mark.parametrize("d,k", [(5, 3), (10, 3), (100, 4), (1000, 10), (17, 2)])
    def test_counts_match_closed_form(self, d, k):
        result = udt_transform(star(d), k)
        assert result.stats.new_nodes == udt_new_nodes(d, k)
        assert result.stats.new_edges == udt_new_nodes(d, k)
        assert result.stats.max_family_hops == udt_tree_height(d, k)

    def test_logarithmic_height(self):
        """P3: the tree height grows logarithmically in d."""
        for d in (100, 1000, 10_000, 100_000):
            for k in (2, 4, 16):
                assert udt_tree_height(d, k) <= logarithmic_height_bound(d, k)

    def test_predict_properties_udt(self):
        p = predict_properties("udt", 100, 4)
        assert p.new_nodes == udt_new_nodes(100, 4)
        assert p.new_degree == 4

    def test_udt_new_nodes_k1_rejected(self):
        with pytest.raises(TransformError):
            udt_new_nodes(5, 1)
        with pytest.raises(TransformError):
            udt_tree_height(5, 1)

    def test_no_split_needed(self):
        assert udt_new_nodes(3, 5) == 0
        assert udt_tree_height(3, 5) == 0


@given(
    d=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=2, max_value=20),
)
@settings(max_examples=80, deadline=None)
def test_udt_star_properties(d, k):
    """Property: for any (d, K), UDT on a degree-d node yields a
    uniform-degree tree: bound respected, counts match the closed
    forms, at most one residual node, original neighbors preserved."""
    graph = star(d)
    result = udt_transform(graph, k)
    degrees = result.graph.out_degrees()
    assert degrees.max() <= k
    if d > k:
        assert result.stats.new_nodes == udt_new_nodes(d, k)
        assert result.stats.max_family_hops == udt_tree_height(d, k)
        # every split node has exactly degree k except at most one
        split_degrees = degrees[degrees > 0]
        assert int(np.sum(split_degrees < k)) <= 1
    # all original leaf targets still reachable as targets of original edges
    original_targets = np.sort(result.graph.targets[~result.new_edge_mask])
    assert np.array_equal(original_targets, np.arange(1, d + 1))


@given(
    seed=st.integers(min_value=0, max_value=50),
    k=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_udt_random_graph_contract(seed, k):
    """Property: Definition 2 holds for UDT on arbitrary graphs."""
    graph = rmat(60, 600, seed=seed, weight_range=(1, 8))
    result = udt_transform(graph, k)
    check_split_transformation(graph, result)
    assert result.graph.max_out_degree() <= k


# ---------------------------------------------------------------------------
# Differential suite: the closed-form construction against the literal
# Algorithm 1 queue (tests/udt_reference.py), bit for bit.
# ---------------------------------------------------------------------------
def assert_bitwise_equal(got, want):
    """Arrays, dtypes, stats and fingerprint all agree."""
    pairs = [
        (got.graph.offsets, want.graph.offsets),
        (got.graph.targets, want.graph.targets),
        (got.graph.weights, want.graph.weights),
        (got.node_origin, want.node_origin),
        (got.new_edge_mask, want.new_edge_mask),
    ]
    for a, b in pairs:
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    assert got.num_original_nodes == want.num_original_nodes
    assert got.stats == want.stats
    assert got.graph.fingerprint() == want.graph.fingerprint()


def assert_closed_form_properties(graph, result, k):
    """P1-P3 stated without building anything: only (d, K) arithmetic."""
    old = graph.out_degrees()
    new = result.graph.out_degrees()
    split_degrees = old[old > k]
    assert new.max(initial=0) <= k
    assert result.stats.num_families == len(split_degrees)
    assert result.stats.new_nodes == sum(udt_new_nodes(int(d), k) for d in split_degrees)
    assert result.stats.new_edges == result.stats.new_nodes
    assert result.stats.max_family_hops == max(
        (udt_tree_height(int(d), k) for d in split_degrees), default=0
    )
    # at most one residual (degree < K) member per split family
    in_split_family = (old > k)[result.node_origin]
    residuals = np.bincount(
        result.node_origin[in_split_family & (new < k)], minlength=graph.num_nodes
    )
    assert residuals.max(initial=0) <= 1


@st.composite
def graphs(draw):
    """Generator graphs incl. the degenerate shapes UDT must survive."""
    kind = draw(
        st.sampled_from(
            ["empty", "edgeless", "regular", "rmat", "multi", "loops", "powerlaw", "star"]
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    weights = draw(st.sampled_from([None, (1, 9)]))
    if kind == "empty":
        return from_edge_list([], weighted=weights is not None)
    if kind == "edgeless":
        return from_edge_list([], num_nodes=5, weighted=weights is not None)
    if kind == "regular":  # no high-degree node for any K >= 4
        return grid_2d(4, 5, weight_range=weights, seed=seed)
    if kind == "rmat":
        return rmat(50, 500, seed=seed, weight_range=weights)
    if kind == "multi":  # parallel edges survive
        return rmat(30, 400, seed=seed, weight_range=weights, dedup=False)
    if kind == "loops":  # G(n, m) draws self-loops and multi-edges
        return erdos_renyi(12, 150, seed=seed, weight_range=weights)
    if kind == "powerlaw":
        return configuration_power_law(
            60, max_degree=55, seed=seed, weight_range=weights
        )
    return star(
        draw(st.integers(min_value=0, max_value=70)), weight_range=weights, seed=seed
    )


@given(
    graph=graphs(),
    k=st.integers(min_value=2, max_value=12),
    dumb_weight=st.sampled_from(list(DumbWeight)),
)
@settings(max_examples=150, deadline=None)
def test_matches_queue_oracle(graph, k, dumb_weight):
    result = udt_transform(graph, k, dumb_weight=dumb_weight)
    assert_bitwise_equal(
        result, udt_transform_reference(graph, k, dumb_weight=dumb_weight)
    )
    assert_closed_form_properties(graph, result, k)


@pytest.mark.parametrize("k", [2, 3, 4, 7])
@pytest.mark.parametrize("weights", [None, (1, 9)])
@pytest.mark.parametrize("dumb_weight", list(DumbWeight))
def test_star_at_every_new_node_boundary(k, weights, dumb_weight):
    """d = K (no split), K+1 (first split), and every d up to the one
    that needs a fourth new node, so each step of m is crossed."""
    new_nodes = []
    for d in range(k, k + 3 * (k - 1) + 2):
        graph = star(d, weight_range=weights, seed=d)
        result = udt_transform(graph, k, dumb_weight=dumb_weight)
        assert_bitwise_equal(
            result, udt_transform_reference(graph, k, dumb_weight=dumb_weight)
        )
        assert_closed_form_properties(graph, result, k)
        new_nodes.append(result.stats.new_nodes)
    assert new_nodes[:2] == [0, 1]
    assert sorted(set(new_nodes)) == [0, 1, 2, 3, 4]


def test_oracle_rejects_k_below_two_like_udt(powerlaw_graph):
    for transform in (udt_transform, udt_transform_reference):
        with pytest.raises(TransformError, match="K >= 2"):
            transform(powerlaw_graph, 1)


def test_families_unchanged(powerlaw_graph):
    """families() groups with one sort; same dict as the per-root scan."""
    result = udt_transform(powerlaw_graph, 4)
    n = result.num_original_nodes
    split_ids = np.arange(n, result.graph.num_nodes)
    origins = result.node_origin[n:]
    want = {
        int(root): np.concatenate([[root], split_ids[origins == root]])
        for root in np.unique(origins)
    }
    got = result.families()
    assert list(got) == list(want) and len(got) == result.stats.num_families
    for root, members in want.items():
        assert got[root].dtype == np.int64
        assert np.array_equal(got[root], members)
    assert udt_transform(powerlaw_graph, 10_000).families() == {}
