"""Tests for the Table 2 method models: correctness, support matrix, OOM."""

import numpy as np
import pytest

from repro.algorithms.reference import (
    reference_bc,
    reference_bfs,
    reference_connected_components,
    reference_pagerank,
    reference_sssp,
    reference_sswp,
)
from repro.baselines import standard_methods
from repro.baselines.base import ALGORITHMS, prepare_graph
from repro.baselines.cusha import CuShaMethod
from repro.baselines.gunrock import GunrockMethod
from repro.baselines.maxwarp import MaxWarpMethod
from repro.baselines.simple import BaselineMethod
from repro.baselines.tigr import TigrUDTMethod, TigrVirtualMethod
from repro.errors import EngineError
from repro.gpu.config import GPUConfig
from repro.graph.builder import to_undirected
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(300, 3000, seed=21, weight_range=(1, 16))


@pytest.fixture(scope="module")
def source(graph):
    return int(np.argmax(graph.out_degrees()))


ALL_METHODS = standard_methods(k_udt=8, k_v=10)


class TestSupportsMatrix:
    """Table 4's missing cells: who lacks which primitive."""

    def test_mw_and_cusha_lack_bc(self):
        assert not MaxWarpMethod().supports("bc")
        assert not CuShaMethod().supports("bc")

    def test_gunrock_lacks_sswp(self):
        assert not GunrockMethod().supports("sswp")

    def test_tigr_v_supports_everything(self):
        method = TigrVirtualMethod()
        for algorithm in ALGORITHMS:
            assert method.supports(algorithm)

    def test_tigr_udt_skips_pr_and_bc(self):
        method = TigrUDTMethod()
        assert not method.supports("pr")
        assert not method.supports("bc")
        assert method.supports("sssp")

    def test_unsupported_run_raises(self, graph, source):
        with pytest.raises(EngineError, match="does not implement"):
            GunrockMethod().run(graph, "sswp", source)

    def test_unknown_algorithm(self, graph):
        with pytest.raises(EngineError, match="unknown algorithm"):
            BaselineMethod().run(graph, "coloring")

    def test_missing_source(self, graph):
        with pytest.raises(EngineError, match="source"):
            BaselineMethod().run(graph, "sssp")


class TestPrepareGraph:
    def test_bfs_strips_weights(self, graph):
        assert not prepare_graph(graph, "bfs").is_weighted

    def test_cc_symmetrizes(self, graph):
        g = prepare_graph(graph, "cc")
        assert np.array_equal(g.out_degrees(), g.in_degrees())
        assert not g.is_weighted

    def test_sssp_requires_weights(self, graph):
        assert prepare_graph(graph, "sssp").is_weighted
        with pytest.raises(EngineError, match="weighted"):
            prepare_graph(graph.without_weights(), "sssp")

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("algorithm", ["bfs", "pr", "bc"])
    def test_unweighted_analytics_build_nothing(self, graph, algorithm, weighted):
        # one object per input, every call: the input itself, or its one
        # memoised unweighted view sharing the input's arrays
        g = graph if weighted else graph.without_weights()
        prepared = prepare_graph(g, algorithm)
        assert prepared is prepare_graph(g, algorithm)
        assert (prepared is g) is not weighted
        assert prepared.targets is g.targets and not prepared.is_weighted


class TestCorrectnessAcrossMethods:
    """Every method computes the same (reference) answers — the
    frameworks differ only in *how fast* the simulator says they are."""

    def test_sssp(self, graph, source):
        ref = reference_sssp(graph, source)
        for method in ALL_METHODS:
            result = method.run(graph, "sssp", source)
            assert not result.oom
            assert np.allclose(result.values, ref), method.name

    def test_bfs(self, graph, source):
        ref = reference_bfs(graph.without_weights(), source)
        for method in ALL_METHODS:
            result = method.run(graph, "bfs", source)
            assert np.allclose(result.values, ref, equal_nan=True), method.name

    def test_sswp(self, graph, source):
        ref = reference_sswp(graph, source)
        for method in ALL_METHODS:
            if not method.supports("sswp"):
                continue
            result = method.run(graph, "sswp", source)
            assert np.allclose(result.values, ref), method.name

    def test_cc(self, graph):
        ref = reference_connected_components(
            to_undirected(graph.without_weights())
        )
        for method in ALL_METHODS:
            result = method.run(graph, "cc")
            assert np.array_equal(result.values.astype(np.int64), ref), method.name

    def test_pr(self, graph):
        ref = reference_pagerank(graph.without_weights(), tolerance=1e-10)
        for method in ALL_METHODS:
            if not method.supports("pr"):
                continue
            result = method.run(graph, "pr")
            assert np.allclose(result.values, ref, atol=1e-6), method.name

    def test_bc(self, graph, source):
        ref = reference_bc(graph.without_weights(), source)
        for method in ALL_METHODS:
            if not method.supports("bc"):
                continue
            result = method.run(graph, "bc", source)
            assert np.allclose(result.values, ref), method.name


class TestMetricsAndNotes:
    def test_metrics_attached(self, graph, source):
        result = BaselineMethod().run(graph, "sssp", source)
        assert result.metrics is not None
        assert result.time_ms == pytest.approx(result.metrics.total_time_ms)

    def test_mw_reports_chosen_warp_size(self, graph, source):
        result = MaxWarpMethod().run(graph, "sssp", source)
        assert result.notes["virtual_warp_size"] in (2, 4, 8, 16, 32)

    def test_transform_time_recorded(self, graph, source):
        result = TigrUDTMethod(degree_bound=8).run(graph, "sssp", source)
        assert result.transform_seconds > 0

    def test_display_time(self, graph, source):
        result = BaselineMethod().run(graph, "sssp", source)
        assert result.display_time != "OOM"


class TestOOM:
    def test_oom_result_instead_of_exception(self, graph, source):
        tiny = GPUConfig(device_memory_bytes=1024)
        result = BaselineMethod().run(graph, "sssp", source, config=tiny)
        assert result.oom
        assert result.values is None
        assert result.display_time == "OOM"
        assert result.time_ms == float("inf")

    def test_table4_oom_pattern(self):
        """The robust Table 4 OOM facts: CuSha OOMs on sinaweibo for
        every primitive; Gunrock OOMs on sinaweibo for BFS but not
        SSSP; Tigr-V+ and MW never OOM on any dataset."""
        config = GPUConfig()
        sina = load_dataset("sinaweibo")
        cusha, gunrock = CuShaMethod(), GunrockMethod()
        for algorithm in ("bfs", "sssp", "cc", "pr"):
            prepared = prepare_graph(sina, algorithm)
            assert cusha.footprint(prepared, algorithm) > config.device_memory_bytes, algorithm
        assert gunrock.footprint(prepare_graph(sina, "bfs"), "bfs") > config.device_memory_bytes
        assert gunrock.footprint(prepare_graph(sina, "sssp"), "sssp") <= config.device_memory_bytes
        for name in ("sinaweibo", "twitter"):
            g = load_dataset(name)
            for method in (TigrVirtualMethod(coalesced=True), MaxWarpMethod()):
                for algorithm in ("bfs", "sssp", "cc", "pr"):
                    prepared = prepare_graph(g, algorithm)
                    assert method.footprint(prepared, algorithm) <= config.device_memory_bytes, (
                        name, method.name, algorithm
                    )

    def test_cusha_weighted_twitter_ooms(self):
        config = GPUConfig()
        twitter = load_dataset("twitter")
        cusha = CuShaMethod()
        assert cusha.footprint(prepare_graph(twitter, "sssp"), "sssp") > config.device_memory_bytes
        assert cusha.footprint(prepare_graph(twitter, "bfs"), "bfs") <= config.device_memory_bytes


class TestFootprintDispatch:
    def test_footprint_bytes_helper(self, graph):
        from repro.baselines.memory import footprint_bytes

        for name in ("baseline", "tigr-udt", "tigr-v", "tigr-v+", "mw", "cusha", "gunrock"):
            assert footprint_bytes(name, graph, "sssp") > 0
        with pytest.raises(KeyError):
            footprint_bytes("ligra", graph, "sssp")

    def test_virtual_footprint_grows_with_smaller_k(self, graph):
        from repro.baselines.memory import tigr_virtual_bytes

        assert tigr_virtual_bytes(graph, "sssp", 2) > tigr_virtual_bytes(graph, "sssp", 32)
