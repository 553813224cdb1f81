"""Tests for the ``python -m repro`` command-line interface."""

import socket

import numpy as np
import pytest

from repro.__main__ import main
from repro.graph.generators import rmat
from repro.graph.io import save_edge_list, save_npz


class TestInfo:
    def test_dataset(self, capsys):
        assert main(["info", "pokec", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "num_nodes" in out and "gini" in out

    def test_diameter_flag(self, capsys):
        assert main(["info", "pokec", "--scale", "0.1", "--diameter"]) == 0
        assert "diameter_estimate" in capsys.readouterr().out

    def test_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        save_edge_list(rmat(30, 100, seed=1), path)
        assert main(["info", str(path)]) == 0
        assert "num_nodes" in capsys.readouterr().out

    def test_npz_file(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        save_npz(rmat(30, 100, seed=1), path)
        assert main(["info", str(path)]) == 0

    def test_unknown_graph(self, capsys):
        assert main(["info", "doesnotexist"]) == 2
        assert "error" in capsys.readouterr().err


class TestTransform:
    def test_udt(self, capsys):
        assert main(["transform", "pokec", "--scale", "0.1",
                     "--method", "udt", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "UDT transform" in out and "space ratio" in out

    def test_virtual_plus(self, capsys):
        assert main(["transform", "pokec", "--scale", "0.1", "--k", "8"]) == 0
        out = capsys.readouterr().out
        assert "coalesced" in out and "virtual nodes" in out

    def test_virtual_default(self, capsys):
        assert main(["transform", "pokec", "--scale", "0.1",
                     "--method", "virtual"]) == 0
        assert "default" in capsys.readouterr().out


class TestRunAndCompare:
    def test_run_default_method(self, capsys):
        assert main(["run", "sssp", "pokec", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "tigr-v+" in out and "warp efficiency" in out

    def test_run_explicit_source(self, capsys):
        assert main(["run", "bfs", "pokec", "--scale", "0.1",
                     "--source", "0"]) == 0
        assert "iterations" in capsys.readouterr().out

    def test_run_unknown_method(self, capsys):
        assert main(["run", "sssp", "pokec", "--scale", "0.1",
                     "--method", "ligra"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_compare(self, capsys):
        assert main(["compare", "sswp", "pokec", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        # gunrock lacks SSWP -> a dash; Tigr variants present
        assert "gunrock" in out and "tigr-v+" in out and "-" in out

    def test_bad_algorithm_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "coloring", "pokec"])


class TestBenchForwarding:
    def test_bench_subset(self, capsys):
        assert main(["bench", "table1", "--scale", "0.1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_bench_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "table99"])


class TestInfoFingerprint:
    def test_fingerprint_printed(self, capsys):
        assert main(["info", "pokec", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out

    def test_fingerprint_matches_library(self, tmp_path, capsys):
        g = rmat(30, 100, seed=1)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert main(["info", str(path)]) == 0
        assert g.fingerprint() in capsys.readouterr().out


class TestQuery:
    def test_single_query(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "0", "--transform", "udt"]) == 0
        out = capsys.readouterr().out
        assert "cache hit:    False" in out
        assert "values[source 0]" in out

    def test_repeat_hits_cache(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "0", "--transform", "udt",
                     "--repeat", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out and "round 2" in out
        assert "cache hit:    True" in out  # round 2 is warm
        assert "cache_hit_rate" in out

    def test_multi_source_batch(self, capsys):
        assert main(["query", "bfs", "pokec", "--scale", "0.1",
                     "--sources", "0,3,3"]) == 0
        out = capsys.readouterr().out
        assert "batched with: 2 other request(s)" in out

    def test_default_source_is_hub(self, capsys):
        assert main(["query", "bfs", "pokec", "--scale", "0.1"]) == 0
        assert "max-outdegree source" in capsys.readouterr().out

    def test_sourceless_analytic(self, capsys):
        assert main(["query", "pr", "pokec", "--scale", "0.1"]) == 0
        assert "values[all nodes]" in capsys.readouterr().out

    def test_transform_override(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "0", "--transform", "udt", "--k", "4"]) == 0
        assert "transform=udt, K=4" in capsys.readouterr().out

    @pytest.mark.parametrize("transform", ["none", "virtual", "virtual+"])
    def test_only_auto_and_udt_are_offered(self, transform, capsys):
        # every value but udt serves the CSR, so the CLI offers auto alone
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "bfs", "pokec", "--scale", "0.1",
                  "--transform", transform])
        assert exit_info.value.code == 2

    def test_k_needs_udt(self, capsys):
        assert main(["query", "bfs", "pokec", "--scale", "0.1",
                     "--k", "4"]) == 2
        assert "--k applies to --transform udt only" in capsys.readouterr().err

    def test_invalid_transform_for_algorithm(self, capsys):
        # UDT cannot serve PR (Corollary 4) -> clean error, exit 2
        assert main(["query", "pr", "pokec", "--scale", "0.1",
                     "--transform", "udt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_numeric_sources_rejected(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--sources", "a,b"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_out_of_range_source_rejected(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "999999"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_spill_dir_populated_on_eviction(self, tmp_path, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "0",
                     "--spill-dir", str(tmp_path)]) == 0


class TestServe:
    def test_synthetic_workload(self, capsys):
        assert main(["serve", "pokec", "--scale", "0.1",
                     "--requests", "12", "--workers", "2",
                     "--algorithms", "bfs,pr", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "served 12/12 queries" in out
        assert "cache_hit_rate" in out and "max_queue_depth" in out

    def test_unknown_algorithm_rejected(self, capsys):
        assert main(["serve", "pokec", "--scale", "0.1",
                     "--algorithms", "bfs,coloring"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--batch", "0"], "batch must be >= 1"),
        (["--shards", "-2"], "shard count must be >= 0"),
        (["--quota", "alice=nan"], "finite rate"),
        (["--quota", "alice=2:0.5"], "burst >= 1"),
    ], ids=["batch", "shards", "quota-nan", "quota-burst"])
    def test_bad_numeric_flags_are_typed_errors(self, flags, message, capsys):
        assert main(["serve", "pokec", "--scale", "0.1",
                     "--requests", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_calibrate_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["calibrate"])
        assert exc.value.code == 2
        assert "invalid choice: 'calibrate'" in capsys.readouterr().err


class TestCLIGaps:
    def test_unsupported_method_algorithm_pair(self, capsys):
        # tigr-udt ships no PR (Corollary 4 needs pull) -> clean error
        assert main(["run", "pr", "pokec", "--scale", "0.1",
                     "--method", "tigr-udt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_info_on_npz_with_weights(self, tmp_path, capsys):
        path = tmp_path / "g.npz"
        save_npz(rmat(30, 100, seed=1, weight_range=(1, 4)), path)
        assert main(["info", str(path)]) == 0

    def test_transform_weights_for_sswp(self, capsys):
        assert main(["transform", "pokec", "--scale", "0.1",
                     "--method", "udt", "--k", "4",
                     "--weights-for", "sswp"]) == 0


class TestAddresses:
    """Every HOST:PORT flag goes through one parser: a bad address is
    ``error: ...`` and exit 2, never a traceback from ``bind()``."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--http", "127.0.0.1:70000"],
        ["shard-host", "--listen", "127.0.0.1:70000"],
        ["serve", "pokec", "--scale", "0.1", "--requests", "1",
         "--shards", "2", "--shard-remote", "127.0.0.1:70000"],
        ["serve", "--trace", "tcp://127.0.0.1:70000"],
    ], ids=["http", "listen", "shard-remote", "trace"])
    def test_out_of_range_port(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "0-65535" in err

    def test_refused_trace_socket(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["serve", "--trace", f"tcp://127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot open trace" in err
