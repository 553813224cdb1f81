"""Tests for the ``python -m repro`` command-line interface."""

import importlib.util
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

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
        # bfs builds nothing: it reads the graph's unweighted view
        assert main(["query", "bfs", "pokec", "--scale", "0.1",
                     "--source", "0"]) == 0
        out = capsys.readouterr().out
        assert "transform=none, K=0" in out
        assert "cache hit:    True" in out
        assert "values[source 0]" in out

    def test_cold_cc_query_builds_nothing(self, capsys):
        # cc is a union-find over the CSR as it is: no symmetrised build
        assert main(["query", "cc", "pokec", "--scale", "0.1"]) == 0
        assert "cache hit:    True" in capsys.readouterr().out

    def test_repeat_hits_cache(self, capsys):
        assert main(["query", "bfs", "pokec", "--scale", "0.1",
                     "--source", "0", "--repeat", "2", "--stats"]) == 0
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

    @pytest.mark.parametrize("flag", [
        ["--transform", "udt"], ["--transform", "auto"], ["--k", "4"],
        ["--k", "cjit"],
    ])
    def test_transform_and_k_are_gone(self, flag, capsys):
        # every plan serves the CSR, so the CLI selects no transform;
        # `--k` is not read as an abbreviated --kernel-backend
        try:
            code = main(["query", "bfs", "pokec", "--scale", "0.1", *flag])
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_invalid_transform_for_algorithm(self, tmp_path, capsys):
        # UDT cannot serve PR (Corollary 4): a trace naming it fails that
        # request alone, and serve exits 1
        header = (Path(__file__).parent / "traces" / "mixed.jsonl").open().readline()
        requests = [
            {"type": "request", "id": 1, "algorithm": "bfs", "graph": "pokec",
             "sources": [0], "transform": "udt", "k": 0, "timeout_s": None,
             "delta_s": 0.0},
            {"type": "request", "id": 2, "algorithm": "pr", "graph": "pokec",
             "sources": [], "transform": "udt", "k": 0, "timeout_s": None,
             "delta_s": 0.0},
        ]
        trace = tmp_path / "udt-pr.jsonl"
        trace.write_text(header + "".join(json.dumps(r) + "\n" for r in requests))
        assert main(["serve", "--trace", str(trace), "--workers", "1"]) == 1
        assert "results: 1 ok, 1 failed" in capsys.readouterr().out

    def test_non_numeric_sources_rejected(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--sources", "a,b"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_out_of_range_source_rejected(self, capsys):
        assert main(["query", "sssp", "pokec", "--scale", "0.1",
                     "--source", "999999"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (["query", "sssp"], "--spill-dir"), (["query", "sssp"], "--catalog-policy"),
        (["serve"], "--spill-dir"),
    ])
    def test_catalog_flags_are_retired(self, command, flag, tmp_path, capsys):
        # serving caches nothing: no spill directory, no eviction policy
        # (serve keeps --catalog-policy as an ignored ledger shim)
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "pokec", "--scale", "0.1", flag, str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_catalog_policy_variable_is_not_read(self, monkeypatch, capsys):
        # it used to be validated (an unknown policy exited 2)
        monkeypatch.setenv("REPRO_CATALOG_POLICY", "bogus")
        assert main(["query", "bfs", "pokec", "--scale", "0.1"]) == 0


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


class TestReadyFiles:
    """A ready file names the server that is listening now: a stale one
    is removed at start, and the address lands in one rename."""

    STALE = "127.0.0.1:1\n"

    @pytest.mark.parametrize("argv", [
        ["serve", "--http", "127.0.0.1:70000", "--http-ready-file"],
        ["shard-host", "--listen", "127.0.0.1:70000", "--ready-file"],
    ], ids=["http", "shard-host"])
    def test_a_failed_start_leaves_no_stale_address(self, argv, tmp_path, capsys):
        ready = tmp_path / "ready"
        ready.write_text(self.STALE)
        assert main(argv + [str(ready)]) == 2
        assert not ready.exists()

    def test_shard_host_replaces_a_stale_address(self, tmp_path):
        ready = tmp_path / "ready"
        ready.write_text(self.STALE)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "shard-host",
             "--listen", "127.0.0.1:0", "--ready-file", str(ready)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            bound = line.split("listening on ")[1].split(";")[0]
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert time.monotonic() < deadline, "no ready file"
                time.sleep(0.01)
            assert ready.read_text() == bound + "\n"
            assert [p.name for p in tmp_path.iterdir()] == ["ready"]
        finally:
            proc.terminate()
            proc.wait(10)
            proc.stdout.close()

    def test_loadgen_waits_past_a_stale_address(self, tmp_path):
        # the reader may read F before the new server removes it: a
        # refused address is stale, so it keeps reading
        path = Path(__file__).parents[1] / "tools" / "loadgen.py"
        spec = importlib.util.spec_from_file_location("loadgen", path)
        loadgen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loadgen)
        ready = tmp_path / "ready"
        ready.write_text(self.STALE)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            address = "%s:%d" % listener.getsockname()
            later = threading.Timer(0.3, ready.write_text, (address + "\n",))
            later.start()
            try:
                assert loadgen._wait_for_ready_file(str(ready), 10) == address
            finally:
                later.cancel()
