"""Smoke test of the ledger harness itself (not part of tier-1).

    python -m pytest benchmarks/ledger -q

Runs the real command with ``--smoke`` (window seconds and traced
counts divided by 20) once untraced and once traced over all six
workloads, then checks the harness's own contracts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import diff  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return run.load_benchmark_spec()


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    path = str(tmp_path_factory.mktemp("ledger") / "smoke.json")
    for trace in ("0", "1"):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--trace", trace, "--out", path],
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    with open(path, "r", encoding="utf-8") as fh:
        untraced, traced = json.load(fh)["runs"]
    return {"path": path, "untraced": untraced, "traced": traced}


def test_every_named_metric_present_for_every_workload(spec, ledger):
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.BY_NAME)
    for kind, run_record in (("end_to_end", ledger["untraced"]),
                             ("per_layer", ledger["traced"])):
        expected = {m["name"] for m in spec[kind]}
        assert all(NAME.fullmatch(name) for name in expected)
        assert set(run_record["workloads"]) == names
        for record in run_record["workloads"].values():
            assert set(record["metrics"]) == expected
            assert record["failed"] == 0


def test_same_seed_same_bytes_different_seed_different_bytes():
    from repro.graph.datasets import load_dataset

    for workload in workloads.WORKLOADS:
        graphs = {
            name: load_dataset(dataset, scale=scale)
            for name, dataset, scale in workload.graphs
        }
        first = workloads.stream_bytes(workloads.generate(workload, 11, graphs)[0])
        again = workloads.stream_bytes(workloads.generate(workload, 11, graphs)[0])
        other = workloads.stream_bytes(workloads.generate(workload, 12, graphs)[0])
        assert first == again, workload.name
        assert first != other, workload.name


def test_walk_spans_cover_the_walk(ledger):
    for name, record in ledger["traced"]["workloads"].items():
        assert 0.9 <= record["extras"]["walk_span_coverage"] <= 1.0, name
        spans = os.path.join(HERE, "out", f"trace-{name}.jsonl")
        with open(spans, "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"name", "request", "parent", "start_s", "end_s"}


def test_sharded_large_routes_every_request_through_shards(ledger):
    record = ledger["traced"]["workloads"]["sharded_large"]
    assert record["metrics"]["sharding.server_batches"] == \
        record["extras"]["window_requests"]
    assert record["metrics"]["sharding.fallbacks"] == 0


def test_one_corrupt_expected_digest_fails_the_command(monkeypatch, capsys):
    honest = oracle.Oracle.digest
    poisoned = []

    def digest(self, request):
        if not poisoned:
            poisoned.append(request)
        if request == poisoned[0]:
            return "sha256:" + "0" * 64
        return honest(self, request)

    monkeypatch.setattr(oracle.Oracle, "digest", digest)
    assert run.main(["--workload", "warm_small", "--smoke"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] >= 1


def test_diff_verdicts(spec, ledger):
    runs = diff.load_runs(ledger["path"])
    rows = diff.compare(runs, runs, spec)
    assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)
    assert {row[-1] for row in rows} == {"within"}
    assert diff.verdict([100.0], [120.0], better="lower", bound=0.05) == "worse"
    assert diff.verdict([100.0], [80.0], better="lower", bound=0.05) == "better"
    assert diff.verdict([100.0], [80.0], better="higher", bound=0.05) == "worse"
    # both sides noisier than the bound and overlapping: no call
    assert diff.verdict(
        [90.0, 100.0, 110.0], [95.0, 108.0, 120.0], better="lower", bound=0.05
    ) == "unresolved"
