#!/usr/bin/env python3
"""Perf ledger: end-to-end and per-layer numbers through the front door.

    python benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE]

Per workload it boots ``python -m repro serve --http`` as a
subprocess, drives it closed-loop over one keep-alive connection with
a seeded request stream, verifies every answer against an in-process
oracle, and prints every metric by name with its unit.  The last
stdout line of each workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 1
when any answer was wrong or missing.

``--trace 0`` (default) measures the end-to-end metrics with tracing
off.  ``--trace 1`` drives a fixed-count window for the server's
counters and walks the same requests through each layer's public
functions in this process (``walk.py``), writing spans to
``out/trace-<workload>.jsonl``.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.service import dataset_graph_entry, result_digest  # noqa: E402

import walk  # noqa: E402
from client import LedgerClient, ServerProcess  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import BY_NAME, WORKLOADS, generate, warmup_operations  # noqa: E402

#: server boots per untraced run; setup_s is their median.
SETUP_REPEATS = 3
DEFAULT_SEED = 11
clock = time.perf_counter


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile (the value at or above ``fraction``)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def p50(samples, scale: float = 1.0) -> float:
    return statistics.median(samples) * scale if samples else 0.0


def load_benchmark_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One workload's inputs
# ----------------------------------------------------------------------
class Inputs:
    """Graphs, seeded stream and oracle of one (workload, seed)."""

    def __init__(self, workload, seed: int, tmp: str) -> None:
        from repro.graph.datasets import load_dataset

        self.workload = workload
        self.graphs = {}
        load_s = fingerprint_s = 0.0
        entries = {}
        for name, dataset, scale in workload.graphs:
            start = clock()
            graph = load_dataset(dataset, scale=scale)
            load_s += clock() - start
            start = clock()
            fingerprint = graph.fingerprint()  # first call hashes; later ones are cached
            fingerprint_s += clock() - start
            self.graphs[name] = graph
            entries[name] = dataset_graph_entry(
                dataset, scale=scale, fingerprint=fingerprint
            )
        self.load_dataset_ms = load_s * 1e3
        self.fingerprint_us = fingerprint_s / len(workload.graphs) * 1e6
        self.fingerprints = {n: g.fingerprint() for n, g in self.graphs.items()}
        self.operations, self.block = generate(workload, seed, self.graphs)
        self.warmup = warmup_operations(workload, self.operations)
        self.oracle = Oracle(self.graphs)
        self.oracle.expect(r for op in self.operations for r in op.requests)
        # header-only trace file: how serve --http registers several graphs
        self.trace_file = os.path.join(tmp, f"{workload.name}-graphs.jsonl")
        with open(self.trace_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"type": "header", "version": 1, "graphs": entries}
            ) + "\n")


# ----------------------------------------------------------------------
# Driving the server
# ----------------------------------------------------------------------
class Tally:
    """Answers attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, problem) -> None:
        """Count one answer; ``problem`` is None when it was right."""
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors = (self.errors + other.errors)[:5]


class Window(Tally):
    """What one measured window observed (verified after the clock stops)."""

    def __init__(self) -> None:
        super().__init__()
        self.wall_s = 0.0
        #: per HTTP call: (operation, seconds, status, raw body or stamped lines)
        self.calls = []
        #: per call, the seconds from send to each result's last byte
        self.call_latencies = []

    @property
    def latencies(self):
        return [s for per_call in self.call_latencies for s in per_call]

    def verify(self, oracle: Oracle, include_values: bool) -> None:
        for operation, seconds, status, answer in self.calls:
            if operation.path == "/v1/query":
                self.call_latencies.append([seconds])
                self.record(
                    f"HTTP {status}: {answer[:120]!r}" if status != 200
                    else oracle.check(
                        operation.requests[0], answer, with_values=include_values
                    )
                )
                continue
            # /v1/batch: one operation per result line, matched by line id
            arrivals = []
            self.call_latencies.append(arrivals)
            if status != 200:
                for _ in operation.requests:
                    self.record(f"HTTP {status} for the whole window")
                continue
            seen = set()
            for arrival_s, raw in answer:
                try:
                    line_id = int(json.loads(raw)["id"])
                    if line_id < 1 or line_id in seen:
                        raise IndexError(line_id)
                    request = operation.requests[line_id - 1]
                except (ValueError, KeyError, IndexError, TypeError):
                    # extra to the window's lines: counted on its own
                    self.record(f"uncorrelatable or duplicate line {raw[:80]!r}")
                    continue
                seen.add(line_id)
                arrivals.append(arrival_s)
                self.record(oracle.check(request, raw))
            for _ in range(len(operation.requests) - len(seen)):
                self.record("missing result line")


def drive(client: LedgerClient, operations, block: int, *, seconds=None, count=None) -> Window:
    """Closed loop over one connection, ending on a block boundary.

    ``seconds``: whole blocks until that much time has passed.
    ``count``: exactly that many operations, rounded up to a block.
    """
    window = Window()
    sent = 0
    start = clock()
    while True:
        operation = operations[sent % len(operations)]
        if operation.path == "/v1/query":
            window.calls.append((operation, *client.query(operation.body)))
        else:
            window.calls.append((operation, *client.batch(operation.body)))
        sent += 1
        if sent % block == 0:
            if count is not None and sent >= count:
                break
            if seconds is not None and clock() - start >= seconds:
                break
    window.wall_s = clock() - start
    return window


#: below this many blocks a window is measured whole (cold_churn).
MIN_BLOCKS_TO_SELECT = 8


def quiet_blocks(window: Window, block: int):
    """The quieter half of the window's blocks: (ops, seconds, latencies).

    On a shared 2-vCPU box the raw CPU speed wanders by +-10 % from
    one second to the next, and that noise only ever adds time.  A
    block's score is the sum of the faster half of its latencies: the
    slower half is where the block's own heavy operations live (a bc
    run, a UDT build), the faster half is cheap homogeneous work whose
    time mostly tracks what the *host* was doing.  The half of the
    blocks with the lowest scores is the part of the window least
    touched by the host.  Same-seed reruns spread ~6 % on all blocks
    and ~2 % on the quiet half.  Windows of fewer than
    MIN_BLOCKS_TO_SELECT blocks are used whole.
    """
    blocks = []
    for start in range(0, len(window.calls), block):
        calls = window.calls[start:start + block]
        latencies = [
            s for per_call in window.call_latencies[start:start + block]
            for s in per_call
        ]
        ordered = sorted(latencies)
        blocks.append((
            sum(ordered[:(len(ordered) + 1) // 2]),
            sum(len(op.requests) for op, *_ in calls),
            sum(seconds for _op, seconds, *_ in calls),
            latencies,
        ))
    if len(blocks) >= MIN_BLOCKS_TO_SELECT:
        blocks.sort(key=lambda b: b[0])
        blocks = blocks[:(len(blocks) + 1) // 2]
    return [b[1:] for b in blocks]


def boot(inputs: Inputs, tmp: str, label: str):
    """Spawn -> ready file -> healthz fingerprints -> warm-up pass.

    Returns ``(server, client, setup seconds, warm-up window)``; the
    caller owns stopping the server.
    """
    workdir = os.path.join(tmp, f"{inputs.workload.name}-{label}")
    os.makedirs(workdir)
    server = ServerProcess(
        inputs.workload.server_flags, trace_file=inputs.trace_file,
        workdir=workdir, src_dir=SRC,
    )
    start = clock()
    server.start()
    try:
        address = server.wait_ready(inputs.fingerprints)
        client = LedgerClient(address)
        warm = Window()
        if inputs.warmup:
            warm = drive(client, inputs.warmup, 1, count=len(inputs.warmup))
        setup_s = clock() - start
        warm.verify(inputs.oracle, False)
        return server, client, setup_s, warm
    except BaseException:
        server.stop()
        raise


def measure_end_to_end(inputs: Inputs, seconds: float, tmp: str) -> dict:
    """The untraced run: median set-up of several boots, one window."""
    workload = inputs.workload
    setups = []
    total = Tally()
    for index in range(SETUP_REPEATS):
        server, client, setup_s, warm = boot(inputs, tmp, f"boot{index}")
        try:
            setups.append(setup_s)
            total.merge(warm)
            if index == SETUP_REPEATS - 1:  # the last boot is the one measured
                window = drive(client, inputs.operations, inputs.block, seconds=seconds)
                rss_mb = server.peak_rss_mb()
        finally:
            client.close()
            server.stop()
    window.verify(inputs.oracle, workload.include_values)
    total.merge(window)
    quiet = quiet_blocks(window, inputs.block)
    quiet_s = sum(seconds for _ops, seconds, _lat in quiet)
    quiet_ops = sum(ops for ops, _seconds, _lat in quiet)
    latencies_ms = [s * 1e3 for _ops, _seconds, lat in quiet for s in lat]
    correct_share = (window.attempted - window.failed) / window.attempted
    metrics = {
        "throughput_rps": correct_share * quiet_ops / quiet_s,
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p95_ms": percentile(latencies_ms, 0.95),
        "setup_s": statistics.median(setups),
        "server_peak_rss_mb": rss_mb,
    }
    extras = {
        "failed_share": total.failed / total.attempted,
        "samples": len(latencies_ms),
        "window_s": window.wall_s,
        "window_samples": len(window.latencies),
        "window_throughput_rps": (window.attempted - window.failed) / window.wall_s,
        "window_latency_p50_ms": percentile(window.latencies, 0.50) * 1e3,
        "window_latency_p95_ms": percentile(window.latencies, 0.95) * 1e3,
        "setup_runs_s": setups,
    }
    if len(latencies_ms) >= 1000:
        extras["latency_p99_ms"] = percentile(latencies_ms, 0.99)
    return {"metrics": metrics, "extras": extras, "tally": total}


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _check_in_process(inputs: Inputs, operations, results, tally: Tally, label: str) -> None:
    """Every in-process answer is verified too."""
    for operation, answers in zip(operations, results):
        for request, result in zip(operation.requests, answers):
            right = result.ok and result_digest(result) == inputs.oracle.digest(request)
            tally.record(
                None if right
                else f"{label}: wrong answer for {request} ({result.error})"
            )


def _kernel_medges_s(graph, source: int, backend: str) -> float:
    """Nominal sssp-push edge rate (graph edges / best wall time)."""
    from repro.algorithms.sssp import sssp
    from repro.engine.push import EngineOptions

    options = EngineOptions(kernel_backend=backend)
    best = math.inf
    for _ in range(3):
        start = clock()
        sssp(graph, source, options=options)
        best = min(best, clock() - start)
    return graph.num_edges / best / 1e6


def _compile_cjit() -> float:
    """Seconds the one-time cjit compile took in this (fresh) cache dir."""
    from repro.algorithms.sssp import sssp
    from repro.engine import kernels
    from repro.engine.push import EngineOptions
    from repro.graph.generators import rmat

    backend = kernels.get_backend("cjit")
    if not backend.is_available():
        return 0.0
    tiny = rmat(256, 2048, seed=7, weight_range=(1.0, 8.0))
    sssp(tiny, 0, options=EngineOptions(kernel_backend="cjit"))
    return backend.compile_seconds


def measure_layers(inputs: Inputs, smoke: bool, tmp: str) -> dict:
    """The traced run: server counters, then the in-process layer walk."""
    from repro.baselines import standard_methods
    from repro.core import udt_transform, virtual_transform
    from repro.core.selection import choose_physical_k, choose_virtual_k
    from repro.engine import kernels

    workload = inputs.workload
    shrink = 20 if smoke else 1
    block = inputs.block
    trace_ops = max(block, workload.trace_ops // shrink)
    walk_ops = inputs.operations[:max(2, workload.walk_ops // shrink)]
    budget = workload.cache_mb * 1024 * 1024
    tally = Tally()

    # -- counts: before/after deltas of GET /v1/metrics, tracing off ------
    server, client, _setup_s, warm = boot(inputs, tmp, "traced")
    try:
        before = client.get_json("/v1/metrics")
        window = drive(client, inputs.operations, block, count=trace_ops)
        after = client.get_json("/v1/metrics")
    finally:
        client.close()
        server.stop()
    window.verify(inputs.oracle, workload.include_values)
    tally.merge(warm)
    tally.merge(window)

    def delta(key: str) -> float:
        return after[key] - before[key]

    sent = len(window.calls)
    requests_sent = sum(len(op.requests) for op, *_ in window.calls)
    lookups = delta("catalog_hits") + delta("catalog_misses")
    # per-operation server seconds of the walked prefix (a batch window
    # counts to its last line), to pair with the in-process timings
    server_s = [seconds for _op, seconds, _status, _answer in window.calls[:len(walk_ops)]]

    # -- in-process: one-time costs first, while no other thread runs ----
    cjit_compile_s = _compile_cjit()

    process_ops = walk_ops[:workload.process_ops]
    shard_ops = walk_ops[:workload.shard_ops or len(walk_ops)]
    with walk.make_service(inputs.graphs, budget, backend="processes") as service:
        if workload.warm:
            walk.time_service(service, process_ops)
        ipc_before = service.metrics.ipc_bytes_snapshot()
        process_s, results = walk.time_service(service, process_ops)
        ipc_bytes = service.metrics.ipc_bytes_snapshot() - ipc_before
    _check_in_process(inputs, process_ops, results, tally, "processes")

    traced, traced_s, plain_s, walk_results = walk.run_walks(
        inputs.graphs, walk_ops, budget
    )
    _check_in_process(inputs, walk_ops, walk_results, tally, "walk")
    spans = traced.recorder
    os.makedirs(OUT, exist_ok=True)
    spans.write_jsonl(os.path.join(OUT, f"trace-{workload.name}.jsonl"), workload.name)

    with walk.make_service(inputs.graphs, budget, backend="threads") as service:
        executor_s, results = walk.time_service(service, walk_ops)
    _check_in_process(inputs, walk_ops, results, tally, "executor")

    with walk.make_service(
        inputs.graphs, budget, sharded=True, backend="threads"
    ) as service:
        sharded_s, results = walk.time_service(service, shard_ops)
        sharded = service.metrics.summary()
    _check_in_process(inputs, shard_ops, results, tally, "sharded")
    sharded_requests = sum(len(op.requests) for op in shard_ops)

    graph = next(iter(inputs.graphs.values()))
    hub = int(np.argmax(graph.out_degrees()))
    physical_k, virtual_k = choose_physical_k(graph), choose_virtual_k(graph)
    start = clock()
    udt_transform(graph, physical_k)
    udt_ms = (clock() - start) * 1e3
    virtual_ms = []
    for _ in range(3):
        start = clock()
        virtual_transform(graph, virtual_k, coalesced=True)
        virtual_ms.append((clock() - start) * 1e3)
    methods = {m.name: m for m in standard_methods(k_v=virtual_k)}
    simulated = {
        m: methods[m].run(graph, "sssp", hub).time_ms for m in ("baseline", "tigr-v+")
    }

    engine_per_op = spans.per_operation(("engine.run_sources",))
    executor_part = spans.per_operation(walk.EXECUTOR_SPANS)
    children = spans.per_operation(
        {n for n, *_ in spans.spans if n != "walk.operation"}
    )
    walk_total_s = sum(traced_s)
    us, ms = 1e6, 1e3
    metrics = {
        "api.http.read_request_us": p50(spans.durations("api.http.read_request"), us),
        "api.protocol.parse_us": p50(spans.durations("api.protocol.parse"), us),
        "api.protocol.result_payload_us":
            p50(spans.durations("api.protocol.result_payload"), us),
        "api.http.response_encode_us":
            p50(spans.durations("api.http.response_encode"), us),
        "api.bytes_per_response": statistics.mean(traced.response_bytes),
        "api.edge_overhead_ms": (p50(server_s) - p50(executor_s)) * ms,
        "ingest.result_digest_us": p50(spans.durations("ingest.result_digest"), us),
        "executor.run_ms": p50(executor_s, ms),
        "executor.dispatch_overhead_us": p50(
            [run - executor_part[i] for i, run in enumerate(executor_s, start=1)], us
        ),
        "executor.max_queue_depth": after["max_queue_depth"],
        "batching.group_requests_us":
            p50(spans.durations("batching.group_requests"), us),
        "batching.sources_deduped": delta("sources_deduped"),
        "batching.lanes_per_traversal": after["lanes_per_traversal"],
        "batching.traversals_saved": delta("traversals_saved"),
        "planner.plan_query_us": p50(spans.durations("planner.plan_query"), us),
        "catalog.prepare_us": p50(spans.durations("catalog.prepare"), us),
        "catalog.lookup_hit_us": p50(spans.durations("catalog.lookup_hit"), us),
        "catalog.build_ms": p50(spans.durations("catalog.build"), ms),
        "catalog.hit_rate":
            (delta("catalog_hits") + delta("catalog_disk_hits")) / lookups
            if lookups else 0.0,
        "catalog.builds": delta("catalog_builds"),
        "catalog.evictions": delta("catalog_evictions"),
        "catalog.bytes_in_memory": after["catalog_bytes_in_memory"],
        "core.udt_transform_ms": udt_ms,
        "core.virtual_transform_ms": statistics.median(virtual_ms),
        "engine.run_sources_ms": p50(list(engine_per_op.values()), ms),
        "engine.share_of_latency": sum(engine_per_op.values()) / sum(server_s),
        "kernels.numpy_medges_s": _kernel_medges_s(graph, hub, "numpy"),
        "kernels.cjit_medges_s":
            _kernel_medges_s(graph, hub, "cjit")
            if kernels.get_backend("cjit").is_available() else 0.0,
        "kernels.cjit_compile_s": cjit_compile_s,
        "sharding.run_ms": p50(sharded_s, ms),
        "sharding.overhead_ratio":
            p50(sharded_s) / p50(executor_s[:len(shard_ops)]),
        "sharding.supersteps_per_request":
            sharded["shard_supersteps"] / sharded_requests,
        "sharding.exchange_bytes_per_request":
            sharded["shard_exchange_bytes"] / sharded_requests,
        "sharding.fallbacks": sharded["shard_fallbacks"] + delta("shard_fallbacks"),
        "sharding.server_batches": delta("sharded_batches"),
        "workers.process_roundtrip_ms": p50(process_s, ms),
        "workers.ipc_bytes_per_request":
            ipc_bytes / sum(len(op.requests) for op in process_ops),
        "workers.spec_pickle_us":
            walk.spec_pickle_seconds(inputs.graphs, process_ops) * us,
        "graph.load_dataset_ms": inputs.load_dataset_ms,
        "graph.fingerprint_us": inputs.fingerprint_us,
        "gpu.sim_speedup_vplus": simulated["baseline"] / simulated["tigr-v+"],
        "walk.total_ms": p50(traced_s, ms),
        # median of paired differences: one slow engine run on either
        # side would otherwise swamp a few microseconds of span cost
        "trace.overhead_share":
            p50([t - n for t, n in zip(traced_s, plain_s)]) / p50(plain_s),
    }
    extras = {
        "failed_share": tally.failed / tally.attempted,
        "window_operations": sent,
        "window_requests": requests_sent,
        "walk_operations": len(walk_ops),
        "walk_span_coverage": sum(children.values()) / walk_total_s,
        "server_latency_p50_ms": p50(server_s, ms),
    }
    return {"metrics": metrics, "extras": extras, "tally": tally}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def stamp(seed: int, seconds: float) -> dict:
    """Machine shape and versions, so two ledgers can be told apart."""
    def capture(command):
        try:
            out = subprocess.run(
                command, capture_output=True, text=True, timeout=10, cwd=REPO
            )
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired, IndexError):
            return ""

    return {
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cc": capture([os.environ.get("CC", "cc"), "--version"]),
        "git_commit": capture(["git", "rev-parse", "HEAD"]),
        "repro": repro.version_string(),
        "request_counts": {
            w.name: {"trace_ops": w.trace_ops, "walk_ops": w.walk_ops}
            for w in WORKLOADS
        },
    }


def report(name: str, record: dict, units: dict) -> None:
    for metric, value in record["metrics"].items():
        print(f"{name:14s} {metric:36s} {value:14.4f} {units[metric]}")
    for key, value in record["extras"].items():
        if isinstance(value, float):
            print(f"{name:14s} {key:36s} {value:14.4f}")
        else:
            print(f"{name:14s} {key:36s} {value}")
    tally = record["tally"]
    for problem in tally.errors:
        print(f"{name:14s} FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in record["metrics"].items()
        },
    }), flush=True)


def append_ledger(path: str, run: dict) -> None:
    """Add this run to ``path``'s ``runs`` list (diff.py takes medians)."""
    ledger = {"runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            ledger = json.load(fh)
    ledger["runs"].append(run)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")


def pin_to_one_cpu() -> None:
    """Run the generator and every server it spawns on one CPU.

    The loop is closed over one connection, so generator and server
    take turns anyway.  Left to the scheduler on a 2-vCPU box, the
    cross-core wake-ups (and the server's threads trading the GIL
    across cores) moved same-seed throughput by +-8 % run to run;
    pinned to one CPU it repeats within +-2 %.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: measure unpinned


def main(argv=None) -> int:
    spec = load_benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measured window per workload (ends on a block boundary)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="window seconds and traced counts divided by 20")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append this run to a ledger JSON file (for diff.py)")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)
    seconds = args.seconds / 20 if args.smoke else args.seconds
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    pin_to_one_cpu()
    # hermetic: nothing a developer exported may steer this process or
    # the servers it spawns, and nothing is written outside the checkout
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = os.path.join(OUT, "tmp", str(os.getpid()))
    os.makedirs(tmp)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "harness-cache")
    os.environ["TMPDIR"] = tmp

    run = {"stamp": stamp(args.seed, seconds), "traced": traced, "workloads": {}}
    failed = 0
    try:
        for name in args.workload or [w.name for w in WORKLOADS]:
            inputs = Inputs(BY_NAME[name], args.seed, tmp)
            if traced:
                record = measure_layers(inputs, args.smoke, tmp)
            else:
                record = measure_end_to_end(inputs, seconds, tmp)
            if set(record["metrics"]) != set(units):
                raise RuntimeError(
                    f"metrics out of step with BENCHMARK.json {kind}: "
                    f"{sorted(set(record['metrics']) ^ set(units))}"
                )
            report(name, record, units)
            failed += record["tally"].failed
            run["workloads"][name] = {
                "metrics": record["metrics"], "extras": record["extras"],
                "attempted": record["tally"].attempted,
                "failed": record["tally"].failed,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))  # out/tmp, once no other run uses it
        except OSError:
            pass
    if args.out:
        append_ledger(args.out, run)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
