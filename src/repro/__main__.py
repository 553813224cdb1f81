"""Command-line interface for the Tigr reproduction.

Subcommands::

    python -m repro info <dataset|file>          # degree statistics
    python -m repro transform <dataset> [...]    # transform + report
    python -m repro run <algorithm> <dataset>    # run an analytic
    python -m repro compare <algorithm> <dataset>  # all Table 2 methods
    python -m repro query <algorithm> <dataset>  # one query via the
                                                 # serving layer
    python -m repro analyze [paths...]           # static split-safety
                                                 # + concurrency lint
    python -m repro serve <dataset> [...]        # drive a synthetic
                                                 # workload through the
                                                 # concurrent service
    python -m repro bench [...]                  # paper experiments
                                                 # (alias of repro.bench)

Datasets are the Table 3 stand-in names (``pokec`` … ``twitter``) or
a path to an edge-list / ``.npz`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Optional

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.core.udt import udt_transform
from repro.core.virtual import virtual_transform
from repro.core.weights import DumbWeight
from repro.errors import TigrError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.io import load_edge_list, load_npz
from repro.graph.stats import degree_stats, estimate_diameter


def _load(name: str, *, scale: float = 1.0) -> CSRGraph:
    """Resolve a dataset name or file path into a graph."""
    if name.lower() in DATASETS:
        return load_dataset(name, scale=scale)
    if not os.path.exists(name):
        known = ", ".join(dataset_names())
        raise TigrError(f"{name!r} is neither a known dataset ({known}) nor a file")
    if name.endswith(".npz"):
        return load_npz(name)
    if name.endswith(".mtx"):
        from repro.graph.formats import load_mtx

        return load_mtx(name)
    if name.endswith((".graph", ".metis")):
        from repro.graph.formats import load_metis

        return load_metis(name)
    return load_edge_list(name)


def cmd_info(args) -> int:
    graph = _load(args.graph, scale=args.scale)
    stats = degree_stats(graph)
    print(f"graph: {graph}")
    print(f"  {'fingerprint':28s} {graph.fingerprint()}")
    for key, value in stats.as_dict().items():
        if isinstance(value, float):
            print(f"  {key:28s} {value:.4g}")
        else:
            print(f"  {key:28s} {value}")
    if args.diameter:
        print(f"  {'diameter_estimate':28s} {estimate_diameter(graph, seed=0)}")
    return 0


def cmd_transform(args) -> int:
    graph = _load(args.graph, scale=args.scale)
    if args.method == "udt":
        result = udt_transform(
            graph, args.k, dumb_weight=DumbWeight.for_algorithm(args.weights_for)
        )
        stats = result.stats
        print(f"UDT transform, K={args.k}:")
        print(f"  families split:   {stats.num_families}")
        print(f"  new nodes:        {stats.new_nodes}")
        print(f"  new edges:        {stats.new_edges}")
        print(f"  max degree after: {stats.max_degree_after}")
        print(f"  max family hops:  {stats.max_family_hops}")
        print(f"  space ratio:      {stats.space_ratio(graph, result.graph) * 100:.2f}%")
    else:
        virtual = virtual_transform(graph, args.k, coalesced=args.method == "virtual+")
        print(f"virtual transform ({'coalesced' if virtual.coalesced else 'default'}), "
              f"K={args.k}:")
        print(f"  virtual nodes: {virtual.num_virtual_nodes}")
        print(f"  max virtual degree: {virtual.max_virtual_degree()}")
        print(f"  space ratio:   {virtual.space_ratio() * 100:.2f}%")
    return 0


def _pick_method(name: str, k_udt: int, k_v: int):
    from repro.baselines import standard_methods

    for method in standard_methods(k_udt=k_udt, k_v=k_v):
        if method.name == name:
            return method
    raise TigrError(
        f"unknown method {name!r}; known: "
        + ", ".join(m.name for m in standard_methods())
    )


def cmd_run(args) -> int:
    graph = _load(args.graph, scale=args.scale)
    method = _pick_method(args.method, args.k_udt, args.k_v)
    spec = ALGORITHMS[args.algorithm]
    source = args.source
    if spec.needs_source and source is None:
        source = int(np.argmax(graph.out_degrees()))
        print(f"(using max-outdegree source {source})")
    result = method.run(graph, args.algorithm, source)
    if result.oom:
        print(f"{method.name}: OOM (needs {result.footprint_bytes:,} bytes)")
        return 1
    metrics = result.metrics
    print(f"{args.algorithm} via {method.name}:")
    print(f"  simulated time:  {result.time_ms:.4f} ms")
    print(f"  iterations:      {metrics.num_iterations}")
    print(f"  warp efficiency: {metrics.warp_efficiency:.1%}")
    print(f"  instructions:    {metrics.total_instructions:.3e}")
    finite = result.values[np.isfinite(result.values)]
    print(f"  values: {len(finite)} finite, "
          f"range [{finite.min():.4g}, {finite.max():.4g}]" if len(finite)
          else "  values: none finite")
    return 0


def cmd_compare(args) -> int:
    from repro.baselines import standard_methods

    graph = _load(args.graph, scale=args.scale)
    spec = ALGORITHMS[args.algorithm]
    source = args.source
    if spec.needs_source and source is None:
        source = int(np.argmax(graph.out_degrees()))
    rows = []
    for method in standard_methods(k_udt=args.k_udt, k_v=args.k_v):
        if not method.supports(args.algorithm):
            rows.append((method.name, "-"))
            continue
        result = method.run(graph, args.algorithm, source)
        rows.append((method.name, result.display_time))
    width = max(len(name) for name, _ in rows)
    print(f"{args.algorithm} on {args.graph} (simulated ms):")
    for name, cell in rows:
        print(f"  {name:{width}s}  {cell}")
    return 0


def _parse_sources(args, graph: CSRGraph):
    """Source list from --source/--sources, defaulting to the max-degree hub."""
    sources = []
    if args.source is not None:
        sources.append(int(args.source))
    if args.sources:
        try:
            sources.extend(int(s) for s in args.sources.split(","))
        except ValueError:
            raise TigrError(
                f"--sources must be comma-separated integers, got {args.sources!r}"
            ) from None
    if not sources and ALGORITHMS[args.algorithm].needs_source:
        hub = int(np.argmax(graph.out_degrees()))
        print(f"(using max-outdegree source {hub})")
        sources = [hub]
    return sources


def _apply_kernel_backend(args) -> None:
    """Pin the engine kernel backend for this process tree.

    The service builds its own :class:`EngineOptions` deep inside its
    places, so the CLI flag travels as ``$REPRO_KERNEL_BACKEND``
    — the engines' documented fallback — which local hosts inherit
    at start.  Validated eagerly so a typo fails before any work runs.
    """
    choice = getattr(args, "kernel_backend", None)
    if choice is None:
        return
    from repro.engine import kernels

    if choice != "auto":
        kernels.get_backend(choice)  # unknown: a typed EngineError
    os.environ["REPRO_KERNEL_BACKEND"] = choice


def cmd_query(args) -> int:
    from repro.service import AnalyticsService, QueryRequest

    _apply_kernel_backend(args)
    graph = _load(args.graph, scale=args.scale)
    sources = _parse_sources(args, graph)
    with AnalyticsService(workers=args.workers, backend=args.backend) as service:
        service.register(args.graph, graph)
        for round_no in range(args.repeat):
            requests = (
                [QueryRequest.single(args.algorithm, args.graph, s,
                                     timeout_s=args.timeout)
                 for s in sources]
                or [QueryRequest(args.algorithm, args.graph,
                                 timeout_s=args.timeout)]
            )
            results = [t.result() for t in service.submit_batch(requests)]
            for result in results:
                if not result.ok:
                    print(f"error: {result.error}", file=sys.stderr)
                    return 2
            label = f"round {round_no + 1}: " if args.repeat > 1 else ""
            head = results[0]
            print(f"{label}{args.algorithm} via service "
                  f"(transform={head.transform}, K={head.degree_bound}):")
            print(f"  cache hit:    {head.cache_hit}"
                  + (" (degraded)" if head.degraded else ""))
            print(f"  batched with: {head.batched_with} other request(s)")
            for stage, ms in head.timings.as_dict().items():
                print(f"  {stage:13s} {ms * 1e3:.3f} ms")
            for result in results:
                for source, values in result.values.items():
                    finite = values[np.isfinite(values)]
                    where = f"source {source}" if source >= 0 else "all nodes"
                    print(f"  values[{where}]: {len(finite)} finite, "
                          f"range [{finite.min():.4g}, {finite.max():.4g}]"
                          if len(finite) else f"  values[{where}]: none finite")
        if args.stats:
            _print_service_metrics(service)
    return 0


def cmd_analyze(args) -> int:
    from repro.analyze.runner import main as analyze_main

    return analyze_main(args.argv)


def _trace_graph_entry(name: str, scale: float, graph) -> dict:
    """A trace-header recipe for the graph the CLI loaded."""
    from repro.service import dataset_graph_entry

    if name.lower() in DATASETS:
        return dataset_graph_entry(
            name.lower(), scale=scale, fingerprint=graph.fingerprint()
        )
    if name.endswith(".npz"):
        return {"path": name, "fingerprint": graph.fingerprint()}
    # other file formats replay via overrides only; record the
    # fingerprint so a mismatched override is still caught.
    return {"fingerprint": graph.fingerprint()}


def _make_service(args, *, recorder=None):
    """Build the service the ``serve`` flags ask for.

    One constructor call for every serve mode — synthetic, trace
    replay, HTTP: ``--quota``/``--priority`` are admission policy and
    apply everywhere; ``--shards N`` puts the scatter-gather tier
    first in the place list, with ``--shard-remote``/``--route``
    shaping it (docs/sharding.md); ``--backend processes`` adds the
    pool behind it.
    """
    from repro.service import (
        AnalyticsService,
        RoutingPolicy,
        parse_host_port,
        parse_priority_arg,
        parse_quota_arg,
    )

    policy = RoutingPolicy(
        quotas=dict(parse_quota_arg(v) for v in (args.quota or ())),
        priorities=dict(parse_priority_arg(v) for v in (args.priority or ())),
        route=args.route,
    )
    return AnalyticsService(
        workers=args.workers, backend=args.backend,
        queue_size=args.queue_size, default_timeout_s=args.timeout,
        recorder=recorder, policy=policy, shards=args.shards,
        shard_remotes=tuple(parse_host_port(v, "--shard-remote")
                            for v in (args.shard_remote or ())),
    )


def _print_service_metrics(service) -> None:
    print("service metrics:")
    for key, value in service.metrics.summary().items():
        print(f"  {key:28s} {value:.4g}"
              if isinstance(value, float) else f"  {key:28s} {value}")


def cmd_serve_trace(args) -> int:
    """``serve --trace``: drive the service from a recorded stream."""
    from repro.service import TraceRecorder, load_trace, replay_trace

    trace = load_trace(args.trace, on_malformed=args.malformed)
    overrides = {}
    if args.graph is not None:
        overrides[args.graph] = _load(args.graph, scale=args.scale)
    recorder = None
    if args.record:
        recorder = TraceRecorder(args.record, graphs=trace.header.graphs)
    try:
        with _make_service(args) as service:
            report = replay_trace(
                trace,
                service=service,
                speed=args.speed,
                loop=args.loop,
                batch=args.batch,
                graphs=overrides,
                recorder=recorder,
            )
            report.source = args.trace
            print(report.to_text())
            _print_service_metrics(service)
    finally:
        if recorder is not None:
            recorder.close()
    if not report.ok:
        return 1
    if not report.digests_checked and report.results_failed:
        return 1  # nothing to verify against, and queries failed
    return 0


def _clear_ready_file(path: Optional[str]) -> None:
    """Remove a stale ready file at start: a reader never takes an
    earlier server's dead port for this one's."""
    if path:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _write_ready_file(path: Optional[str], address: str) -> None:
    """Publish ``address`` in one rename: a reader sees all of it or nothing."""
    if path:
        with open(f"{path}.tmp", "w", encoding="utf-8") as fh:
            fh.write(address + "\n")
        os.replace(f"{path}.tmp", path)


def cmd_serve_http(args) -> int:
    """``serve --http``: front the service with the HTTP/JSON API."""
    from repro.service import parse_host_port
    from repro.service.api import run_server

    _clear_ready_file(args.http_ready_file)
    host, port = parse_host_port(args.http, "--http")
    graphs = {}
    if args.graph is not None:
        graphs[args.graph] = _load(args.graph, scale=args.scale)
    if args.trace is not None:
        from repro.service import load_trace, resolve_trace_graphs

        trace = load_trace(args.trace, on_malformed=args.malformed)
        graphs = resolve_trace_graphs(trace, overrides=graphs)
    if not graphs:
        raise TigrError(
            "serve --http needs a graph argument and/or --trace with "
            "graph recipes, else every query would answer 404"
        )
    with _make_service(args) as service:
        for name, graph in graphs.items():
            service.register(name, graph)

        def ready(bound_host: str, bound_port: int) -> None:
            address = f"{bound_host}:{bound_port}"
            print(f"serving {', '.join(sorted(graphs))} on http://{address} "
                  f"({service.backend} backend, {service.workers} workers); "
                  f"Ctrl-C drains and exits", flush=True)
            _write_ready_file(args.http_ready_file, address)

        run_server(
            service,
            ready_callback=ready,
            host=host,
            port=port,
            auth_tokens=tuple(args.auth_token or ()),
            rate_limit=args.rate_limit,
            burst=args.burst,
        )
        _print_service_metrics(service)
    return 0


def cmd_serve(args) -> int:
    import random

    from repro.service import QueryRequest

    _apply_kernel_backend(args)
    if args.http is not None:
        return cmd_serve_http(args)
    if args.trace is not None:
        return cmd_serve_trace(args)
    if args.graph is None:
        raise TigrError("serve needs a graph (or --trace with graph recipes)")
    if args.batch < 1:  # replay_trace checks its own
        raise TigrError(f"batch must be >= 1, got {args.batch}")
    graph = _load(args.graph, scale=args.scale)
    rng = random.Random(args.seed)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise TigrError(
                f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
            )
    recorder = None
    if args.record:
        from repro.service import TraceRecorder

        recorder = TraceRecorder(
            args.record,
            graphs={args.graph: _trace_graph_entry(args.graph, args.scale, graph)},
        )
    start = time.perf_counter()
    with _make_service(args, recorder=recorder) as service:
        service.register(args.graph, graph)
        n = graph.num_nodes
        requests = []
        for _ in range(args.requests):
            algorithm = rng.choice(algorithms)
            if ALGORITHMS[algorithm].needs_source:
                requests.append(QueryRequest.single(
                    algorithm, args.graph, rng.randrange(n)))
            else:
                requests.append(QueryRequest(algorithm, args.graph))
        tickets = []
        for lo in range(0, len(requests), args.batch):
            tickets.extend(service.submit_batch(requests[lo:lo + args.batch]))
        results = [t.result() for t in tickets]
        elapsed = time.perf_counter() - start
        ok = sum(r.ok for r in results)
        print(f"served {ok}/{len(results)} queries in {elapsed:.3f}s "
              f"({ok / elapsed:.1f} queries/s, {args.workers} workers)")
        _print_service_metrics(service)
    if recorder is not None:
        recorder.close()
        print(f"recorded {recorder.requests_recorded} request(s) / "
              f"{recorder.results_recorded} digest(s) to {args.record}")
    return 0 if ok == len(results) else 1


def cmd_shard_host(args) -> int:
    """``shard-host``: serve shard slices to a remote sharded service."""
    from repro.service import ShardHostServer, parse_host_port

    _clear_ready_file(args.ready_file)
    host, port = parse_host_port(args.listen, "--listen")
    server = ShardHostServer((host, port))
    bound = f"{server.server_address[0]}:{server.server_address[1]}"
    print(f"shard host listening on {bound}; Ctrl-C exits", flush=True)
    _write_ready_file(args.ready_file, bound)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


#: the flags ``query`` and ``serve`` share, declared once; each
#: sub-parser places them (``--help`` prints in declaration order) and
#: passes what differs per command through :func:`_service_flag`.
_SERVICE_FLAGS = {
    "--workers": dict(type=int),
    "--backend": dict(
        choices=("threads", "processes"), default=None,
        help="execution backend (default: $REPRO_SERVICE_WORKERS "
             "or threads; see docs/operations.md)"),
    "--timeout": dict(type=float, default=None),
    "--kernel-backend": dict(
        default=None, metavar="NAME",
        help="engine kernel backend: auto (cost model), numpy, "
             "or the JIT backend cjit (docs/kernels.md); "
             "default: $REPRO_KERNEL_BACKEND or auto"),
}


def _service_flag(parser, flag: str, **per_command) -> None:
    parser.add_argument(flag, **{**_SERVICE_FLAGS[flag], **per_command})


def build_parser() -> argparse.ArgumentParser:
    import repro

    # no prefix matching: a retired flag must not read as a live one
    # (`query --k cjit` would pin --kernel-backend)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tigr (ASPLOS'18) reproduction toolkit.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "--version", action="version", version=repro.version_string(),
        help="print the version (the same string GET /v1/healthz reports)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="degree statistics of a graph", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--diameter", action="store_true",
                   help="also estimate the diameter (slower)")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("transform", help="apply a split transformation", allow_abbrev=False)
    p.add_argument("graph")
    p.add_argument("--method", choices=("udt", "virtual", "virtual+"),
                   default="virtual+")
    p.add_argument("--k", type=int, default=10, help="degree bound K")
    p.add_argument("--weights-for", default="sssp",
                   help="analytic deciding the dumb-weight policy (udt only)")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_transform)

    for name, fn in (("run", cmd_run), ("compare", cmd_compare)):
        p = sub.add_parser(
            name,
            help="run one analytic" if name == "run" else "compare all methods",
            allow_abbrev=False,
        )
        p.add_argument("algorithm", choices=sorted(ALGORITHMS))
        p.add_argument("graph")
        if name == "run":
            p.add_argument("--method", default="tigr-v+")
        p.add_argument("--source", type=int, default=None)
        p.add_argument("--k-udt", type=int, default=16)
        p.add_argument("--k-v", type=int, default=10)
        p.add_argument("--scale", type=float, default=1.0)
        p.set_defaults(func=fn)

    p = sub.add_parser("query", help="run one analytic through the serving layer", allow_abbrev=False)
    p.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p.add_argument("graph")
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--sources", default=None,
                   help="comma-separated source list (batched, deduplicated)")
    _service_flag(p, "--timeout", help="per-request deadline in seconds")
    p.add_argument("--repeat", type=int, default=1,
                   help="submit the query N times")
    _service_flag(p, "--workers", default=2)
    _service_flag(p, "--backend")
    p.add_argument("--stats", action="store_true",
                   help="print service metrics after the run")
    _service_flag(p, "--kernel-backend")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser(
        "serve",
        help="drive a synthetic or trace-recorded workload through the service",
        allow_abbrev=False,
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="graph to serve (optional with --trace when the "
                        "trace header carries graph recipes)")
    p.add_argument("--trace", default=None, metavar="SRC",
                   help="replay a recorded JSONL trace instead of the "
                        "synthetic workload; SRC is a path, '-' (stdin), "
                        "or tcp://host:port (docs/service.md); with "
                        "--http, only the header's graph recipes are used")
    p.add_argument("--http", default=None, metavar="HOST:PORT",
                   help="serve the HTTP/JSON API instead of a local "
                        "workload (port 0 picks a free one; docs/http-api.md)")
    p.add_argument("--auth-token", action="append", default=None,
                   metavar="TOKEN",
                   help="accepted bearer token for --http (repeatable; "
                        "no tokens disables auth)")
    p.add_argument("--rate-limit", type=float, default=None, metavar="RPS",
                   help="per-client requests/second for --http "
                        "(default: unlimited)")
    p.add_argument("--burst", type=int, default=16,
                   help="token-bucket depth for --rate-limit (default 16)")
    p.add_argument("--http-ready-file", default=None, metavar="PATH",
                   help="write the bound HOST:PORT to PATH once listening, "
                        "removing a stale PATH at start (lets scripts use "
                        "port 0 without a race)")
    p.add_argument("--record", default=None, metavar="OUT",
                   help="record served traffic (synthetic or replayed) "
                        "plus result digests to OUT as a replayable trace")
    p.add_argument("--speed", type=float, default=0.0,
                   help="trace pacing: 0 = as fast as possible (default), "
                        "1 = recorded inter-arrival gaps, N = N x faster")
    p.add_argument("--loop", type=int, default=1,
                   help="replay the trace N times through one service")
    p.add_argument("--malformed", choices=("strict", "skip"), default="strict",
                   help="malformed trace-line policy (default strict)")
    p.add_argument("--requests", type=int, default=64,
                   help="number of synthetic queries (default 64)")
    p.add_argument("--algorithms", default="bfs,sssp,pr",
                   help="comma-separated analytics to sample from")
    _service_flag(p, "--workers", default=4)
    _service_flag(p, "--backend")
    p.add_argument("--queue-size", type=int, default=128)
    p.add_argument("--batch", type=int, default=16,
                   help="submission batch size (same-graph coalescing window)")
    _service_flag(p, "--timeout",
                  help="default per-request deadline in seconds")
    # shims with no effect (serving caches nothing), kept while
    # benchmarks/ledger/workloads.py passes them
    p.add_argument("--cache-mb", help="ignored")
    p.add_argument("--catalog-policy", help="ignored")
    _service_flag(p, "--kernel-backend")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="scatter-gather shardable analytics across N shard "
                        "executors (0 = single engine; docs/sharding.md)")
    p.add_argument("--shard-remote", action="append", default=None,
                   metavar="HOST:PORT",
                   help="host shard i on a running 'repro shard-host' "
                        "(repeatable; remaining shards run in-process)")
    p.add_argument("--quota", action="append", default=None,
                   metavar="TENANT=RATE[:BURST]",
                   help="token-bucket admission quota for one tenant "
                        "(repeatable; unlisted tenants are unmetered; "
                        "enforced with or without --shards)")
    p.add_argument("--priority", action="append", default=None,
                   metavar="TENANT=CLASS",
                   help="priority class for one tenant: interactive, "
                        "default, batch, or an integer (lower runs sooner; "
                        "repeatable)")
    p.add_argument("--route", choices=("sharded", "single", "auto"),
                   default="sharded",
                   help="with --shards: always scatter-gather, never, or "
                        "let the cost model decide per batch once a "
                        "--shard-remote host is configured (default "
                        "sharded)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=cmd_serve)

    # the flags are repro.analyze.runner.build_parser's, declared there
    # once: every word after `analyze` is handed to it (no prefix char
    # here, so nothing parses as an option; importing the analyzer to
    # declare them would slow every other command's start)
    p = sub.add_parser(
        "analyze",
        help="static split-safety verifier + concurrency/scatter lint",
        add_help=False,
        prefix_chars="\0",
    )
    p.add_argument("argv", nargs="*")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "shard-host",
        help="host shard executors for a remote 'serve --shards' tier",
        allow_abbrev=False,
    )
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address (port 0 picks a free one; default "
                        "127.0.0.1:0)")
    p.add_argument("--ready-file", default=None, metavar="PATH",
                   help="write the bound HOST:PORT to PATH once listening, "
                        "removing a stale PATH at start (lets scripts use "
                        "port 0 without a race)")
    p.set_defaults(func=cmd_shard_host)

    p = sub.add_parser("bench", help="regenerate the paper's experiments", allow_abbrev=False)
    p.add_argument("experiments", nargs="*", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=None)  # handled specially below
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        from repro.bench.__main__ import main as bench_main

        forwarded = list(args.experiments or [])
        forwarded += ["--scale", str(args.scale)]
        return bench_main(forwarded)
    try:
        return args.func(args)
    except TigrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
