#!/usr/bin/env python
"""Replay a recorded trace against a live HTTP front door.

The network-edge parity gate, as a standalone process::

    PYTHONPATH=src python tools/loadgen.py tests/traces/mixed.jsonl \
        --url 127.0.0.1:8018 [--token SECRET] [--batch 16] [--loop 2]

Loads the trace, checks the server's ``/v1/healthz`` graph
fingerprints against the trace header (a mismatched deployment fails
in one line, not a wall of digest diffs), replays every request
through ``POST /v1/batch`` windows (``--batch 1`` uses
``POST /v1/query``), and diffs each returned ``digest`` against the
recorded one.  Exit status:

* ``0`` — every digest matched (the trace is the contract);
* ``1`` — digest mismatches, missing graphs, or non-2xx answers;
* ``2`` — usage / environment errors (bad URL, unreadable trace).

The ``--ready-file`` flag pairs with ``serve --http ...
--http-ready-file``: it waits for the server to write its bound
address, so scripts can use port 0 without a race.  The ``http-smoke``
CI job drives exactly this pairing on both execution backends.

All the actual replay logic lives in
:mod:`repro.service.api.client`; this file is argument parsing.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.errors import TigrError  # noqa: E402
from repro.service import load_trace, parse_host_port  # noqa: E402
from repro.service.api.client import (  # noqa: E402
    DEFAULT_HTTP_TIMEOUT_S,
    replay_trace_http,
)


def _accepts(address: str) -> bool:
    try:
        socket.create_connection(parse_host_port(address), timeout=1.0).close()
    except (OSError, TigrError):
        return False
    return True


def _wait_for_ready_file(path: str, timeout_s: float) -> str:
    """The address in ``path`` once a server accepts on it.  A file an
    earlier server left names a port nobody listens on, and a reader
    can get there before the new server removes it, so keep reading."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                address = fh.read().strip()
        except FileNotFoundError:
            address = ""
        if address and _accepts(address):
            return address
        time.sleep(0.1)
    raise TigrError(
        f"no server accepted on the address in {path!r} "
        f"within {timeout_s:.0f}s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/loadgen.py",
        description="Replay a recorded trace over HTTP and verify digests.",
    )
    parser.add_argument("trace", help="trace JSONL path (trace-v1 schema)")
    parser.add_argument("--url", default=None, metavar="HOST:PORT",
                        help="front door address (or use --ready-file)")
    parser.add_argument("--ready-file", default=None, metavar="PATH",
                        help="read the address from PATH (written by "
                             "serve --http ... --http-ready-file)")
    parser.add_argument("--ready-timeout", type=float, default=30.0,
                        help="seconds to wait for --ready-file (default 30)")
    parser.add_argument("--token", default=None,
                        help="bearer token, if the server requires auth")
    parser.add_argument("--batch", type=int, default=16,
                        help="requests per /v1/batch window; 1 uses "
                             "/v1/query (default 16)")
    parser.add_argument("--loop", type=int, default=1,
                        help="replay the trace N times (default 1)")
    parser.add_argument("--speed", type=float, default=0.0,
                        help="pacing: 0 = as fast as possible (default), "
                             "1 = recorded gaps, N = N x faster")
    parser.add_argument("--no-verify", action="store_true",
                        help="submit without digest checking (pure load)")
    parser.add_argument("--no-graph-check", action="store_true",
                        help="skip the healthz fingerprint pre-check")
    parser.add_argument("--malformed", choices=("strict", "skip"),
                        default="strict",
                        help="malformed trace-line policy (default strict)")
    parser.add_argument("--timeout", type=float,
                        default=DEFAULT_HTTP_TIMEOUT_S,
                        help="per-request socket timeout in seconds")
    args = parser.parse_args(argv)

    if bool(args.url) == bool(args.ready_file):
        parser.error("exactly one of --url / --ready-file is required")

    try:
        url = args.url or _wait_for_ready_file(
            args.ready_file, args.ready_timeout
        )
        trace = load_trace(args.trace, on_malformed=args.malformed)
        report = replay_trace_http(
            trace,
            url,
            token=args.token,
            batch=max(1, args.batch),
            loop=max(1, args.loop),
            speed=args.speed,
            verify=not args.no_verify,
            check_graphs=not args.no_graph_check,
            timeout_s=args.timeout,
        )
    except TigrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.source = args.trace
    print(report.to_text())
    if not report.ok:
        return 1
    if not report.digests_checked and report.results_failed:
        return 1  # nothing to verify against, and queries failed
    return 0


if __name__ == "__main__":
    sys.exit(main())
