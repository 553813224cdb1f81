"""The benchmark's own HTTP client and server lifecycle.

The client holds one ``http.client`` keep-alive connection and stops
the clock at the last response byte read; JSON decoding and answer
verification happen later, off the clock — otherwise a 97 KB
``include_values`` answer would charge the generator's ``json.loads``
to the server.

:class:`ServerProcess` owns the front door subprocess end to end:
spawn with a scrubbed environment, ready-file wait, healthz
fingerprint check, ``VmHWM`` read, SIGTERM drain, and a hard kill on
timeout so a failed run leaves no orphan.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: seconds a socket read may block before the run is declared hung.
HTTP_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0


class LedgerClient:
    """One keep-alive connection; raw bytes out, timestamps in hand."""

    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        self._conn = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT_S)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "LedgerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get_json(self, path: str) -> dict:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        raw = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}: {raw[:200]!r}")
        return json.loads(raw)

    def query(self, body: bytes) -> Tuple[float, int, bytes]:
        """``POST /v1/query`` -> (seconds to last byte, status, raw body)."""
        start = time.perf_counter()
        self._conn.request(
            "POST", "/v1/query", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        raw = response.read()
        return time.perf_counter() - start, response.status, raw

    def batch(self, body: bytes) -> Tuple[float, int, List[Tuple[float, bytes]]]:
        """``POST /v1/batch`` -> (window seconds, status, [(arrival s, raw line)]).

        Each result line is stamped as it is read off the chunked
        stream, measured from the moment the window was sent.
        """
        start = time.perf_counter()
        self._conn.request(
            "POST", "/v1/batch", body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        response = self._conn.getresponse()
        lines: List[Tuple[float, bytes]] = []
        if response.status != 200:
            raw = response.read()
            return time.perf_counter() - start, response.status, [(0.0, raw)]
        while True:
            line = response.readline()
            if not line:
                break
            lines.append((time.perf_counter() - start, line))
        return time.perf_counter() - start, response.status, lines


def scrubbed_env(cache_dir: str, src_dir: str) -> Dict[str, str]:
    """The server's environment: no inherited ``REPRO_*``, own cache dir.

    A developer's ``calibration.json`` or exported
    ``REPRO_KERNEL_BACKEND`` must not flip the ``auto`` choices under
    the benchmark, the lazy cjit compile must land in ``setup_s``, and
    string hashing is fixed so set-up time repeats.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = cache_dir
    # prepare_graph's symmetrise is hash-order dependent: a cold cc on
    # sinaweibo prepares in 0.2 s or 0.6-0.9 s depending on the seed
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src_dir
    env["TMPDIR"] = cache_dir
    return env


class ServerProcess:
    """``python -m repro serve --http`` as a managed subprocess."""

    def __init__(
        self,
        flags: Sequence[str],
        *,
        trace_file: str,
        workdir: str,
        src_dir: str,
    ) -> None:
        self.workdir = workdir
        self.ready_file = os.path.join(workdir, "ready")
        self.log_path = os.path.join(workdir, "server.log")
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--trace", trace_file,
            "--http", "127.0.0.1:0",
            "--http-ready-file", self.ready_file,
            *flags,
        ]
        self._env = scrubbed_env(os.path.join(workdir, "cache"), src_dir)
        self._proc: Optional[subprocess.Popen] = None
        self._log = None
        self.address = ""

    def start(self) -> None:
        os.makedirs(self._env["REPRO_CACHE_DIR"], exist_ok=True)
        self._log = open(self.log_path, "wb")
        self._proc = subprocess.Popen(
            self.command, env=self._env, cwd=self.workdir,
            stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, expected_fingerprints: Dict[str, str]) -> str:
        """Block until the listener is bound and serves the right graphs."""
        assert self._proc is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not self.address:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited {self._proc.returncode} before binding:\n"
                    + self.log_tail()
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server never wrote its ready file")
            try:
                with open(self.ready_file, "r", encoding="utf-8") as fh:
                    self.address = fh.read().strip()
            except FileNotFoundError:
                pass
            if not self.address:
                time.sleep(0.005)
        with LedgerClient(self.address) as client:
            served = client.get_json("/v1/healthz")["graphs"]
        if served != expected_fingerprints:
            raise RuntimeError(
                f"server graphs {served} != generated graphs {expected_fingerprints}"
            )
        return self.address

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self._proc is not None
        with open(f"/proc/{self._proc.pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM, wait out the drain, hard-kill on timeout."""
        proc = self._proc
        if proc is None:
            return 0
        self._proc = None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if self._log is not None:
                self._log.close()
        return proc.returncode

    def log_tail(self, lines: int = 20) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return ""
