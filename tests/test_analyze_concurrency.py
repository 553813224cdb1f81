"""Tests for the service-tier rule pack (ROUTE001, LOCK004).

Mirrors the SPLIT/LOCK fixture pattern in ``tests/test_analyze.py``:
each rule gets a seeded violation caught at the right file:line and a
near-miss that must stay quiet — the safe idioms the service tier
actually uses (a typed-error mapping, guarded-method calls) are the
negative cases.
"""

import textwrap

from repro.analyze import analyze_paths


def write_fixture(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# ROUTE001 — handler modules without typed-error mapping
# ----------------------------------------------------------------------
class TestHandlerErrorMapping:
    def test_seeded_violation(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "unmapped.py",
            """
            class MiniServer:
                def __init__(self):
                    self._routes = {"/v1/echo": self._handle_echo}

                def _handle_echo(self, request):
                    return {"echo": request}
            """,
        )
        report = analyze_paths([path])
        (finding,) = findings_for(report, "ROUTE001")
        assert finding.line == 6
        assert "_handle_echo" in finding.message

    def test_error_response_mapping_satisfies(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "mapped.py",
            """
            from repro.service.api.protocol import error_response
            from repro.errors import TigrError

            class MiniServer:
                def __init__(self):
                    self._routes = {"/v1/echo": self._handle_echo}

                def _handle_echo(self, request):
                    try:
                        return {"echo": request}
                    except TigrError as exc:
                        return error_response(exc)
            """,
        )
        report = analyze_paths([path])
        assert findings_for(report, "ROUTE001") == []

    def test_module_without_routes_is_quiet(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "noroutes.py",
            """
            def lonely_handler(request):
                return request
            """,
        )
        report = analyze_paths([path])
        assert findings_for(report, "ROUTE001") == []


# ----------------------------------------------------------------------
# LOCK004 — guarded service state mutated from outside
# ----------------------------------------------------------------------
class TestGuardedMutation:
    BODY = """
        import threading

        class ServiceMetrics:
            def __init__(self):
                self._lock = threading.Lock()
                self.http_requests = 0
                self.samples = []

            def http_observed(self):
                with self._lock:
                    self.http_requests += 1

        def sneak(metrics: ServiceMetrics):
            metrics.http_requests += 1

        def sneak_deeper(metrics: ServiceMetrics):
            metrics.samples.append(1)

        def polite(metrics: ServiceMetrics):
            metrics.http_observed()
    """

    def test_seeded_violations(self, tmp_path):
        path = write_fixture(tmp_path, "metrics.py", self.BODY)
        report = analyze_paths([path])
        found = findings_for(report, "LOCK004")
        assert [f.line for f in found] == [15, 18]
        assert "ServiceMetrics" in found[0].message

    def test_method_calls_are_the_sanctioned_path(self, tmp_path):
        path = write_fixture(tmp_path, "metrics.py", self.BODY)
        report = analyze_paths([path])
        # `polite` (line 21) calls the guarded method; not flagged
        assert all(f.line != 21 for f in findings_for(report, "LOCK004"))

    def test_own_methods_are_exempt(self, tmp_path):
        path = write_fixture(
            tmp_path,
            "own.py",
            """
            import threading

            class ServiceMetrics:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
        )
        report = analyze_paths([path])
        assert findings_for(report, "LOCK004") == []


# ----------------------------------------------------------------------
# The repo's own service tier under the pack
# ----------------------------------------------------------------------
class TestServiceTierClean:
    def test_api_and_executor_pass_the_pack(self):
        import repro.service.api as api_pkg
        import repro.service.executor as executor_module
        import os

        report = analyze_paths(
            [os.path.dirname(api_pkg.__file__), executor_module.__file__],
            rules=["ROUTE001", "LOCK004"],
            honor_suppressions=False,
        )
        assert report.findings == [], report.to_text()
