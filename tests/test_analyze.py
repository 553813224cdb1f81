"""Tests for ``repro.analyze``: the static split-safety verifier and
the concurrency/scatter lints.

Two halves:

* the repo's own sources must pass **completely clean** (the CI gate
  runs ``python -m repro analyze --strict``);
* seeded-violation fixtures must each be caught by the *right* rule id
  at the right file:line — the checkers are tested as checkers, not
  just as "something fired".
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main as cli_main
from repro.analyze import RULES, analyze_paths, default_root, layers
from repro.analyze.astutils import load_sources
from repro.core.applicability import (
    COMPOSED_ANALYSES,
    PROGRAM_EXPECTATIONS,
    RELAX_CLASS_DUMB_WEIGHT,
    REQUIREMENTS,
)


def write_fixture(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


def findings_for(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ----------------------------------------------------------------------
# The repo itself
# ----------------------------------------------------------------------
class TestRepoClean:
    def test_no_findings_on_own_sources(self):
        report = analyze_paths()
        assert report.findings == [], report.to_text()
        assert report.files_scanned > 50

    def test_programs_module_alone_is_clean(self):
        """All six analytics verify: five programs plus composed BC."""
        import repro.algorithms.programs as programs_module

        report = analyze_paths([programs_module.__file__])
        assert report.findings == [], report.to_text()

    def test_strict_cli_gate(self, capsys):
        assert cli_main(["analyze", "--strict"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_no_pragma_quiets_a_fence(self):
        # a CI grep could never be silenced; neither can its rule
        report = analyze_paths(rules=["LAYER*"], honor_suppressions=False)
        assert report.findings == [], report.to_text()


# ----------------------------------------------------------------------
# Applicability expectations (the table the checker diffs against)
# ----------------------------------------------------------------------
class TestExpectations:
    def test_every_expectation_names_a_table_analysis(self):
        for expectation in PROGRAM_EXPECTATIONS.values():
            assert expectation.analysis in REQUIREMENTS
            assert REQUIREMENTS[expectation.analysis].split_safe

    def test_relax_class_dumb_weights_match_table(self):
        """Theorem 1: the class-derived weight equals the table's."""
        for expectation in PROGRAM_EXPECTATIONS.values():
            assert (
                RELAX_CLASS_DUMB_WEIGHT[expectation.relax_class]
                is expectation.dumb_weight
            )

    def test_composed_analyses_resolve(self):
        for analysis, parts in COMPOSED_ANALYSES.items():
            assert REQUIREMENTS[analysis].split_safe
            for part in parts:
                assert part in PROGRAM_EXPECTATIONS


# ----------------------------------------------------------------------
# Split-safety checker fixtures
# ----------------------------------------------------------------------
PROGRAM_HEADER = """\
    import numpy as np
    from repro.engine.program import PushProgram, ReduceOp

"""


class TestProgramChecker:
    def test_non_commutative_reduce(self, tmp_path):
        path = write_fixture(tmp_path, "bad_reduce.py", PROGRAM_HEADER + """\
    class BadReduce(PushProgram):
        name = "sssp"
        reduce = ReduceOp.SUB

        def relax(self, src_values, edge_weights):
            return src_values + edge_weights
    """)
        report = analyze_paths([path])
        split001 = findings_for(report, "SPLIT001")
        assert len(split001) == 1
        assert split001[0].path == path
        assert "ReduceOp.SUB" in split001[0].message
        # SUB also disagrees with the table's MIN expectation.
        assert findings_for(report, "SPLIT005")

    def test_wrong_dumb_weight(self, tmp_path):
        """An sssp program with a widest-path relax: Theorem 1 says
        +inf, the table says 0 — both the class and weight drift."""
        path = write_fixture(tmp_path, "bad_weight.py", PROGRAM_HEADER + """\
    class WrongMetric(PushProgram):
        name = "sssp"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return np.minimum(src_values, edge_weights)
    """)
        report = analyze_paths([path])
        split003 = findings_for(report, "SPLIT003")
        assert len(split003) == 1
        assert "'infinity'" in split003[0].message
        assert "'zero'" in split003[0].message
        # relax line anchors the finding.
        assert split003[0].line == 8

    def test_reduce_drift_from_table(self, tmp_path):
        """SSWP flipped to MIN: relax and weight agree, reduce drifts."""
        path = write_fixture(tmp_path, "drifted_sswp.py", PROGRAM_HEADER + """\
    class DriftedSSWP(PushProgram):
        name = "sswp"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return np.minimum(src_values, edge_weights)
    """)
        report = analyze_paths([path])
        ids = rule_ids(report)
        assert "SPLIT005" in ids
        assert "SPLIT002" not in ids and "SPLIT003" not in ids

    def test_lane_safety_drift_double_count(self, tmp_path):
        """An sssp program flipped to ADD: the code implies
        lane_safe=False, the table certifies True — SPLIT006 warns the
        union frontier would double-count."""
        path = write_fixture(tmp_path, "add_sssp.py", PROGRAM_HEADER + """\
    class AddSSSP(PushProgram):
        name = "sssp"
        reduce = ReduceOp.ADD

        def relax(self, src_values, edge_weights):
            return src_values + edge_weights
    """)
        report = analyze_paths([path])
        split006 = findings_for(report, "SPLIT006")
        assert len(split006) == 1
        assert "lane_safe=False" in split006[0].message
        assert "double-count" in split006[0].message

    def test_lane_safety_drift_needless_refusal(self, tmp_path):
        """The mirror drift: a pagerank program with an idempotent
        reduce looks lane-safe, but the table certifies it is not."""
        path = write_fixture(tmp_path, "min_pr.py", PROGRAM_HEADER + """\
    class MinRank(PushProgram):
        name = "pagerank"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return src_values.copy()
    """)
        report = analyze_paths([path])
        split006 = findings_for(report, "SPLIT006")
        assert len(split006) == 1
        assert "needlessly refused" in split006[0].message

    def test_unknown_program_name(self, tmp_path):
        path = write_fixture(tmp_path, "unknown.py", PROGRAM_HEADER + """\
    class Mystery(PushProgram):
        name = "fancy"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return src_values + edge_weights
    """)
        report = analyze_paths([path])
        assert any(
            f.rule_id == "SPLIT004" and "fancy" in f.message
            for f in report.findings
        )

    def test_unclassifiable_relax(self, tmp_path):
        path = write_fixture(tmp_path, "odd_relax.py", PROGRAM_HEADER + """\
    class OddRelax(PushProgram):
        name = "sssp"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return src_values * edge_weights
    """)
        report = analyze_paths([path])
        split002 = findings_for(report, "SPLIT002")
        assert len(split002) == 1
        assert "no known path-metric class" in split002[0].message

    def test_table_side_drift(self, tmp_path):
        """A scan that defines only one program: the table's other
        expectations (and composed analyses) are reported missing."""
        path = write_fixture(tmp_path, "only_bfs.py", PROGRAM_HEADER + """\
    class OnlyBFS(PushProgram):
        name = "bfs"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return src_values + edge_weights
    """)
        report = analyze_paths([path])
        missing = findings_for(report, "SPLIT004")
        # sssp, sswp, cc, pagerank expectations have no program here.
        assert len(missing) >= 4
        assert any("'sswp'" in f.message for f in missing)

    def test_split_unsafe_analysis_with_program(self, tmp_path, monkeypatch):
        """A program backing a split-unsafe analytic is drift."""
        from repro.core import applicability as app

        expectation = app.ProgramExpectation(
            "triangles", "triangle_counting", "additive", "min"
        )
        monkeypatch.setitem(
            app.PROGRAM_EXPECTATIONS, "triangles", expectation
        )
        path = write_fixture(tmp_path, "triangles.py", PROGRAM_HEADER + """\
    class Triangles(PushProgram):
        name = "triangles"
        reduce = ReduceOp.MIN

        def relax(self, src_values, edge_weights):
            return src_values + edge_weights
    """)
        report = analyze_paths([path])
        assert any(
            f.rule_id == "SPLIT004" and "split-unsafe" in f.message
            for f in report.findings
        )


# ----------------------------------------------------------------------
# Lock-discipline checker fixtures
# ----------------------------------------------------------------------
class TestLockChecker:
    def test_seeded_violations(self, tmp_path):
        path = write_fixture(tmp_path, "locky.py", """\
    import threading

    class Shared:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0
            self.items = []

        def guarded(self):
            with self._lock:
                self.count = 1
                self.items.append(1)

        def bad_write(self):
            self.count = 2

        def bad_rmw(self):
            self.count += 1

        def bad_mutating_call(self):
            self.items.append(2)

        def bad_read(self):
            return self.count
    """)
        report = analyze_paths([path])
        lock001 = findings_for(report, "LOCK001")
        assert {f.line for f in lock001} == {15, 21}
        lock002 = findings_for(report, "LOCK002")
        assert [f.line for f in lock002] == [18]
        # The mutating call also *reads* its receiver (line 21), so the
        # read warning fires there alongside LOCK001.
        lock003 = findings_for(report, "LOCK003")
        assert sorted(f.line for f in lock003) == [21, 24]
        assert lock003[0].severity == "warning"

    def test_init_and_unguarded_attributes_exempt(self, tmp_path):
        path = write_fixture(tmp_path, "fine.py", """\
    import threading

    class Fine:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0
            self.free = 0

        def guarded(self):
            with self._lock:
                self.count += 1

        def untracked(self):
            # `free` is never lock-guarded, so mutating it is fine.
            self.free += 1
    """)
        report = analyze_paths([path])
        assert report.findings == [], report.to_text()

    def test_nested_with_keeps_guard(self, tmp_path):
        """Regression: a class lock nested inside another context
        manager still guards its body."""
        path = write_fixture(tmp_path, "nested.py", """\
    import threading

    class Nested:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def guarded(self):
            with self._lock:
                self.count += 1

        def nested_guarded(self, other):
            with other:
                with self._lock:
                    self.count += 1
    """)
        report = analyze_paths([path])
        assert report.findings == [], report.to_text()


# ----------------------------------------------------------------------
# Scatter checker fixtures
# ----------------------------------------------------------------------
class TestScatterChecker:
    def test_buffered_scatter_flagged(self, tmp_path):
        path = write_fixture(tmp_path, "scatters.py", """\
    import numpy as np

    def bad(values, cand):
        dst = np.asarray([0, 0, 1])
        values[dst] += cand
        values[dst] = np.minimum(values[dst], cand)
        np.maximum(values, cand, out=values[dst])
    """)
        report = analyze_paths([path])
        scat001 = findings_for(report, "SCAT001")
        assert [f.line for f in scat001] == [5]
        scat002 = findings_for(report, "SCAT002")
        assert sorted(f.line for f in scat002) == [6, 7]

    def test_safe_patterns_quiet(self, tmp_path):
        path = write_fixture(tmp_path, "safe.py", """\
    import numpy as np

    def good(values, cand, graph):
        dst = np.asarray([0, 0, 1])
        np.minimum.at(values, dst, cand)      # sanctioned unbuffered
        for i in range(3):
            values[i] += 1.0                  # scalar loop index
        values[int(dst[0])] += 1.0            # explicit scalar
        mask = values > 0
        values[mask] += 1.0                   # boolean mask: no repeats
        values[1:] += 2.0                     # slice: no repeats
        np.cumsum(values, out=values[1:])     # slice out=
    """)
        report = analyze_paths([path])
        assert report.findings == [], report.to_text()

    def test_csr_attribute_index_flagged(self, tmp_path):
        path = write_fixture(tmp_path, "attr_idx.py", """\
    import numpy as np

    def push(values, graph, cand):
        values[graph.targets] += cand
    """)
        report = analyze_paths([path])
        assert rule_ids(report) == ["SCAT001"]


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
class TestSuppression:
    def test_named_suppression(self, tmp_path):
        path = write_fixture(tmp_path, "sup.py", """\
    import numpy as np

    def intentional(values, cand):
        dst = np.asarray([0, 0, 1])
        values[dst] += cand  # analyze: ignore[SCAT001]
    """)
        report = analyze_paths([path])
        assert report.findings == [] and report.suppressed == 1
        unsuppressed = analyze_paths([path], honor_suppressions=False)
        assert rule_ids(unsuppressed) == ["SCAT001"]

    def test_blanket_suppression(self, tmp_path):
        path = write_fixture(tmp_path, "sup_all.py", """\
    import numpy as np

    def intentional(values, cand):
        dst = np.asarray([0, 0, 1])
        values[dst] += cand  # analyze: ignore
    """)
        report = analyze_paths([path])
        assert report.findings == [] and report.suppressed == 1

    def test_other_rule_not_suppressed(self, tmp_path):
        path = write_fixture(tmp_path, "sup_other.py", """\
    import numpy as np

    def intentional(values, cand):
        dst = np.asarray([0, 0, 1])
        values[dst] += cand  # analyze: ignore[LOCK001]
    """)
        report = analyze_paths([path])
        assert rule_ids(report) == ["SCAT001"]


# ----------------------------------------------------------------------
# CLI and report formats
# ----------------------------------------------------------------------
@pytest.fixture
def bad_dir(tmp_path):
    write_fixture(tmp_path, "bad.py", """\
    import numpy as np

    def bad(values, cand):
        dst = np.asarray([0, 0, 1])
        values[dst] += cand
    """)
    return tmp_path


class TestCLI:
    def test_json_output(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["counts"] == {"SCAT001": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "SCAT001"
        assert finding["line"] == 5
        assert finding["path"].endswith("bad.py")

    def test_strict_exit_code(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir)]) == 0
        assert cli_main(["analyze", str(bad_dir), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "error[SCAT001]" in out

    def test_rule_filter(self, bad_dir, capsys):
        assert cli_main(
            ["analyze", str(bad_dir), "--rule", "LOCK001", "--strict"]
        ) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_unknown_rule_rejected(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir), "--rule", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rule_comma_list(self, bad_dir, capsys):
        assert cli_main(
            ["analyze", str(bad_dir), "--rule", "SCAT001,LOCK001", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"SCAT001": 1}

    def test_rule_glob_prefix(self, bad_dir, capsys):
        assert cli_main(
            ["analyze", str(bad_dir), "--rule", "LOCK*", "--strict"]
        ) == 0
        assert "0 error(s)" in capsys.readouterr().out
        assert cli_main(
            ["analyze", str(bad_dir), "--rule", "SCAT*", "--strict"]
        ) == 1

    def test_rule_glob_matching_nothing_rejected(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir), "--rule", "NOPE*"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_json_reports_wall_time(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["elapsed_s"] > 0
        assert payload["timings"]["parse_s"] >= 0
        assert any(
            key.startswith("check_") for key in payload["timings"]
        )

    def test_format_json_alias(self, bad_dir, capsys):
        assert cli_main(
            ["analyze", str(bad_dir), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"SCAT001": 1}

    def test_sarif_output(self, bad_dir, capsys):
        assert cli_main(["analyze", str(bad_dir), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-2.1.0.json")
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        declared = {rule["id"] for rule in driver["rules"]}
        assert declared == set(RULES)
        (result,) = run["results"]
        assert result["ruleId"] == "SCAT001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 5
        assert driver["rules"][result["ruleIndex"]]["id"] == "SCAT001"

    def test_human_output_lists_file_line(self, bad_dir, capsys):
        cli_main(["analyze", str(bad_dir)])
        out = capsys.readouterr().out
        assert "bad.py:5: error[SCAT001]" in out


class TestRuleCatalog:
    def test_rules_have_severities_and_rationales(self):
        assert RULES
        for rule in RULES.values():
            assert rule.severity in ("error", "warning")
            assert rule.rationale

    def test_findings_carry_rule_severity(self, bad_dir):
        report = analyze_paths([str(bad_dir)])
        for finding in report.findings:
            assert finding.severity == RULES[finding.rule_id].severity


# ----------------------------------------------------------------------
# The layer map (LAYER*)
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
SERVING_ROOTS = ("repro.service", "repro.service.api")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_package(root, files):
    """A ``repro`` tree under ``root``: {relative path: source}."""
    for relative, body in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        for package in [path.parent, *path.parent.parents]:
            if package == root:
                break
            (package / "__init__.py").touch()
        path.write_text(textwrap.dedent(body))
    return str(root)


class TestLayers:
    def test_serving_closure_budget_is_the_measured_closure(self):
        # a ratchet: a shrink that leaves the budget high fails here
        modules = layers.modules_of(load_sources([default_root()]))
        measured = sum(modules[name].text.count("\n")
                       for name in layers.closure(modules, SERVING_ROOTS))
        assert layers.BUDGETS[SERVING_ROOTS] == measured, (
            f"the serving closure is now {measured} lines: set its "
            f"budget in repro/analyze/layers.py to {measured}")

    def test_static_closure_is_what_the_boot_loads(self):
        probe = ("import sys, repro.service, repro.service.api\n"
                 "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'repro'))")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
            check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        modules = layers.modules_of(load_sources([default_root()]))
        booted = layers.closure(modules, SERVING_ROOTS)
        assert booted == set(proc.stdout.split())
        assert [name for name in booted if layers.layer_of(name) == "paper"] == []

    def test_closure_over_its_budget_fires(self, tmp_path, monkeypatch):
        monkeypatch.setitem(layers.BUDGETS, SERVING_ROOTS, 3)
        root = write_package(tmp_path, {
            "service/__init__.py": "from repro.service import queue\n",
            "service/queue.py": "import repro.errors\n\n\n",
            "service/api/__init__.py": "", "errors.py": "\n",
            "service/unused.py": "\n" * 50})
        report = analyze_paths([root], rules=["LAYER003"])
        assert [f.message for f in report.findings] == [
            "repro.service + repro.service.api is 5 lines, over its 3 in BUDGETS (layers.py)"]

    def test_every_simulator_parameter_is_retired(self, tmp_path):
        body = """\
            def push(scheduler, program, simulator):
                return lambda simulator: simulator
            def pull(graph, *, simulator: object = None):
                simulator = None
                return simulator
            """
        root = write_package(tmp_path, {"engine/push.py": body,
                                        "algorithms/sub/bfs.py": body,
                                        "algorithms/hardwired.py": body,
                                        "service/planner.py": body})
        report = analyze_paths([root], rules=["LAYER002"])
        assert sorted((f.path.split("repro/", 1)[1], f.line) for f in report.findings) == [
            ("algorithms/sub/bfs.py", 1), ("algorithms/sub/bfs.py", 2),
            ("algorithms/sub/bfs.py", 3), ("engine/push.py", 1), ("engine/push.py", 2),
            ("engine/push.py", 3)]

    def test_seeded_fixtures_fire(self, capsys):
        assert load_tool("check_analyzer_fixtures").main() == 0, capsys.readouterr().err

    def test_retired_name_in_docs_fails_the_doc_check(self, tmp_path, monkeypatch):
        tool = load_tool("check_doc_links")
        monkeypatch.setattr(tool, "REPO_ROOT", tmp_path)
        page = tmp_path / "docs" / "service.md"
        page.parent.mkdir()
        page.write_text("Counts land in `shard_fallbacks`.\nSet `MP_CONTEXT` to spawn.\n")
        (problem,) = tool.check_retired(page)
        assert problem.startswith("docs/service.md:2: retired name /MP_CONTEXT/")

    def test_typing_only_import_is_no_edge(self, tmp_path):
        root = write_package(tmp_path, {"engine/push.py": """\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.gpu.simulator import GPUSimulator
            else:
                from repro.gpu import warp
            """, "engine/pull.py": "import repro.gpu.warp\n"})
        report = analyze_paths([root], rules=["LAYER*"])
        assert [(f.path.rsplit("/", 1)[1], f.line) for f in report.findings] == [
            ("pull.py", 1), ("push.py", 5)]
        # a paper-layer engine module still may not reach the warp model
        assert "repro.engine -> repro.gpu" in report.findings[0].message

    def test_not_type_checking_is_a_runtime_edge(self, tmp_path):
        root = write_package(tmp_path, {"engine/push.py": """\
            import typing
            if typing.TYPE_CHECKING:
                import repro.gpu.simulator
            if not typing.TYPE_CHECKING:
                import repro.gpu.warp
            """})
        report = analyze_paths([root], rules=["LAYER*"])
        assert [(f.rule_id, f.line) for f in report.findings] == [("LAYER001", 5)]

    def test_allowed_accessor_is_exempt_only_where_declared(self, tmp_path):
        root = write_package(tmp_path, {"multigpu/__init__.py": """\
            def __getattr__(name):
                from repro.multigpu import engine
                return engine

            def other():
                from repro.multigpu import engine
                return engine
            """})
        report = analyze_paths([root], rules=["LAYER*"])
        assert [(f.rule_id, f.line) for f in report.findings] == [("LAYER001", 6)]

    def test_retired_word_spares_a_longer_name(self, tmp_path):
        root = write_package(tmp_path, {"service/metrics.py": """\
            COUNTERS = ("shard_fallbacks",)
            shard_fallback = 0
            """})
        report = analyze_paths([root], rules=["LAYER*"])
        assert [(f.rule_id, f.line) for f in report.findings] == [("LAYER002", 2)]


# ----------------------------------------------------------------------
# Planner integration (satellite: typed split-safety rejection)
# ----------------------------------------------------------------------
class TestPlannerSplitSafety:
    def make_request(self, algorithm, transform="udt"):
        from types import SimpleNamespace

        return SimpleNamespace(
            algorithm=algorithm, transform=transform, degree_bound=None
        )

    def test_split_unsafe_udt_raises_typed_error(self):
        from repro.errors import ServiceError, SplitSafetyError
        from repro.graph.generators import rmat
        from repro.service.planner import plan_query

        graph = rmat(50, 200, seed=0)
        with pytest.raises(SplitSafetyError) as excinfo:
            plan_query(self.make_request("triangle_counting"), graph)
        assert excinfo.value.algorithm == "triangle_counting"
        assert "neighborhoods" in excinfo.value.justification
        # Still a ServiceError for blanket handlers.
        assert isinstance(excinfo.value, ServiceError)

    def test_unclassified_analytic_rejected(self):
        from repro.errors import SplitSafetyError
        from repro.graph.generators import rmat
        from repro.service.planner import plan_query

        graph = rmat(50, 200, seed=0)
        with pytest.raises(SplitSafetyError, match="not classified"):
            plan_query(self.make_request("community_detection"), graph)

    def test_split_safe_udt_still_plans(self):
        from repro.graph.generators import rmat
        from repro.service.planner import plan_query

        graph = rmat(50, 200, seed=0)
        plan = plan_query(self.make_request("sssp"), graph)
        # past the checks, every plan serves the CSR
        assert (plan.transform, plan.degree_bound) == ("none", 0)
