"""Analyzer entry points: path collection, checker dispatch, CLI.

``analyze_paths`` is the library API (the tests call it directly);
``main`` backs ``python -m repro analyze`` and the CI gate (usage in
``docs/static-analysis.md``).

Every rule pass shares one :class:`AnalysisContext`: files are parsed
once (with a cross-run cache in :mod:`astutils`), and the project
call graph is built lazily the first time a checker asks for it.
Per-phase wall time lands in the report's ``timings``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro
from repro.analyze.astutils import SourceFile, load_sources
from repro.analyze.callgraph import CallGraph
from repro.analyze.concurrency import check_concurrency
from repro.analyze.layers import check_layers
from repro.analyze.locks import check_locks
from repro.analyze.programs import check_programs
from repro.analyze.report import Report, expand_rule_selectors, is_suppressed
from repro.analyze.scatter import check_scatter


@dataclass
class AnalysisContext:
    """Per-run state shared by every rule pass.

    ``sources`` holds each file parsed exactly once; ``callgraph`` is
    built on first access and reused by every pass that needs it, with
    its build time recorded under ``timings['callgraph_s']``.
    """

    sources: List[SourceFile]
    timings: Dict[str, float] = field(default_factory=dict)
    _graph: Optional[CallGraph] = None

    @property
    def callgraph(self) -> CallGraph:
        if self._graph is None:
            started = time.perf_counter()
            self._graph = CallGraph.build(self.sources)
            self.timings["callgraph_s"] = time.perf_counter() - started
        return self._graph


#: checker families in reporting order.
CHECKERS = (
    check_programs, check_locks, check_scatter, check_concurrency, check_layers,
)


def default_root() -> str:
    """The installed ``repro`` package tree (the repo's own sources)."""
    return os.path.dirname(os.path.abspath(repro.__file__))


def analyze_paths(
    paths: Optional[Sequence[str]] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    honor_suppressions: bool = True,
) -> Report:
    """Run every checker over ``paths`` (default: the repro package).

    ``rules`` restricts reporting: each entry may be an exact rule id,
    a comma-separated list, or an ``fnmatch`` pattern (``ASYNC*``).
    ``honor_suppressions=False`` reports even pragma-silenced findings
    (used by the analyzer's own tests).
    """
    started = time.perf_counter()
    selected = expand_rule_selectors(rules)
    parse_started = time.perf_counter()
    sources = load_sources(list(paths) if paths else [default_root()])
    context = AnalysisContext(sources=sources)
    context.timings["parse_s"] = time.perf_counter() - parse_started
    report = Report(files_scanned=len(sources))
    by_path = {source.path: source for source in sources}
    for checker in CHECKERS:
        checker_started = time.perf_counter()
        findings = checker(context)
        context.timings[f"{checker.__name__}_s"] = (
            time.perf_counter() - checker_started
        )
        for finding in findings:
            if selected is not None and finding.rule_id not in selected:
                continue
            source = by_path.get(finding.path)
            if (
                honor_suppressions
                and source is not None
                and is_suppressed(finding, source.lines)
            ):
                report.suppressed += 1
                continue
            report.findings.append(finding)
    report.sort()
    report.timings = dict(context.timings)
    report.elapsed_s = time.perf_counter() - started
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        allow_abbrev=False,
        description=(
            "Static split-safety verifier (Theorems 1/3 vs the §3.3 "
            "applicability table) plus lock-discipline, numpy "
            "scatter-race, and service-tier concurrency lint."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (sarif targets GitHub code scanning)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when any error-severity finding remains",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="ID",
        help=(
            "only report matching rules: exact ids, comma-separated "
            "lists, or glob patterns like 'ASYNC*' (repeatable)"
        ),
    )
    parser.add_argument(
        "--no-suppress", action="store_true",
        help="report findings even on '# analyze: ignore' lines",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    try:
        report = analyze_paths(
            args.paths or None,
            rules=args.rule,
            honor_suppressions=not args.no_suppress,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = "json" if args.json else getattr(args, "format", "text")
    if fmt == "json":
        print(report.to_json())
    elif fmt == "sarif":
        print(report.to_sarif())
    else:
        print(report.to_text())
    if args.strict and report.errors:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
