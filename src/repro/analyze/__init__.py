"""Static analysis over the repo's own sources (``repro analyze``).

Five checker families, each enforcing an invariant the paper states
in prose and the code previously only promised in docstrings:

* :mod:`repro.analyze.programs` — every vertex program's (relax,
  reduce) pair is verified against Theorem 1 (dumb weights per
  path-metric class) and Theorem 3 (associative+commutative
  reduction), and diffed against the §3.3 applicability table in
  :mod:`repro.core.applicability`;
* :mod:`repro.analyze.locks` — attributes mutated under a class's
  ``threading`` lock must be locked everywhere (the serving layer's
  concurrency contract);
* :mod:`repro.analyze.scatter` — buffered numpy writes through
  possibly-repeating index arrays (the lost-fold race ``ufunc.at``
  exists to avoid) are rejected outside the sanctioned
  :meth:`~repro.engine.program.ReduceOp.scatter` path;
* :mod:`repro.analyze.concurrency` — the threaded service tier
  (ROUTE001, LOCK004), typed over the project-wide call graph in
  :mod:`repro.analyze.callgraph`: route handlers whose errors are not
  mapped to typed responses, and guarded-state mutation;
* :mod:`repro.analyze.layers` — the declared layer map (LAYER001-003):
  forbidden import edges, retired names and line budgets.

All passes share one :class:`~repro.analyze.runner.AnalysisContext`
(one parse per file, one lazily built call graph).  See
``docs/static-analysis.md`` for the rule catalog and the per-line
suppression syntax.
"""

from repro.analyze.callgraph import CallGraph
from repro.analyze.report import RULES, Finding, Report, Rule
from repro.analyze.runner import (
    AnalysisContext,
    analyze_paths,
    default_root,
    main,
)

__all__ = [
    "RULES",
    "AnalysisContext",
    "CallGraph",
    "Finding",
    "Report",
    "Rule",
    "analyze_paths",
    "default_root",
    "main",
]
