"""Findings, the rule catalog, suppression, and rendering.

Every checker in :mod:`repro.analyze` reports through the same
:class:`Finding` shape so the CLI can interleave results from all
families, sort them by location, and emit either a human listing or a
machine-readable JSON document (the ``--json`` contract the CI gate
consumes).

Rules are registered in :data:`RULES`, one id namespace per checker
family (``docs/static-analysis.md`` is the catalog).

Suppression is per line: a trailing ``# analyze: ignore`` comment
silences every rule on that line, ``# analyze: ignore[SCAT001]`` (a
comma-separated id list) silences only the named ones.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: severity levels, in increasing order of badness.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Rule:
    """One registered rule: id, severity, and its paper anchor."""

    rule_id: str
    severity: str
    title: str
    #: which theorem/corollary or engineering invariant backs the rule.
    rationale: str


#: the rule catalog (docs/static-analysis.md documents each entry).
RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in [
        Rule(
            "SPLIT001",
            "error",
            "reduction is not associative+commutative",
            "Theorem 3 requires an associative, commutative, monotone "
            "reduction for virtual-split pull correctness; only "
            "ReduceOp.MIN/MAX/ADD qualify.",
        ),
        Rule(
            "SPLIT002",
            "error",
            "relax body does not match its declared path-metric class",
            "Theorem 1 assigns a dumb weight per path-metric class; an "
            "unclassifiable or misclassified relax body cannot be "
            "verified against it.",
        ),
        Rule(
            "SPLIT003",
            "error",
            "dumb weight inferred from relax disagrees with the table",
            "Theorem 1: additive metrics need dumb weight 0, widest-path "
            "metrics need +inf; the applicability table must agree with "
            "the code.",
        ),
        Rule(
            "SPLIT004",
            "error",
            "program/applicability-table drift",
            "Every PushProgram must be backed by a §3.3 applicability "
            "entry and vice versa; a split-unsafe analytic must not "
            "have a split-engine program.",
        ),
        Rule(
            "SPLIT005",
            "error",
            "declared ReduceOp differs from the applicability expectation",
            "The (relax, reduce) pair is what Theorems 1+3 certify; "
            "editing one side silently invalidates the proof.",
        ),
        Rule(
            "SPLIT006",
            "error",
            "lane-safety drift between the program and the table",
            "Lane-parallel (multi-source) execution relaxes the union "
            "frontier for every lane; that is sound only for idempotent "
            "reductions (MIN/MAX). The applicability table certifies "
            "lane_safe per program, and it must match what the declared "
            "ReduceOp implies — a reduce edit silently flipping lane "
            "safety corrupts batched traversals.",
        ),
        Rule(
            "LOCK001",
            "error",
            "lock-guarded attribute mutated outside the lock",
            "An attribute written under `with self._lock:` anywhere must "
            "be written under it everywhere, or concurrent workers race.",
        ),
        Rule(
            "LOCK002",
            "error",
            "lock-guarded attribute read-modify-written outside the lock",
            "`x += 1` on a guarded attribute is a lost-update race even "
            "when single writes would be atomic.",
        ),
        Rule(
            "LOCK003",
            "warning",
            "lock-guarded attribute read outside the lock",
            "Unlocked reads of guarded state observe torn multi-field "
            "invariants; usually benign for single counters, flagged "
            "for review.",
        ),
        Rule(
            "SCAT001",
            "error",
            "buffered in-place scatter with a possibly-repeating index",
            "`values[idx] op= x` buffers: duplicate indices fold once, "
            "not per occurrence. Use the sanctioned ufunc.at path "
            "(ReduceOp.scatter).",
        ),
        Rule(
            "SCAT002",
            "error",
            "buffered ufunc written back into an indexed target",
            "`values[idx] = np.minimum(values[idx], c)` (or `out=` into "
            "a fancy-indexed view) drops duplicate-index folds exactly "
            "like an augmented assignment.",
        ),
        Rule(
            "ROUTE001",
            "error",
            "route handler without typed-error mapping",
            "Every module that registers handlers in a route table must "
            "map the protocol taxonomy (`BadRequest`, `TigrError`) "
            "through `error_response`, or failures surface as dropped "
            "connections instead of typed wire errors.",
        ),
        Rule(
            "LOCK004",
            "error",
            "guarded service state mutated outside its owning class",
            "ServiceMetrics and the catalog guard every mutation with "
            "their own lock; code that reaches into their attributes "
            "from outside bypasses that lock and races the connection "
            "and dispatcher threads. Call the owning class's methods "
            "instead.",
        ),
        Rule("LAYER001", "error", "undeclared module or forbidden import edge",
             "Serving amortises the transforms (§6.5); the paper's warp model, "
             "baselines and pull engines stay out of it (analyze/layers.py)."),
        Rule("LAYER002", "error", "retired name is back",
             "A name a simplification deleted must not grow back."),
        Rule("LAYER003", "error", "module or import closure over its line budget",
             "The serving boot only shrinks, and a cut lowers its budget."),
    ]
}


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file and line."""

    rule_id: str
    path: str
    line: int
    message: str
    #: severity copied from the rule at construction (kept on the
    #: finding so JSON consumers need no catalog).
    severity: str = ""
    col: int = 0

    @staticmethod
    def make(rule_id: str, path: str, line: int, message: str, col: int = 0) -> "Finding":
        return Finding(
            rule_id=rule_id,
            path=path,
            line=line,
            message=message,
            severity=RULES[rule_id].severity,
            col=col,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.severity}[{self.rule_id}] "
            f"{self.message}"
        )


_SUPPRESS_RE = re.compile(r"#\s*analyze:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


def suppressed_rules(source_line: str) -> Optional[Tuple[str, ...]]:
    """Parse a line's suppression pragma.

    Returns ``None`` when the line has no pragma, ``()`` for a blanket
    ``# analyze: ignore``, or the tuple of named rule ids.
    """
    match = _SUPPRESS_RE.search(source_line)
    if match is None:
        return None
    if match.group(1) is None:
        return ()
    return tuple(part.strip() for part in match.group(1).split(",") if part.strip())


def is_suppressed(finding: Finding, source_lines: List[str]) -> bool:
    """Whether the source line the finding anchors to silences it."""
    if not 1 <= finding.line <= len(source_lines):
        return False
    rules = suppressed_rules(source_lines[finding.line - 1])
    if rules is None:
        return False
    return rules == () or finding.rule_id in rules


def expand_rule_selectors(
    selectors: Optional[Iterable[str]],
) -> Optional[set]:
    """Expand ``--rule`` selectors into a set of known rule ids.

    Each selector may be a comma-separated list; items may be exact
    ids (``ASYNC001``) or ``fnmatch`` patterns (``ASYNC*``,
    ``LOCK00?``).  Raises :class:`ValueError` for an unknown id or a
    pattern matching nothing.  ``None`` passes through (no filter).
    """
    if selectors is None:
        return None
    ids: set = set()
    for raw in selectors:
        for part in str(raw).split(","):
            part = part.strip()
            if not part:
                continue
            if any(ch in part for ch in "*?["):
                matched = {
                    rule_id
                    for rule_id in RULES
                    if fnmatch.fnmatchcase(rule_id, part)
                }
                if not matched:
                    raise ValueError(
                        f"unknown rule pattern {part!r}: matches no "
                        f"registered rule"
                    )
                ids |= matched
            elif part in RULES:
                ids.add(part)
            else:
                raise ValueError(f"unknown rule id(s): {part}")
    return ids


#: pinned schema for ``--format sarif`` (SARIF 2.1.0).
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


@dataclass
class Report:
    """The full outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: findings dropped by per-line pragmas (counted for visibility).
    suppressed: int = 0
    #: wall-clock seconds for the whole run.
    elapsed_s: float = 0.0
    #: per-phase wall-clock seconds (parse, callgraph, each checker).
    timings: Dict[str, float] = field(default_factory=dict)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule_id))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "files_scanned": self.files_scanned,
                "suppressed": self.suppressed,
                "counts": self.counts(),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "elapsed_s": round(self.elapsed_s, 6),
                "timings": {
                    phase: round(seconds, 6)
                    for phase, seconds in sorted(self.timings.items())
                },
                "findings": [f.as_dict() for f in self.findings],
            },
            indent=2,
        )

    def to_sarif(self) -> str:
        """Render as a SARIF 2.1.0 log (one run, one result per finding)."""
        rule_ids = sorted(RULES)
        rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
        results = []
        for finding in self.findings:
            uri = os.path.relpath(finding.path).replace(os.sep, "/")
            results.append(
                {
                    "ruleId": finding.rule_id,
                    "ruleIndex": rule_index[finding.rule_id],
                    "level": finding.severity,
                    "message": {"text": finding.message},
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {"uri": uri},
                                "region": {
                                    "startLine": finding.line,
                                    "startColumn": max(1, finding.col + 1),
                                },
                            }
                        }
                    ],
                }
            )
        import repro

        log = {
            "$schema": SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "repro-analyze",
                            "version": repro.__version__,
                            "rules": [
                                {
                                    "id": rule_id,
                                    "name": rule_id,
                                    "shortDescription": {
                                        "text": RULES[rule_id].title
                                    },
                                    "fullDescription": {
                                        "text": RULES[rule_id].rationale
                                    },
                                    "defaultConfiguration": {
                                        "level": RULES[rule_id].severity
                                    },
                                }
                                for rule_id in rule_ids
                            ],
                        }
                    },
                    "results": results,
                }
            ],
        }
        return json.dumps(log, indent=2)

    def to_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        wall = (
            f"; wall {self.elapsed_s * 1000.0:.0f}ms"
            if self.elapsed_s
            else ""
        )
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"in {self.files_scanned} file(s)"
            + (f"; {self.suppressed} suppressed" if self.suppressed else "")
            + wall
        )
        return "\n".join(lines)
