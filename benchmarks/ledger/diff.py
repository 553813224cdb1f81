#!/usr/bin/env python3
"""Compare two ledgers: one row per (end-to-end metric, workload).

    python benchmarks/ledger/diff.py BASE.json NEW.json

Each file is what ``run.py --out FILE`` writes; run it several times
with the same ``--out`` to give a side several runs.  A side's value
is the median of its runs and its spread is their inter-quartile
range (min-max below four runs).  Verdicts use the bounds in
``BENCHMARK.json``:

``worse``       the new median is worse by more than the bound;
``better``      it is better by more than the bound;
``within``      it moved by less than the bound;
``unresolved``  either side's spread exceeds the bound and the two
                sides' runs overlap, so the move cannot be told from
                noise.

``failed_share`` has an absolute bound of 0: any failed operation on
the new side is ``worse``.  Exit status is 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def load_runs(path: str) -> dict:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    with open(path, "r", encoding="utf-8") as fh:
        ledger = json.load(fh)
    out: dict = {}
    for run in ledger["runs"]:
        if run["traced"]:
            continue
        for workload, record in run["workloads"].items():
            values = out.setdefault(workload, {})
            for metric, value in record["metrics"].items():
                values.setdefault(metric, []).append(value)
            values.setdefault("failed_share", []).append(
                record["failed"] / record["attempted"]
            )
    return out


def spread(values) -> float:
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return quartiles[2] - quartiles[0]
    return max(values) - min(values)


def verdict(base, new, *, better: str, bound: float) -> str:
    """Classify one (metric, workload) pair; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    base_mid, new_mid = statistics.median(base), statistics.median(new)
    worsening = sign * (new_mid - base_mid) / base_mid
    noisy = max(spread(base), spread(new)) / base_mid > bound
    if noisy:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


def compare(base: dict, new: dict, spec: dict):
    """Rows of (workload, metric, base, new, ratio, verdict)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload][name], new[workload][name]
            rows.append((
                workload, name, statistics.median(b), statistics.median(n),
                statistics.median(n) / statistics.median(b),
                verdict(b, n, better=metric["better"], bound=metric["bound"]),
            ))
        b = statistics.median(base[workload]["failed_share"])
        n = statistics.median(new[workload]["failed_share"])
        rows.append((
            workload, "failed_share", b, n, n / b if b else float("nan"),
            "worse" if max(new[workload]["failed_share"]) > 0 else "within",
        ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print(f"{'workload':14s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'ratio':>7s}  verdict")
    for workload, metric, base, new, ratio, outcome in rows:
        print(f"{workload:14s} {metric:20s} {base:12.4f} {new:12.4f} "
              f"{ratio:7.3f}  {outcome}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
