#!/usr/bin/env python
"""Prove every seeded analyzer fixture still trips its rule.

CI runs this right after ``analyze --strict`` passes on the repo, and
``tests/test_analyze.py`` runs it in tier-1: a clean tree plus
fixtures that still fire is the evidence the gate means something.
Each entry under ``tests/fixtures/analyze/`` is named
``<ruleid>_<slug>`` and is a ``.py`` file or a directory holding a
tiny ``repro`` package; the analyzer must exit non-zero under
``--strict`` on it and report the encoded rule id.
"""

import contextlib
import io
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "analyze")

try:
    from repro.analyze import runner
except ImportError:  # source checkout without `pip install -e .`
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.analyze import runner


def main() -> int:
    names = sorted(
        name
        for name in os.listdir(FIXTURES)
        if not name.startswith(("_", "."))
        and (name.endswith(".py") or os.path.isdir(os.path.join(FIXTURES, name)))
    )
    if not names:
        print(f"no fixtures found under {FIXTURES}", file=sys.stderr)
        return 1
    failures = []
    for name in names:
        expected = name.split("_", 1)[0].upper()
        path = os.path.join(FIXTURES, name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = runner.main([path, "--strict", "--format", "json"])
        fired = set(json.loads(stdout.getvalue())["counts"])
        if code == 0:
            failures.append(f"{name}: --strict exited 0 (nothing fired)")
        elif expected not in fired:
            failures.append(
                f"{name}: expected {expected}, got {sorted(fired) or 'none'}"
            )
        else:
            print(f"ok {name}: {expected} fired, strict exit {code}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(names) - len(failures)}/{len(names)} fixtures fired")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
