#!/usr/bin/env python
"""Fail on broken intra-repo markdown links.

Scans every tracked ``*.md`` file for inline links and images,
resolves relative targets against the linking file's directory, and
exits non-zero listing anything that does not resolve:

* a relative path target must exist (file or directory);
* a ``#fragment`` on a markdown target must match a heading in that
  file (GitHub anchor rules: lowercase, punctuation stripped, spaces
  to dashes; repeated headings get ``-1``, ``-2``, ... suffixes);
* every ``docs/*.md`` file must be linked from the README's
  documentation index — a manual page nobody can discover is a
  manual page that silently rots;
* external schemes (``http:``, ``https:``, ``mailto:``) are ignored —
  this guards repo self-consistency, not the internet;
* no ``docs/`` page may name what ``repro.analyze.layers.RETIRED``
  bars from the docs (a deleted knob or path must not be documented
  back into existence).

Run from anywhere: paths are resolved relative to the repo root
(parent of this file's directory).  CI runs it as the docs job; run
locally with ``python tools/check_doc_links.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    from repro.analyze.layers import RETIRED
except ImportError:  # source checkout without `pip install -e .`
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.analyze.layers import RETIRED

#: inline markdown links/images: [text](target) / ![alt](target).
#: Reference-style links are rare in this repo and not checked.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ATX headings, for anchor validation.
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$", re.MULTILINE)

EXTERNAL = ("http://", "https://", "mailto:", "ftp://")

#: directories never scanned (build products, caches, envs).
SKIP_DIRS = {".git", ".venv", "node_modules", "__pycache__", ".pytest_cache"}


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor id transformation (close enough)."""
    # inline code/links inside headings contribute their text only
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "")
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    """Every anchor id the file's headings produce.

    GitHub disambiguates repeated headings by appending ``-1``,
    ``-2``, ... to the second and later occurrences, so two "Example"
    sections yield ``example`` and ``example-1`` — both are valid
    link targets.
    """
    content = path.read_text(encoding="utf-8")
    anchors: set = set()
    seen: dict = {}
    for match in HEADING_RE.finditer(content):
        anchor = github_anchor(match.group(1))
        count = seen.get(anchor, 0)
        seen[anchor] = count + 1
        anchors.add(anchor if count == 0 else f"{anchor}-{count}")
    return anchors


def markdown_files() -> list:
    files = []
    for path in sorted(REPO_ROOT.rglob("*.md")):
        if any(part in SKIP_DIRS for part in path.parts):
            continue
        files.append(path)
    return files


def check_file(path: Path) -> list:
    """All broken links in one file, as human-readable strings."""
    problems = []
    content = path.read_text(encoding="utf-8")
    # strip fenced code blocks: links inside them are examples
    content = re.sub(r"```.*?```", "", content, flags=re.DOTALL)
    for match in LINK_RE.finditer(content):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        if target.startswith("#"):
            fragment = target[1:]
            if github_anchor(fragment) not in anchors_of(path):
                problems.append(f"{path.relative_to(REPO_ROOT)}: "
                                f"no heading for in-page anchor {target!r}")
            continue
        raw, _, fragment = target.partition("#")
        resolved = (path.parent / raw).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: "
                            f"target does not exist: {target!r}")
            continue
        if fragment and resolved.suffix == ".md":
            if github_anchor(fragment) not in anchors_of(resolved):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: {raw!r} has no "
                    f"heading for anchor #{fragment}"
                )
    return problems


def check_readme_index() -> list:
    """Every ``docs/*.md`` page must be reachable from the README.

    The README's documentation table is the entry point readers
    actually use; a page absent from it is effectively unpublished,
    so its absence is an error, not a style nit.
    """
    readme = REPO_ROOT / "README.md"
    docs_dir = REPO_ROOT / "docs"
    if not readme.exists() or not docs_dir.is_dir():
        return []
    content = readme.read_text(encoding="utf-8")
    linked = set()
    for match in LINK_RE.finditer(content):
        raw = match.group(1).partition("#")[0]
        if not raw or raw.startswith(EXTERNAL):
            continue
        resolved = (readme.parent / raw).resolve()
        if resolved.suffix == ".md" and docs_dir in resolved.parents:
            linked.add(resolved)
    problems = []
    for page in sorted(docs_dir.glob("*.md")):
        if page.resolve() not in linked:
            problems.append(
                f"README.md: docs page not in the documentation index: "
                f"{page.relative_to(REPO_ROOT)}"
            )
    return problems


def check_retired(path: Path) -> list:
    """Every line of ``path`` naming a name retired from the docs."""
    patterns = [re.compile(entry.pattern, entry.flags)
                for entry in RETIRED if entry.docs]
    return [
        f"{path.relative_to(REPO_ROOT)}:{number}: retired name "
        f"/{regex.pattern}/ (repro.analyze.layers.RETIRED)"
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        for regex in patterns if regex.search(line)
    ]


def main() -> int:
    files = markdown_files()
    problems = check_readme_index()
    for path in files:
        problems.extend(check_file(path))
    for path in sorted((REPO_ROOT / "docs").rglob("*.md")):
        problems.extend(check_retired(path))
    if problems:
        print(f"{len(problems)} problem(s) across {len(files)} files:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"ok: {len(files)} markdown files, all intra-repo links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
