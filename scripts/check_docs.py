#!/usr/bin/env python
"""Docs CI gate: intra-repo link checking plus the verbatim quickstart snippet.

Checks, as repro-lint-style rules (findings share the format, reporters and
exit conventions of ``repro.cli lint`` — see docs/lint.md):

* ``docs-link`` — every relative markdown link in ``README.md``,
  ``docs/*.md`` and ``benchmarks/README.md`` points at a file that exists in
  the repository.  External ``http(s)://`` and ``mailto:`` links are skipped
  — CI must not depend on the network.
* ``docs-anchor`` — any ``#anchor`` fragment on a markdown target matches
  one of that file's heading slugs (GitHub slug rules).
* ``docs-symbol`` — every backticked dotted ``repro.…`` name (optionally
  followed by ``()``) resolves: its longest importable prefix imports and
  the rest of the name is an attribute chain off it.  Backticked command
  lines such as ``repro.cli lint`` are not names and are skipped.
* ``docs-quickstart`` — the code block between the
  ``--- README quickstart ---`` markers in ``examples/quickstart.py``
  appears *verbatim* inside ``README.md``, so the README example is,
  character for character, the code that the CI smoke actually runs.

All problems are reported in one run rather than stopping at the first.
Exit 0 when clean, 1 with findings.

Run with:  python scripts/check_docs.py [--json]
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.findings import Finding  # noqa: E402
from repro.analysis.reporters import render_json, render_text  # noqa: E402

DOC_FILES = (
    ["README.md", "benchmarks/README.md"]
    + sorted(str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md"))
)

QUICKSTART = "examples/quickstart.py"
QUICKSTART_BEGIN = "# --- README quickstart ---"
QUICKSTART_END = "# --- end README quickstart ---"

# [text](target) — excluding images' leading "!" handled identically anyway.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
# `repro.a.b` or `repro.a.b()` as a whole code span.
_SYMBOL_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> set[str]:
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    # Headings inside fenced code blocks are not headings.
    for heading in _HEADING_RE.findall(_FENCE_RE.sub("", markdown)):
        slug = github_slug(heading)
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(doc_path: str, findings: list[Finding]) -> int:
    source = REPO_ROOT / doc_path
    checked = 0
    for lineno, line in enumerate(source.read_text().splitlines(), 1):
        for target in _LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            path_part, _, anchor = target.partition("#")
            if not path_part:  # same-file anchor
                resolved = source
            else:
                resolved = (source.parent / path_part).resolve()
                if not resolved.exists():
                    findings.append(Finding(
                        path=doc_path, line=lineno, rule="docs-link",
                        message=f"broken link -> {target}"))
                    continue
            if anchor and resolved.suffix == ".md":
                if anchor not in heading_slugs(resolved.read_text()):
                    findings.append(Finding(
                        path=doc_path, line=lineno, rule="docs-anchor",
                        message=f"broken anchor -> {target}"))
    return checked


def resolve_symbol(name: str) -> bool:
    """True when the longest importable prefix of ``name`` imports and the
    rest of ``name`` is an attribute chain off it."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attribute in parts[split:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_symbols(doc_path: str, findings: list[Finding],
                  root: Path = REPO_ROOT) -> int:
    checked = 0
    for lineno, line in enumerate((root / doc_path).read_text().splitlines(), 1):
        for name in _SYMBOL_RE.findall(line):
            checked += 1
            if not resolve_symbol(name):
                findings.append(Finding(
                    path=doc_path, line=lineno, rule="docs-symbol",
                    message=f"`{name}` does not resolve to a module or attribute"))
    return checked


def check_quickstart_snippet(findings: list[Finding]) -> None:
    example = (REPO_ROOT / QUICKSTART).read_text()
    try:
        begin = example.index(QUICKSTART_BEGIN) + len(QUICKSTART_BEGIN)
        end = example.index(QUICKSTART_END)
    except ValueError:
        findings.append(Finding(
            path=QUICKSTART, line=1, rule="docs-quickstart",
            message="quickstart markers missing"))
        return
    snippet = example[begin:end].strip("\n")
    if snippet not in (REPO_ROOT / "README.md").read_text():
        findings.append(Finding(
            path="README.md", line=1, rule="docs-quickstart",
            message=f"quickstart block has drifted from {QUICKSTART} (the "
                    f"code between the {QUICKSTART_BEGIN!r} markers must "
                    "appear in README.md verbatim)"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable findings report")
    args = parser.parse_args(argv)

    findings: list[Finding] = []
    links = symbols = 0
    for doc_path in DOC_FILES:
        links += check_links(doc_path, findings)
        symbols += check_symbols(doc_path, findings)
    check_quickstart_snippet(findings)
    findings.sort()

    counts = {"checked_files": len(DOC_FILES), "checked_links": links,
              "checked_symbols": symbols}
    if args.json:
        sys.stdout.write(render_json(findings, **counts))
    else:
        print(render_text(findings, **counts))
    return 0 if not findings else 1


if __name__ == "__main__":
    raise SystemExit(main())
