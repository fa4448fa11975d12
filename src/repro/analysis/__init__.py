"""repro-lint: AST-based invariant checks for this repository's own source.

The repo's correctness story rests on invariants no unit test can see from
inside one function: seeded byte-identity (nothing in a deterministic zone
reads global RNG state or a wall clock), lossless serialization round trips,
complete-or-absent file writes, and the service daemon's fork-before-threads
ordering.  This package checks them statically over the whole package —
stdlib only (``ast`` + ``tokenize``) — and is wired up as
``repro.cli lint``.  See ``docs/lint.md`` for the rule catalog and the
suppression workflow.
"""

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Checker,
    DETERMINISTIC_ZONES,
    all_rule_ids,
    get_checker,
    register_checker,
    rule_catalog,
)
from repro.analysis.runner import LintResult, run_lint
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "Checker",
    "DETERMINISTIC_ZONES",
    "Finding",
    "LintResult",
    "all_rule_ids",
    "get_checker",
    "register_checker",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_lint",
]
