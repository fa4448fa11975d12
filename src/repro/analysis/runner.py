"""The lint driver: walk the package, run checkers, apply suppressions.

:func:`run_lint` is the one entry point used by ``repro.cli lint``, the
tests, and CI.  It walks every ``*.py`` file under the package directory in
sorted order (lint output is deterministic and diffable), parses each file
once, runs the selected checkers, subtracts inline suppressions, and audits
the suppressions themselves (rule ``lint-suppression``: unknown rule ids,
missing reasons, and suppressions that shielded nothing are all findings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    Checker,
    all_rule_ids,
    register_checker,
    select_checkers,
)
from repro.analysis.source import SourceFile


@register_checker
class SuppressionHygiene(Checker):
    """Suppression comments must name real rules, give a reason, and earn their keep.

    ``# repro-lint: allow[<rule>] <reason>`` is the escape hatch for code
    that violates a rule *on purpose* (the service daemon's wall-clock
    timestamps, for example).  This meta-rule keeps the escape hatch
    honest: a suppression naming an unknown rule id, one with an empty
    reason, or one that suppressed no finding in this run is itself
    reported.  Unused suppressions are only audited when every rule runs
    (a ``--rules`` subset would otherwise misreport suppressions for the
    deselected rules as unused).

    Fix by deleting the stale comment, correcting the rule id, or writing
    down why the exception is sound.
    """

    rule_id = "lint-suppression"

    def check(self, source):  # pragma: no cover - driven by the runner
        return iter(())


@register_checker
class ParseError(Checker):
    """Every linted file must parse as Python.

    A file the ``ast`` module cannot parse cannot be checked, so a syntax
    error is surfaced as a finding instead of crashing the run (the rest of
    the tree is still linted).  Fix the syntax error.
    """

    rule_id = "lint-parse"

    def check(self, source):  # pragma: no cover - driven by the runner
        return iter(())


#: Rules emitted by the runner itself rather than a per-file checker pass.
_META_RULES = ("lint-suppression", "lint-parse")


@dataclass
class LintResult:
    """What one lint run produced (post-suppression)."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    checked_files: int = 0
    rules: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.findings


def default_package_dir() -> Path:
    """The ``repro`` package directory this module is installed in."""
    return Path(__file__).resolve().parent.parent


def repo_root_for(package_dir: Path) -> Path:
    """The repository root a package dir belongs to (``src/`` layouts)."""
    package_dir = package_dir.resolve()
    if package_dir.parent.name == "src":
        return package_dir.parent.parent
    return package_dir.parent


def iter_source_files(package_dir: Path) -> list[Path]:
    """Every ``*.py`` under the package, sorted (deterministic output)."""
    return [path for path in sorted(package_dir.rglob("*.py"))
            if "__pycache__" not in path.parts]


def _audit_suppressions(source: SourceFile, full_run: bool,
                        known_rules: frozenset[str]) -> list[Finding]:
    findings: list[Finding] = []
    for suppression in source.suppressions:
        unknown = [rule for rule in suppression.rules
                   if rule not in known_rules]
        for rule in unknown:
            findings.append(Finding(
                path=source.display, line=suppression.line,
                rule="lint-suppression",
                message=f"suppression names unknown rule {rule!r}"))
        if not suppression.rules:
            findings.append(Finding(
                path=source.display, line=suppression.line,
                rule="lint-suppression",
                message="suppression lists no rules (allow[] is empty)"))
        if not suppression.reason:
            findings.append(Finding(
                path=source.display, line=suppression.line,
                rule="lint-suppression",
                message="suppression gives no reason; say why the "
                        "exception is sound"))
        if full_run:
            unused = [rule for rule in suppression.rules
                      if rule in known_rules and rule not in _META_RULES
                      and rule not in suppression.used]
            for rule in unused:
                findings.append(Finding(
                    path=source.display, line=suppression.line,
                    rule="lint-suppression",
                    message=f"unused suppression for {rule!r} "
                            "(nothing to allow here any more)"))
    return findings


def run_lint(
    package_dir: str | Path | None = None,
    rules: list[str] | None = None,
) -> LintResult:
    """Lint ``package_dir`` (default: the installed ``repro`` package).

    ``rules`` selects a subset of rule ids (default: all).
    """
    package_dir = Path(package_dir) if package_dir else default_package_dir()
    package_dir = package_dir.resolve()
    display_base = repo_root_for(package_dir)
    checkers = [checker for checker in select_checkers(rules)
                if checker.rule_id not in _META_RULES]
    selected = tuple(sorted({c.rule_id for c in checkers} |
                            set(_META_RULES)))
    full_run = rules is None
    known_rules = frozenset(all_rule_ids())

    result = LintResult(rules=selected)
    for path in iter_source_files(package_dir):
        try:
            source = SourceFile(path, package_dir, display_base)
        except SyntaxError as error:
            result.findings.append(Finding(
                path=path.relative_to(display_base).as_posix(),
                line=error.lineno or 0, rule="lint-parse",
                message=f"file does not parse: {error.msg}"))
            result.checked_files += 1
            continue
        result.checked_files += 1
        for checker in checkers:
            if not checker.applies_to(source):
                continue
            for finding in checker.check(source):
                suppression = source.suppression_for(checker.rule_id,
                                                     finding.line)
                if suppression is not None:
                    suppression.used.add(checker.rule_id)
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
        result.findings.extend(
            _audit_suppressions(source, full_run, known_rules))

    result.findings.sort()
    return result
