"""The lint vocabulary: rules and findings.

A :class:`Finding` is one rule violation at one source location; every
checker, the suppression machinery and both reporters speak this type
(``repro.cli lint --json`` writes :meth:`Finding.to_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is repo-relative (posix separators) so findings are stable
    across machines; ``line`` is 1-based.  Ordering is (path, line, rule,
    message), the order both reporters emit.
    """

    path: str
    line: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line: rule-id message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
