"""The checker registry: one class per rule id, docstrings as the catalog.

Every rule is a :class:`Checker` subclass registered with
:func:`register_checker`.  The class *docstring* is the rule's reference
text: its first line is the summary shown by ``repro.cli lint --rules`` and
the full docstring is what ``--explain <rule-id>`` prints, so the catalog
cannot drift from the code (the satellite of docs/lint.md renders the same
strings).

Checkers are zone-scoped: ``zones`` names the first-level directories of the
``repro`` package the rule applies to (``None`` means the whole package).
The deterministic zones — the subsystems whose outputs the repo's
byte-identity guarantees cover — are listed in :data:`DETERMINISTIC_ZONES`.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Iterator, TYPE_CHECKING

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.analysis.source import SourceFile

#: Package zones whose results are covered by a byte-identity guarantee
#: (seeded searches, campaign reports, served results).  Nondeterminism
#: inside them breaks reproducibility silently, so the determinism rules
#: apply here.  ``analysis`` itself is included: lint output is diffed, so
#: it must be deterministic too.
DETERMINISTIC_ZONES: tuple[str, ...] = (
    "core", "autodiff", "mapping", "search", "eval", "campaign", "analysis",
)


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule_id`` (the stable identifier used by ``--rules``
    and suppressions), optionally ``zones`` (first-level package
    directories the rule applies to; ``None`` = everywhere), and implement
    :meth:`check`.  The subclass docstring is the rule's user-facing
    documentation.
    """

    rule_id: str = ""
    zones: tuple[str, ...] | None = None

    def applies_to(self, source: "SourceFile") -> bool:
        return self.zones is None or source.zone in self.zones

    def check(self, source: "SourceFile") -> Iterator[Finding]:
        raise NotImplementedError

    # -- documentation -------------------------------------------------- #
    @classmethod
    def summary(cls) -> str:
        doc = inspect.getdoc(cls) or ""
        return doc.splitlines()[0] if doc else ""

    @classmethod
    def explanation(cls) -> str:
        return inspect.getdoc(cls) or ""


_CHECKERS: dict[str, type[Checker]] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a rule to the registry (keyed by ``rule_id``)."""
    if not cls.rule_id:
        raise ValueError(f"checker {cls.__name__} declares no rule_id")
    if cls.rule_id in _CHECKERS:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _CHECKERS[cls.rule_id] = cls
    return cls


def _ensure_builtin_checkers() -> None:
    """Import the checker modules so their registrations run."""
    import repro.analysis.checkers  # noqa: F401  (registers everything)


def all_rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    _ensure_builtin_checkers()
    return tuple(sorted(_CHECKERS))


def get_checker(rule_id: str) -> type[Checker]:
    """Look up one registered checker class by rule id."""
    _ensure_builtin_checkers()
    if rule_id not in _CHECKERS:
        raise KeyError(f"unknown lint rule {rule_id!r}; "
                       f"options: {list(all_rule_ids())}")
    return _CHECKERS[rule_id]


def select_checkers(rules: Iterable[str] | None = None) -> list[Checker]:
    """Instantiate the selected checkers (all of them when ``rules=None``)."""
    _ensure_builtin_checkers()
    selected = all_rule_ids() if rules is None else tuple(rules)
    return [get_checker(rule_id)() for rule_id in selected]


def rule_catalog() -> list[tuple[str, str]]:
    """``(rule_id, one-line summary)`` pairs for ``--rules`` and the docs."""
    _ensure_builtin_checkers()
    return [(rule_id, _CHECKERS[rule_id].summary())
            for rule_id in all_rule_ids()]
