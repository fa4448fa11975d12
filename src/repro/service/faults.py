"""Deterministic fault injection for the service layer.

Chaos testing is only useful when it is *reproducible*: a fault schedule
that depends on wall clocks or scheduler races produces unreproducible
failures, which is exactly what this repo exists to avoid.  A
:class:`FaultPlan` therefore describes faults as data — JSON round-trip,
validated like every other spec in the repo — and fires them at **named
sites** threaded through the daemon and the campaign scheduler:

=================  ============================================  ==============
site               where the hook fires                          actions
=================  ============================================  ==============
``worker.step``    each search step inside a worker              kill, stall
``worker.cell``    a campaign cell starting inside a worker      kill, stall
``store.append``   the parent persisting one cell outcome        error
``daemon.dispatch``a dispatcher thread picking up a job          exit, stall
``sse.frame``      one SSE frame about to be written             drop
=================  ============================================  ==============

Rules are matched by site plus an optional ``match`` substring of the hook
key (hook keys embed deterministic identifiers such as the campaign cell id
``bert/random/seed=0/budget=0`` and the step's sample count), and fire on
the ``at``-th matching hit — or, with ``probability`` set, on hits selected
by a seeded hash of ``(plan.seed, rule, hit)``, so the selection is
deterministic across processes and replays without any RNG state.

Fires are **globally capped** through a filesystem ledger: before acting,
the injector claims one of the rule's ``max_fires`` slots by exclusively
creating a marker file under the ledger directory.  Worker processes,
respawned workers and restarted daemons all share the ledger (it lives
under the service root), so a rule that SIGKILLs a worker at step 10 does
it ``max_fires`` times total — not once per respawned worker, which would
starve the job forever.

When no plan is armed, every hook is a no-op behind a single ``None``
check — production traffic pays one attribute load per site.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.utils.log import get_logger

log = get_logger("service.faults")

PLAN_VERSION = 1

#: Hook sites and the actions each one supports.
SITE_ACTIONS: dict[str, tuple[str, ...]] = {
    "worker.step": ("kill", "stall"),
    "worker.cell": ("kill", "stall"),
    "store.append": ("error",),
    "daemon.dispatch": ("exit", "stall"),
    "sse.frame": ("drop",),
}

ACTIONS = ("kill", "stall", "error", "exit", "drop")

#: Exit status used by the ``exit`` action (simulated daemon crash).
CRASH_EXIT_STATUS = 70


class InjectedFault(OSError):
    """The ``error`` action: a simulated disk-full/partial-write ``OSError``.

    Subclasses :class:`OSError` so the daemon's transient-I/O retry path
    handles injected faults exactly as it would handle the real thing.
    """


class FaultDrop(Exception):
    """The ``drop`` action: the SSE handler must abruptly close the stream."""


@dataclass(frozen=True)
class FaultRule:
    """One fault: where it fires, when, what it does, and how often at most."""

    site: str
    action: str
    #: Substring the hook key must contain ("" matches every hit).
    match: str = ""
    #: Fire on the ``at``-th matching hit (1-based, counted per process).
    at: int = 1
    #: Global cap on fires, enforced across processes/restarts by the ledger.
    max_fires: int = 1
    #: ``stall`` duration.
    seconds: float = 0.0
    #: When set, replaces ``at``: each matching hit fires with this
    #: probability, decided by a seeded hash (deterministic, stateless).
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITE_ACTIONS:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"options: {sorted(SITE_ACTIONS)}")
        if self.action not in SITE_ACTIONS[self.site]:
            raise ValueError(
                f"action {self.action!r} is not valid at site {self.site!r} "
                f"(valid: {SITE_ACTIONS[self.site]})")
        if not isinstance(self.at, int) or self.at < 1:
            raise ValueError(f"at must be an int >= 1, got {self.at!r}")
        if not isinstance(self.max_fires, int) or self.max_fires < 1:
            raise ValueError(f"max_fires must be an int >= 1, "
                             f"got {self.max_fires!r}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds!r}")
        if self.action == "stall" and self.seconds == 0:
            raise ValueError("stall rules need seconds > 0")
        if self.probability is not None \
                and not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], "
                             f"got {self.probability!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "action": self.action,
            "match": self.match,
            "at": self.at,
            "max_fires": self.max_fires,
            "seconds": self.seconds,
            "probability": self.probability,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "FaultRule":
        unknown = set(payload) - {"site", "action", "match", "at",
                                  "max_fires", "seconds", "probability"}
        if unknown:
            raise ValueError(f"unknown fault rule fields {sorted(unknown)}")
        return FaultRule(
            site=str(payload["site"]),
            action=str(payload["action"]),
            match=str(payload.get("match", "")),
            at=int(payload.get("at", 1)),
            max_fires=int(payload.get("max_fires", 1)),
            seconds=float(payload.get("seconds", 0.0)),
            probability=(None if payload.get("probability") is None
                         else float(payload["probability"])),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of faults to inject."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    version: int = PLAN_VERSION

    def __post_init__(self) -> None:
        if self.version != PLAN_VERSION:
            raise ValueError(f"unsupported fault plan version {self.version}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise TypeError(f"rules must be FaultRule, got {rule!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "FaultPlan":
        unknown = set(payload) - {"version", "seed", "rules"}
        if unknown:
            raise ValueError(f"unknown fault plan fields {sorted(unknown)}")
        rules_payload = payload.get("rules", ())
        if not isinstance(rules_payload, (list, tuple)):
            raise ValueError(f"rules must be a list, got {rules_payload!r}")
        return FaultPlan(
            version=int(payload.get("version", PLAN_VERSION)),
            seed=int(payload.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules_payload),
        )

    @staticmethod
    def load(path: str | Path) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as error:
            raise ValueError(f"cannot load fault plan {path}: {error}") \
                from None
        return FaultPlan.from_dict(payload)

    def save(self, path: str | Path) -> Path:
        from repro.utils.atomic import write_json_atomic

        return write_json_atomic(path, self.to_dict())


def _hash_fraction(seed: int, rule_index: int, hit: int) -> float:
    """A deterministic pseudo-uniform draw in [0, 1) for probability rules."""
    digest = hashlib.sha256(
        f"{seed}:{rule_index}:{hit}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultInjector:
    """The armed form of a plan: hit counters + the shared fire ledger."""

    def __init__(self, plan: FaultPlan, ledger_dir: str | Path) -> None:
        self.plan = plan
        self.ledger_dir = Path(ledger_dir)
        self.ledger_dir.mkdir(parents=True, exist_ok=True)
        self._hits = [0] * len(plan.rules)
        self._by_site: dict[str, list[int]] = {}
        for index, rule in enumerate(plan.rules):
            self._by_site.setdefault(rule.site, []).append(index)

    # ------------------------------------------------------------------ #
    def _claim(self, rule_index: int, max_fires: int) -> bool:
        """Claim one global fire slot via exclusive marker-file creation.

        ``os.open(..., O_CREAT | O_EXCL)`` either creates the (empty) marker
        atomically or fails with ``FileExistsError`` — exactly one process
        wins each slot, across workers, respawned workers and daemon restarts.
        """
        for slot in range(max_fires):
            marker = self.ledger_dir / f"rule{rule_index}.fire{slot}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                return True
            except FileExistsError:
                continue
            except OSError:  # pragma: no cover - ledger on a dying disk
                return False
        return False

    def fires(self) -> list[str]:
        """Ledger marker names claimed so far (sorted; for reports/tests)."""
        if not self.ledger_dir.is_dir():
            return []
        return [path.name for path in sorted(self.ledger_dir.glob("rule*"))]

    # ------------------------------------------------------------------ #
    def fire(self, site: str, key: str = "") -> None:
        """Count one hit at ``site`` and perform any due rule's action."""
        for index in self._by_site.get(site, ()):
            rule = self.plan.rules[index]
            if rule.match and rule.match not in key:
                continue
            self._hits[index] += 1
            if rule.probability is None:
                due = self._hits[index] == rule.at
            else:
                due = _hash_fraction(self.plan.seed, index,
                                     self._hits[index]) < rule.probability
            if due and self._claim(index, rule.max_fires):
                self._act(rule, site, key)

    def _act(self, rule: FaultRule, site: str, key: str) -> None:
        log.warning("fault injection: %s at %s (key %r, pid %d)",
                    rule.action, site, key, os.getpid())
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif rule.action == "stall":
            time.sleep(rule.seconds)
        elif rule.action == "error":
            raise InjectedFault(
                f"injected I/O fault at {site} (key {key!r})")
        elif rule.action == "exit":
            os._exit(CRASH_EXIT_STATUS)
        elif rule.action == "drop":
            raise FaultDrop(f"injected connection drop at {site} "
                            f"(key {key!r})")
        else:  # pragma: no cover - rules are validated at construction
            raise AssertionError(f"unhandled fault action {rule.action!r}")


#: The process-wide armed injector (None = all hooks are no-ops).
_INJECTOR: FaultInjector | None = None


def arm(plan: FaultPlan, ledger_dir: str | Path) -> FaultInjector:
    """Arm ``plan`` in this process; returns the injector (for inspection)."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan, ledger_dir)
    log.info("fault plan armed: %d rules, ledger %s",
             len(plan.rules), ledger_dir)
    return _INJECTOR


def disarm() -> None:
    global _INJECTOR
    _INJECTOR = None


def armed() -> bool:
    return _INJECTOR is not None


def fire(site: str, key: str = "") -> None:
    """The zero-cost-when-unarmed hook every fault site calls."""
    if _INJECTOR is not None:
        _INJECTOR.fire(site, key)


__all__ = [
    "ACTIONS",
    "CRASH_EXIT_STATUS",
    "FaultDrop",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "SITE_ACTIONS",
    "arm",
    "armed",
    "disarm",
    "fire",
]
