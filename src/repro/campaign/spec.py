"""Declarative campaign specifications: an experiment grid as data.

A :class:`CampaignSpec` names the full cross product the paper's headline
numbers are built from — workloads x strategy variants x seeds x budgets —
as a plain, JSON-(de)serializable value.  Expanding the grid yields one
:class:`JobSpec` per cell with a stable, human-readable ``job_id``; every job
is independent (its searcher is constructed from the registry with its own
seeded settings), which is what lets the scheduler fan jobs out across
processes and resume a campaign by skipping ids already present in the
:class:`~repro.campaign.store.ResultStore`.

A *strategy variant* is a registry strategy plus fixed hyperparameter
overrides (and, for ``fixed_hw_random``, the pinned hardware).  Seeds are
deliberately *not* part of a variant: the grid's seed axis is injected into
each job's settings (``settings_type(seed=seed, **overrides)``), so one
variant row fans out over every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.arch.config import HardwareConfig
from repro.search.api import SearchBudget, check_settings_overrides, get_searcher
from repro.utils.atomic import write_atomic
from repro.utils.serialization import (
    budget_from_dict,
    budget_to_dict,
    hardware_from_dict,
    hardware_to_dict,
)
from repro.workloads.networks import NETWORK_BUILDERS

#: Bumped when the spec JSON layout changes incompatibly.
SPEC_VERSION = 1


@dataclass(frozen=True)
class StrategyVariant:
    """One strategy column of the campaign grid.

    ``name`` labels the column (unique within a campaign; defaults are fine
    for one-variant-per-strategy grids, while e.g. the Figure 8 baselines run
    the same ``fixed_hw_random`` strategy under four accelerator names).
    ``settings`` holds JSON-safe keyword overrides for the strategy's
    settings dataclass — everything *except* the seed, which comes from the
    grid's seed axis.  ``hardware`` pins the accelerator for mapping-only
    strategies.
    """

    name: str
    strategy: str = ""
    settings: Mapping[str, Any] = field(default_factory=dict)
    hardware: HardwareConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("strategy variant needs a non-empty name")
        if not self.strategy:
            object.__setattr__(self, "strategy", self.name)
        object.__setattr__(self, "settings", dict(self.settings))
        try:
            json.dumps(self.settings)
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"variant {self.name!r}: settings overrides must be JSON-safe "
                f"(got {self.settings!r}): {error}") from None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"name": self.name, "strategy": self.strategy}
        if self.settings:
            payload["settings"] = dict(self.settings)
        if self.hardware is not None:
            payload["hardware"] = hardware_to_dict(self.hardware)
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "StrategyVariant":
        hardware = payload.get("hardware")
        return StrategyVariant(
            name=str(payload["name"]),
            strategy=str(payload.get("strategy", "")),
            settings=dict(payload.get("settings", {})),
            hardware=None if hardware is None else hardware_from_dict(hardware),
        )


@dataclass(frozen=True)
class JobSpec:
    """One fully-determined cell of the campaign grid."""

    workload: str
    variant: StrategyVariant
    seed: int
    budget: SearchBudget
    budget_index: int

    @property
    def job_id(self) -> str:
        """Stable id used for resume bookkeeping and result records."""
        return (f"{self.workload}/{self.variant.name}"
                f"/seed={self.seed}/budget={self.budget_index}")

    def describe_budget(self) -> str:
        parts = []
        if self.budget.max_samples is not None:
            parts.append(f"samples<={self.budget.max_samples}")
        if self.budget.max_seconds is not None:
            parts.append(f"seconds<={self.budget.max_seconds:g}")
        return ",".join(parts) if parts else "unlimited"


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative grid: workloads x strategy variants x seeds x budgets."""

    name: str
    workloads: tuple[str, ...]
    strategies: tuple[StrategyVariant, ...]
    seeds: tuple[int, ...] = (0,)
    budgets: tuple[SearchBudget, ...] = (SearchBudget(),)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "budgets", tuple(self.budgets))
        if not self.name:
            raise ValueError("campaign needs a non-empty name")
        if not (self.workloads and self.strategies and self.seeds and self.budgets):
            raise ValueError("campaign grid needs at least one workload, "
                             "strategy, seed and budget")
        unknown = [w for w in self.workloads if w not in NETWORK_BUILDERS]
        if unknown:
            raise ValueError(f"unknown workloads {unknown}; "
                             f"options: {sorted(NETWORK_BUILDERS)}")
        names = [variant.name for variant in self.strategies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategy variant names in {names}")
        if any(isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
               for seed in self.seeds):
            raise ValueError(
                f"seeds must be JSON-safe non-negative integers, got "
                f"{self.seeds!r}: campaign grids are serialized and fanned out "
                "across processes, so pass explicit integer seeds rather than "
                "RNG objects")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds}")
        for variant in self.strategies:
            get_searcher(variant.strategy)  # raises KeyError on unknown names
            if variant.strategy == "fixed_hw_random" and variant.hardware is None:
                raise ValueError(f"variant {variant.name!r}: strategy "
                                 "'fixed_hw_random' requires hardware")

    def check_settings(self) -> None:
        """Refuse settings overrides that a variant's strategy does not have.

        Not run on load, so stores written with since-removed settings stay
        loadable and reportable; the scheduler and the search service run it
        before any job starts.
        """
        for variant in self.strategies:
            try:
                check_settings_overrides(variant.strategy, variant.settings)
            except ValueError as error:
                raise ValueError(f"variant {variant.name!r}: {error}") from None

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    def jobs(self) -> list[JobSpec]:
        """All grid cells, in deterministic workload-major order."""
        return [
            JobSpec(workload=workload, variant=variant, seed=seed,
                    budget=budget, budget_index=budget_index)
            for workload in self.workloads
            for variant in self.strategies
            for seed in self.seeds
            for budget_index, budget in enumerate(self.budgets)
        ]

    @property
    def grid_size(self) -> int:
        return (len(self.workloads) * len(self.strategies)
                * len(self.seeds) * len(self.budgets))

    def job_named(self, job_id: str) -> JobSpec:
        for job in self.jobs():
            if job.job_id == job_id:
                return job
        raise KeyError(f"no job {job_id!r} in campaign {self.name!r}")

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "workloads": list(self.workloads),
            "strategies": [variant.to_dict() for variant in self.strategies],
            "seeds": list(self.seeds),
            "budgets": [budget_to_dict(budget) for budget in self.budgets],
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "CampaignSpec":
        version = int(payload.get("version", SPEC_VERSION))
        if version > SPEC_VERSION:
            raise ValueError(f"campaign spec version {version} is newer than "
                             f"supported version {SPEC_VERSION}")
        return CampaignSpec(
            name=str(payload["name"]),
            workloads=tuple(payload["workloads"]),
            strategies=tuple(StrategyVariant.from_dict(entry)
                             for entry in payload["strategies"]),
            seeds=tuple(payload.get("seeds", (0,))),
            budgets=tuple(budget_from_dict(entry)
                          for entry in payload.get("budgets", ({},))),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @staticmethod
    def load(path: str | Path) -> "CampaignSpec":
        return CampaignSpec.from_dict(json.loads(Path(path).read_text()))
