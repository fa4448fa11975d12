"""Shared helpers for the experiment harnesses.

Search-based harnesses (Figures 7-9) drive their grids through the campaign
layer: each harness declares its workload x strategy (x seed) grid as a
:class:`~repro.campaign.spec.CampaignSpec` and runs it with
:func:`~repro.campaign.scheduler.run_campaign` (an ephemeral store by
default), so the figure pipeline, ``repro.cli campaign`` and ad-hoc sweeps
all share one orchestration path.  One-off searches go through
:func:`~repro.search.api.optimize`, which resolves strategies via the
unified registry so harness code never touches strategy-specific searcher
or result classes.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.campaign import CampaignSpec, StrategyVariant
from repro.search.api import SearchBudget
from repro.utils.atomic import write_atomic
from repro.utils.formatting import format_table
from repro.utils.rng import SeedLike

#: The three co-search strategies compared in Figures 7-9.
COSEARCH_STRATEGIES: tuple[str, ...] = ("dosa", "random", "bayesian")


def cosearch_campaign_spec(
    name: str,
    workloads: Sequence[str],
    strategy_overrides: Mapping[str, Mapping[str, Any]],
    seed: SeedLike = 0,
    budget: SearchBudget | int | None = None,
) -> CampaignSpec:
    """Declare a harness grid: ``workloads`` x the given strategy variants.

    ``strategy_overrides`` maps registry names to JSON-safe settings-kwargs
    overrides (everything except the seed, which is the grid's seed axis);
    the same :class:`SearchBudget` applies to every cell so best-so-far
    traces are directly comparable.
    """
    return CampaignSpec(
        name=name,
        workloads=tuple(workloads),
        strategies=tuple(StrategyVariant(strategy, settings=dict(overrides))
                         for strategy, overrides in strategy_overrides.items()),
        seeds=(seed,),
        budgets=(SearchBudget.coerce(budget),),
    )


def default_output_dir() -> Path:
    """Directory experiment outputs are written to (``$REPRO_OUTPUT_DIR`` or ./output_dir)."""
    return Path(os.environ.get("REPRO_OUTPUT_DIR", "output_dir"))


def write_csv(path: Path, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Atomically write a CSV file, creating parent directories as needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(headers)
    writer.writerows(rows)
    write_atomic(path, buffer.getvalue())


@dataclass
class ExperimentOutput:
    """A named table of results that can be printed and persisted."""

    name: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} values, got {len(values)}")
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_text(self) -> str:
        body = format_table(self.headers, self.rows)
        if self.notes:
            body += "\n" + "\n".join(f"# {note}" for note in self.notes)
        return f"== {self.name} ==\n{body}"

    def save(self, output_dir: Path | None = None) -> Path:
        """Write CSV + text table under the output directory; returns the CSV path."""
        output_dir = output_dir or default_output_dir()
        csv_path = output_dir / f"{self.name}.csv"
        write_csv(csv_path, self.headers, self.rows)
        text_path = output_dir / f"{self.name}.txt"
        write_atomic(text_path, self.to_text() + "\n")
        return csv_path
