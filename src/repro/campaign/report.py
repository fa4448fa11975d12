"""Aggregation of a campaign's persisted results into deterministic reports.

The report is computed purely from the *deterministic* fields of each
completed job's outcome — best EDP, sample count, grid coordinates — never
from wall-clock times, so a campaign that was interrupted and resumed
produces a byte-identical report to the same campaign run in one go (the
crash-safe-resume acceptance test and the CI smoke both diff the two).

Three sections:

* a per-job table in grid order,
* a per-workload strategy comparison (best EDP over the seed/budget axes,
  with the ratio against the spec's first strategy variant as reference),
* geometric-mean ratios across workloads, the shape of the paper's
  Section 6.3 headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.utils.atomic import write_atomic
from repro.utils.formatting import format_table
from repro.utils.math_utils import geometric_mean


@dataclass
class JobResult:
    """Deterministic summary of one completed grid cell."""

    workload: str
    strategy: str
    seed: Any
    budget: str
    best_edp: float
    samples: int


@dataclass
class CampaignReport:
    """Aggregated view over every *completed* job of one campaign."""

    spec: CampaignSpec
    results: list[JobResult]
    pending: list[str]

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_store(store: ResultStore) -> "CampaignReport":
        """Build the report from a store's latest completed records."""
        spec = store.spec
        outcomes = store.latest_outcomes()
        results: list[JobResult] = []
        pending: list[str] = []
        for job in spec.jobs():
            payload = outcomes.get(job.job_id)
            if payload is None or payload.get("interrupted", False):
                pending.append(job.job_id)
                continue
            trace = payload.get("trace", {})
            samples = max((int(s) for s in trace.get("samples", ())), default=0)
            results.append(JobResult(
                workload=job.workload,
                strategy=job.variant.name,
                seed=job.seed,
                budget=job.describe_budget(),
                best_edp=float(payload["best"]["edp"]),
                samples=samples,
            ))
        return CampaignReport(spec=spec, results=results, pending=pending)

    # ------------------------------------------------------------------ #
    def best_edp(self, workload: str, strategy: str) -> float | None:
        """Best EDP of one workload/strategy pair over seeds and budgets."""
        edps = [r.best_edp for r in self.results
                if r.workload == workload and r.strategy == strategy]
        return min(edps) if edps else None

    def strategy_summary(self) -> list[tuple[str, str, float, float | None]]:
        """Rows of (workload, strategy, best EDP, ratio vs reference).

        The reference is the spec's first strategy variant; the ratio is
        ``strategy_edp / reference_edp`` (>1 means worse than the reference).
        """
        reference = self.spec.strategies[0].name
        rows = []
        for workload in self.spec.workloads:
            reference_edp = self.best_edp(workload, reference)
            for variant in self.spec.strategies:
                edp = self.best_edp(workload, variant.name)
                if edp is None:
                    continue
                ratio = (edp / reference_edp
                         if reference_edp is not None else None)
                rows.append((workload, variant.name, edp, ratio))
        return rows

    def geomean_ratios(self) -> dict[str, float]:
        """Per-strategy geomean of the vs-reference ratio across workloads.

        Only workloads where both the strategy and the reference completed
        participate; strategies with no such workload are omitted.
        """
        reference = self.spec.strategies[0].name
        ratios: dict[str, list[float]] = {}
        for workload in self.spec.workloads:
            reference_edp = self.best_edp(workload, reference)
            if reference_edp is None:
                continue
            for variant in self.spec.strategies:
                edp = self.best_edp(workload, variant.name)
                if edp is not None:
                    ratios.setdefault(variant.name, []).append(edp / reference_edp)
        return {name: geometric_mean(values)
                for name, values in ratios.items() if values}

    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """The full deterministic text report (identical across resumes)."""
        lines = [f"== campaign {self.spec.name} ==",
                 f"completed {len(self.results)}/{self.spec.grid_size} jobs"]
        if self.pending:
            lines.append(f"pending: {len(self.pending)} "
                         "(report covers completed jobs only)")
        lines.append("")
        lines.append(format_table(
            ["workload", "strategy", "seed", "budget", "best EDP", "samples"],
            [[r.workload, r.strategy, r.seed, r.budget,
              f"{r.best_edp:.6e}", r.samples] for r in self.results],
        ))
        summary = self.strategy_summary()
        if summary:
            reference = self.spec.strategies[0].name
            lines.append("")
            lines.append(f"-- best EDP per workload (ratio vs {reference}) --")
            lines.append(format_table(
                ["workload", "strategy", "best EDP", f"vs {reference}"],
                [[workload, strategy, f"{edp:.6e}",
                  "-" if ratio is None else f"{ratio:.3f}"]
                 for workload, strategy, edp, ratio in summary],
            ))
        geomeans = self.geomean_ratios()
        if geomeans:
            reference = self.spec.strategies[0].name
            lines.append("")
            lines.append(f"-- geomean EDP ratio vs {reference} across workloads --")
            lines.append(format_table(
                ["strategy", f"geomean vs {reference}"],
                [[name, f"{value:.3f}"] for name, value in sorted(geomeans.items())],
            ))
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, self.to_text())
        return path
