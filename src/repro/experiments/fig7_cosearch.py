"""Figure 7 + Section 6.3: DOSA vs random search vs Bayesian optimization.

For each target workload the three co-search strategies run through the
unified search registry with a comparable sample budget, and the unified
best-EDP-so-far traces are recorded.  The whole grid — workloads x the three
strategies — is declared as one :class:`~repro.campaign.spec.CampaignSpec`
and executed through the campaign scheduler, the same path as
``repro.cli campaign run``.  The paper reports a geometric-mean improvement
of 2.80x over random search and 12.59x over BB-BO after roughly 10,000
samples, with BB-BO leading below ~1000 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign import CampaignSpec, run_campaign
from repro.experiments.common import (
    COSEARCH_STRATEGIES,
    ExperimentOutput,
    cosearch_campaign_spec,
)
from repro.search.api import SearchBudget, SearchOutcome
from repro.utils.math_utils import geometric_mean
from repro.utils.rng import SeedLike
from repro.workloads.networks import TARGET_WORKLOAD_NAMES


@dataclass
class CoSearchResult:
    """Unified outcome per strategy for one workload."""

    workload: str
    outcomes: dict[str, SearchOutcome]

    def edp(self, strategy: str) -> float:
        return self.outcomes[strategy].best_edp

    def trace(self, strategy: str) -> list[tuple[int, float]]:
        return self.outcomes[strategy].trace.as_pairs()

    # Convenience accessors used by the benchmark suite.
    @property
    def dosa_edp(self) -> float:
        return self.edp("dosa")

    @property
    def random_edp(self) -> float:
        return self.edp("random")

    @property
    def bayesian_edp(self) -> float:
        return self.edp("bayesian")

    @property
    def dosa_vs_random(self) -> float:
        return self.random_edp / self.dosa_edp

    @property
    def dosa_vs_bayesian(self) -> float:
        return self.bayesian_edp / self.dosa_edp


def campaign_spec(
    workloads: tuple[str, ...] = TARGET_WORKLOAD_NAMES,
    num_start_points: int = 7,
    gd_steps: int = 1490,
    rounding_period: int = 500,
    random_hardware_designs: int = 10,
    random_mappings_per_layer: int = 1000,
    bo_training_hardware: int = 100,
    bo_mappings_per_layer: int = 100,
    bo_candidates: int = 1000,
    budget: SearchBudget | int | None = None,
    seed: SeedLike = 0,
) -> CampaignSpec:
    """The Figure 7 grid as a campaign spec (paper-scale defaults)."""
    strategy_overrides = {
        "dosa": {"num_start_points": num_start_points, "gd_steps": gd_steps,
                 "rounding_period": rounding_period},
        "random": {"num_hardware_designs": random_hardware_designs,
                   "mappings_per_layer": random_mappings_per_layer},
        "bayesian": {"num_training_hardware": bo_training_hardware,
                     "mappings_per_layer": bo_mappings_per_layer,
                     "num_candidates": bo_candidates},
    }
    assert tuple(strategy_overrides) == COSEARCH_STRATEGIES
    return cosearch_campaign_spec("fig7_cosearch", workloads,
                                  strategy_overrides, seed=seed, budget=budget)


def run(
    workloads: tuple[str, ...] = TARGET_WORKLOAD_NAMES,
    num_start_points: int = 7,
    gd_steps: int = 1490,
    rounding_period: int = 500,
    random_hardware_designs: int = 10,
    random_mappings_per_layer: int = 1000,
    bo_training_hardware: int = 100,
    bo_mappings_per_layer: int = 100,
    bo_candidates: int = 1000,
    budget: SearchBudget | int | None = None,
    seed: SeedLike = 0,
) -> list[CoSearchResult]:
    """Paper-scale defaults; pass smaller values (or a budget) for quick runs."""
    spec = campaign_spec(
        workloads=workloads, num_start_points=num_start_points,
        gd_steps=gd_steps, rounding_period=rounding_period,
        random_hardware_designs=random_hardware_designs,
        random_mappings_per_layer=random_mappings_per_layer,
        bo_training_hardware=bo_training_hardware,
        bo_mappings_per_layer=bo_mappings_per_layer,
        bo_candidates=bo_candidates, budget=budget, seed=seed)
    result = run_campaign(spec)
    job_outcomes = result.complete_outcomes()  # propagates interrupts cleanly
    outcomes = {(job.workload, job.variant.name): job_outcomes[job.job_id]
                for job in spec.jobs()}
    return [CoSearchResult(
                workload=workload,
                outcomes={strategy: outcomes[(workload, strategy)]
                          for strategy in COSEARCH_STRATEGIES})
            for workload in workloads]


def summarize(results: list[CoSearchResult]) -> dict[str, float]:
    """Geometric-mean improvements of DOSA over the two baselines (Section 6.3)."""
    return {
        "geomean_vs_random": geometric_mean([r.dosa_vs_random for r in results]),
        "geomean_vs_bayesian": geometric_mean([r.dosa_vs_bayesian for r in results]),
    }


def main(**kwargs) -> ExperimentOutput:
    results = run(**kwargs)
    output = ExperimentOutput(
        name="fig7_cosearch",
        headers=["workload", "DOSA EDP", "Random EDP", "BB-BO EDP",
                 "DOSA vs Random", "DOSA vs BB-BO"],
    )
    for result in results:
        output.add_row(result.workload, f"{result.dosa_edp:.4e}", f"{result.random_edp:.4e}",
                       f"{result.bayesian_edp:.4e}", round(result.dosa_vs_random, 3),
                       round(result.dosa_vs_bayesian, 3))
    summary = summarize(results)
    output.add_note(f"Geomean improvement vs random: {summary['geomean_vs_random']:.2f}x "
                    f"(paper: 2.80x); vs BB-BO: {summary['geomean_vs_bayesian']:.2f}x "
                    f"(paper: 12.59x).")
    output.save()
    return output


if __name__ == "__main__":
    print(main().to_text())
