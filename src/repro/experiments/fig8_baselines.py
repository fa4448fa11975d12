"""Figure 8: DOSA-optimized Gemmini versus expert-designed accelerators.

Each baseline accelerator (Eyeriss, NVDLA Small, NVDLA Large, Gemmini default)
keeps its fixed hardware and receives the best of N random mappings per layer
(the paper uses Timeloop's random-pruned mapper with 10,000 mappings), run as
a ``"fixed_hw_random"`` strategy variant pinned to that accelerator's
hardware.  The DOSA column is the ``"dosa"`` strategy on the same grid.  The
whole comparison — workloads x (four fixed accelerators + DOSA) — is one
:class:`~repro.campaign.spec.CampaignSpec` executed through the campaign
scheduler, whose store spills the reference-model cache across jobs (layers
repeat across accelerators, so sampled mappings recur).
"""

from __future__ import annotations

from repro.arch.baselines import baseline_accelerators
from repro.campaign import CampaignSpec, StrategyVariant, run_campaign
from repro.experiments.common import ExperimentOutput
from repro.utils.rng import SeedLike
from repro.workloads.networks import TARGET_WORKLOAD_NAMES

#: Variant name of the DOSA-optimized Gemmini column.
DOSA_COLUMN = "Gemmini DOSA"


def campaign_spec(
    workloads: tuple[str, ...] = TARGET_WORKLOAD_NAMES,
    mappings_per_layer: int = 10_000,
    num_start_points: int = 7,
    gd_steps: int = 1490,
    rounding_period: int = 500,
    seed: SeedLike = 0,
) -> CampaignSpec:
    """The Figure 8 grid: every expert baseline plus DOSA, per workload."""
    variants = tuple(
        StrategyVariant(
            name=baseline.name,
            strategy="fixed_hw_random",
            settings={"mappings_per_layer": mappings_per_layer},
            hardware=baseline.config,
        )
        for baseline in baseline_accelerators()
    ) + (
        StrategyVariant(
            name=DOSA_COLUMN,
            strategy="dosa",
            settings={"num_start_points": num_start_points, "gd_steps": gd_steps,
                      "rounding_period": rounding_period},
        ),
    )
    return CampaignSpec(name="fig8_baselines", workloads=tuple(workloads),
                        strategies=variants, seeds=(seed,))


def run(
    workloads: tuple[str, ...] = TARGET_WORKLOAD_NAMES,
    mappings_per_layer: int = 10_000,
    num_start_points: int = 7,
    gd_steps: int = 1490,
    rounding_period: int = 500,
    seed: SeedLike = 0,
) -> dict[str, dict[str, float]]:
    """EDP per workload per accelerator, with DOSA-optimized Gemmini last."""
    spec = campaign_spec(workloads=workloads,
                         mappings_per_layer=mappings_per_layer,
                         num_start_points=num_start_points, gd_steps=gd_steps,
                         rounding_period=rounding_period, seed=seed)
    campaign = run_campaign(spec)
    outcomes = campaign.complete_outcomes()  # propagates interrupts cleanly
    results: dict[str, dict[str, float]] = {w: {} for w in workloads}
    for job in spec.jobs():
        results[job.workload][job.variant.name] = \
            outcomes[job.job_id].best_edp
    return results


def main(**kwargs) -> ExperimentOutput:
    results = run(**kwargs)
    output = ExperimentOutput(
        name="fig8_baseline_accelerators",
        headers=["workload", "accelerator", "EDP", "normalized to Gemmini DOSA"],
    )
    for workload, per_accelerator in results.items():
        dosa_edp = per_accelerator[DOSA_COLUMN]
        for accelerator, edp in per_accelerator.items():
            output.add_row(workload, accelerator, f"{edp:.4e}", round(edp / dosa_edp, 2))
    output.add_note("Paper (Fig. 8): DOSA-optimized Gemmini-TL outperforms every expert "
                    "baseline by more than 2x EDP on all four workloads.")
    output.save()
    return output


if __name__ == "__main__":
    print(main().to_text())
