"""Sharded, resumable experiment campaigns with a persistent result store.

The campaign layer turns the paper's result grids — workloads x strategies x
seeds x budgets — into data instead of per-harness glue:

* :class:`~repro.campaign.spec.CampaignSpec` declares the grid (JSON in/out),
* :class:`~repro.campaign.store.ResultStore` persists per-job outcomes
  append-only and doubles as a cross-process evaluation-cache spill,
* :class:`~repro.campaign.scheduler.CampaignScheduler` runs independent jobs
  inline or on forked pipe workers (the search service's) and resumes
  crash-safely,
* :class:`~repro.campaign.report.CampaignReport` aggregates completed jobs
  into deterministic tables (byte-identical across interrupt + resume).

One-call entry point::

    from repro.campaign import CampaignSpec, StrategyVariant, run_campaign

    spec = CampaignSpec(
        name="demo",
        workloads=("bert", "resnet50"),
        strategies=(StrategyVariant("dosa", settings={"gd_steps": 100,
                                                      "rounding_period": 50}),
                    StrategyVariant("random")),
        seeds=(0, 1),
    )
    result = run_campaign(spec, directory="campaigns/demo")

or from the shell: ``python -m repro.cli campaign run spec.json --dir DIR``.
The Figure 7/8/9 harnesses drive their grids through this layer.
"""

from repro.campaign.report import CampaignReport
from repro.campaign.scheduler import (
    CampaignRun,
    CampaignScheduler,
    CampaignStatus,
    execute_job,
    run_campaign,
)
from repro.campaign.spec import CampaignSpec, JobSpec, StrategyVariant
from repro.campaign.store import ResultStore, StoreCorruptionError

__all__ = [
    "CampaignReport",
    "CampaignRun",
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStatus",
    "JobSpec",
    "ResultStore",
    "StoreCorruptionError",
    "StrategyVariant",
    "execute_job",
    "run_campaign",
]
