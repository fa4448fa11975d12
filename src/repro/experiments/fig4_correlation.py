"""Figure 4: correlation of the differentiable model against the reference model.

The paper maps 73 unique layers onto 100 random Gemmini configurations for a
total of 10,000 random mappings and reports the relative error of the
differentiable model's latency, energy and EDP predictions against Timeloop
(MAE 0.01% / 0.18% / 0.18%, with outliers up to ~12% on very small layers
caused by DRAM block-ceiling energy accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import random_hardware_config
from repro.core.dmodel import DifferentiableHardware, DifferentiableModel, MultiStartFactors
from repro.eval.batch import evaluate_mappings_batched
from repro.experiments.common import ExperimentOutput
from repro.mapping.random_mapper import random_mapping
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.registry import correlation_layer_pool


@dataclass
class CorrelationStats:
    """Error statistics of one metric (latency / energy / EDP)."""

    mean_absolute_error_pct: float
    max_absolute_error_pct: float
    within_one_pct: float


def run(
    num_configs: int = 100,
    mappings_per_config: int = 100,
    seed: SeedLike = 0,
) -> dict[str, CorrelationStats]:
    """Compare differentiable-model predictions against the reference model.

    Returns error statistics per metric.  The paper-scale run uses 100 configs
    x 100 mappings = 10,000 points; tests and benchmarks shrink both numbers.
    """
    rng = make_rng(seed)
    pool = correlation_layer_pool()
    errors: dict[str, list[float]] = {"latency": [], "energy": [], "edp": []}

    for _ in range(num_configs):
        config = random_hardware_config(seed=rng)
        hardware = DifferentiableHardware.from_config(config)
        mappings = [
            random_mapping(pool[int(rng.integers(len(pool)))], seed=rng,
                           max_spatial=config.pe_dim)
            for _ in range(mappings_per_config)
        ]
        # The reference scores draw nothing, so one batch after the draws
        # leaves the random stream as it was.
        references = evaluate_mappings_batched(mappings, config)
        for mapping, reference in zip(mappings, references):
            # A 1x1 stack: one start point, one layer.
            predicted = DifferentiableModel.evaluate_layer(
                MultiStartFactors.from_mapping_sets([[mapping]]), hardware)
            predicted_latency = predicted.latency.data.item()
            predicted_energy = predicted.energy.data.item()
            errors["latency"].append(
                100.0 * (predicted_latency - reference.latency_cycles) / reference.latency_cycles)
            errors["energy"].append(
                100.0 * (predicted_energy - reference.energy) / reference.energy)
            errors["edp"].append(
                100.0 * (predicted_latency * predicted_energy - reference.edp) / reference.edp)

    stats: dict[str, CorrelationStats] = {}
    for metric, values in errors.items():
        values = np.asarray(values)
        stats[metric] = CorrelationStats(
            mean_absolute_error_pct=float(np.mean(np.abs(values))),
            max_absolute_error_pct=float(np.max(np.abs(values))),
            within_one_pct=float(np.mean(np.abs(values) <= 1.0)),
        )
    return stats


def main(num_configs: int = 100, mappings_per_config: int = 100, seed: SeedLike = 0) -> ExperimentOutput:
    stats = run(num_configs=num_configs, mappings_per_config=mappings_per_config, seed=seed)
    output = ExperimentOutput(
        name="fig4_model_correlation",
        headers=["metric", "MAE (%)", "max abs error (%)", "fraction within 1%"],
    )
    for metric in ("latency", "energy", "edp"):
        s = stats[metric]
        output.add_row(metric, round(s.mean_absolute_error_pct, 4),
                       round(s.max_absolute_error_pct, 3), round(s.within_one_pct, 4))
    output.add_note("Paper (Fig. 4): latency MAE 0.01%, energy MAE 0.18%, EDP MAE 0.18%; "
                    "98.3% of points within 1%; outliers up to 12% on tiny layers.")
    output.save()
    return output


if __name__ == "__main__":
    print(main().to_text())
