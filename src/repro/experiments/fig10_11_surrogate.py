"""Figures 10 and 11: accuracy of the Gemmini-RTL latency models.

Three latency models are compared by Spearman rank correlation against the
(simulated) RTL latency:

* Figure 10 — on a held-out split of random mappings of the *training*
  workloads (paper: analytical 0.87, DNN-only 0.84, combined 0.92),
* Figure 11 — on DOSA-generated mappings of the *target* workloads, which the
  DNN never saw (paper: 0.97 / 0.79 / 0.97 — the DNN-only model generalizes
  worst, the combined model stays accurate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GEMMINI_DEFAULT
from repro.core.optimizer import DosaSearcher, DosaSettings
from repro.eval.batch import evaluate_mappings_batched
from repro.experiments.common import ExperimentOutput
from repro.surrogate.combined import (
    AnalyticalLatencyModel,
    CombinedLatencyModel,
    DnnOnlyLatencyModel,
    evaluate_model_accuracy,
)
from repro.surrogate.dataset import LatencySample, generate_dataset, train_test_split
from repro.surrogate.dnn_model import TrainingSettings
from repro.surrogate.features import encode_features
from repro.surrogate.rtl_sim import RtlSimulator
from repro.utils.rng import SeedLike
from repro.workloads.networks import get_network, training_networks


@dataclass
class SurrogateStudy:
    """Trained models plus their accuracy on both evaluation datasets."""

    analytical: AnalyticalLatencyModel
    dnn_only: DnnOnlyLatencyModel
    combined: CombinedLatencyModel
    random_mapping_accuracy: dict[str, float]
    dosa_mapping_accuracy: dict[str, float]


def build_dosa_samples(
    workloads: tuple[str, ...],
    simulator: RtlSimulator,
    gd_steps: int,
    rounding_period: int,
    seed: SeedLike,
) -> list[LatencySample]:
    """DOSA-generated mappings of the target workloads, measured on the RTL sim."""
    samples: list[LatencySample] = []
    for workload in workloads:
        network = get_network(workload)
        settings = DosaSettings(num_start_points=1, gd_steps=gd_steps,
                                rounding_period=rounding_period,
                                fixed_pe_dim=GEMMINI_DEFAULT.pe_dim, seed=seed)
        mappings = DosaSearcher(network, settings).search().best.mappings
        analytical = evaluate_mappings_batched(mappings, GEMMINI_DEFAULT)
        rtl = simulator.latencies(mappings, GEMMINI_DEFAULT)
        samples += [
            LatencySample(
                mapping=mapping,
                hardware=GEMMINI_DEFAULT,
                features=encode_features(mapping, GEMMINI_DEFAULT),
                analytical_latency=result.latency_cycles,
                rtl_latency=rtl_latency,
            )
            for mapping, result, rtl_latency in zip(mappings, analytical, rtl)
        ]
    return samples


def run(
    samples_per_layer: int = 12,
    training_epochs: int = 600,
    dosa_workloads: tuple[str, ...] = ("resnet50", "bert"),
    dosa_gd_steps: int = 200,
    dosa_rounding_period: int = 100,
    seed: SeedLike = 0,
) -> SurrogateStudy:
    """Train the predictors and score them on both datasets."""
    simulator = RtlSimulator()
    dataset = generate_dataset(training_networks(), GEMMINI_DEFAULT,
                               samples_per_layer=samples_per_layer,
                               simulator=simulator, seed=seed)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=seed)

    training_settings = TrainingSettings(epochs=training_epochs, seed=0)
    analytical = AnalyticalLatencyModel()
    dnn_only = DnnOnlyLatencyModel(seed=0)
    dnn_only.train(train, training_settings)
    combined = CombinedLatencyModel(seed=0)
    combined.train(train, training_settings)

    random_accuracy = {
        model.name: evaluate_model_accuracy(model, test)
        for model in (analytical, dnn_only, combined)
    }

    dosa_samples = build_dosa_samples(dosa_workloads, simulator, dosa_gd_steps,
                                      dosa_rounding_period, seed)
    dosa_accuracy = {
        model.name: evaluate_model_accuracy(model, dosa_samples)
        for model in (analytical, dnn_only, combined)
    }
    return SurrogateStudy(
        analytical=analytical,
        dnn_only=dnn_only,
        combined=combined,
        random_mapping_accuracy=random_accuracy,
        dosa_mapping_accuracy=dosa_accuracy,
    )


def main(**kwargs) -> ExperimentOutput:
    study = run(**kwargs)
    output = ExperimentOutput(
        name="fig10_11_latency_model_accuracy",
        headers=["dataset", "analytical", "dnn_only", "analytical_dnn"],
    )
    output.add_row("random mappings (Fig. 10)",
                   round(study.random_mapping_accuracy["analytical"], 3),
                   round(study.random_mapping_accuracy["dnn_only"], 3),
                   round(study.random_mapping_accuracy["analytical_dnn"], 3))
    output.add_row("DOSA mappings (Fig. 11)",
                   round(study.dosa_mapping_accuracy["analytical"], 3),
                   round(study.dosa_mapping_accuracy["dnn_only"], 3),
                   round(study.dosa_mapping_accuracy["analytical_dnn"], 3))
    output.add_note("Paper: Fig. 10 Spearman 0.87 / 0.84 / 0.92; Fig. 11 0.97 / 0.79 / 0.97.")
    output.save()
    return output


if __name__ == "__main__":
    print(main().to_text())
