"""Integration tests: every experiment harness runs end-to-end at reduced scale."""

import numpy as np
import pytest

from repro.arch import GEMMINI_DEFAULT
from repro.core.optimizer import DosaSettings
from repro.experiments import (
    fig4_correlation,
    fig6_loop_ordering,
    fig7_cosearch,
    fig8_baselines,
    fig9_separation,
    fig10_11_surrogate,
    fig12_rtl,
)
from repro.experiments.common import ExperimentOutput
from repro.surrogate import (
    CombinedLatencyModel,
    RtlSimulator,
    TrainingSettings,
    generate_dataset,
)
from repro.surrogate.combined import AnalyticalLatencyModel, DnnOnlyLatencyModel
from repro.workloads import training_networks

from oracles.latency_ranking import search_per_model


class TestCommon:
    def test_experiment_output_roundtrip(self, tmp_path):
        output = ExperimentOutput(name="demo", headers=["a", "b"])
        output.add_row(1, 2.5)
        output.add_note("note")
        path = output.save(tmp_path)
        assert path.exists()
        assert (tmp_path / "demo.txt").read_text().startswith("== demo ==")

    def test_row_length_validated(self):
        output = ExperimentOutput(name="demo", headers=["a", "b"])
        with pytest.raises(ValueError):
            output.add_row(1)


class TestFig4:
    def test_small_run_has_low_error(self):
        stats = fig4_correlation.run(num_configs=4, mappings_per_config=8, seed=0)
        assert set(stats) == {"latency", "energy", "edp"}
        assert stats["latency"].mean_absolute_error_pct < 1.0
        assert stats["energy"].mean_absolute_error_pct < 5.0
        assert 0.0 <= stats["edp"].within_one_pct <= 1.0


class TestFig6:
    def test_all_strategies_reported(self):
        results = fig6_loop_ordering.run(workloads=("bert",), num_start_points=1,
                                         gd_steps=20, rounding_period=10, seed=0)
        assert set(results) == {"bert"}
        assert set(results["bert"]) == {"baseline", "iterate", "softmax"}
        assert all(edp > 0 for edp in results["bert"].values())


class TestFig7:
    def test_traces_and_summary(self):
        results = fig7_cosearch.run(
            workloads=("bert",), num_start_points=1, gd_steps=30, rounding_period=15,
            random_hardware_designs=2, random_mappings_per_layer=10,
            bo_training_hardware=2, bo_mappings_per_layer=5, bo_candidates=3, seed=0)
        assert len(results) == 1
        result = results[0]
        assert result.dosa_edp > 0 and result.random_edp > 0 and result.bayesian_edp > 0
        assert result.trace("dosa") and result.trace("random")
        summary = fig7_cosearch.summarize(results)
        assert summary["geomean_vs_random"] > 0


class TestFig8:
    def test_all_accelerators_present(self):
        results = fig8_baselines.run(workloads=("bert",), mappings_per_layer=5,
                                     num_start_points=1, gd_steps=20,
                                     rounding_period=10, seed=0)
        names = set(results["bert"])
        assert names == {"Eyeriss", "NVDLA Small", "NVDLA Large", "Gemmini Default",
                         "Gemmini DOSA"}


class TestFig9:
    def test_summary_factors_positive(self):
        results = fig9_separation.run(workloads=("bert",), runs_per_workload=1,
                                      gd_steps=30, rounding_period=15,
                                      random_mappings_per_layer=5, seed=0)
        summary = fig9_separation.summarize(results)
        assert all(value > 0 for value in summary.values())


class TestFig10And11:
    def test_accuracies_in_valid_range(self):
        study = fig10_11_surrogate.run(samples_per_layer=2, training_epochs=40,
                                       dosa_workloads=("bert",), dosa_gd_steps=20,
                                       dosa_rounding_period=10, seed=0)
        for table in (study.random_mapping_accuracy, study.dosa_mapping_accuracy):
            assert set(table) == {"analytical", "dnn_only", "analytical_dnn"}
            assert all(-1.0 <= value <= 1.0 for value in table.values())


class TestFig12:
    def test_structure_and_table7(self):
        results = fig12_rtl.run(workloads=("bert",), samples_per_layer=2,
                                training_epochs=30, num_start_points=1,
                                gd_steps=20, rounding_period=10, seed=0)
        summary = fig12_rtl.summarize(results)
        assert set(summary) == {"analytical", "dnn_only", "analytical_dnn"}
        rows = fig12_rtl.table7_rows(results)
        assert rows[0][0] == "Gemmini Default"
        assert len(rows) == 2  # default + one workload
        # PE dimensions were fixed, so only buffer sizes may differ.
        for design in results["designs"]:
            assert design.hardware.pe_dim == 16

    def test_one_search_ranks_like_one_search_per_model(self):
        """Each latency model's pick from one search is the design a search
        ranked by that model returns (``oracles.latency_ranking``)."""
        simulator = RtlSimulator()
        dataset = generate_dataset(training_networks(), GEMMINI_DEFAULT,
                                   samples_per_layer=2, simulator=simulator, seed=0)
        training = TrainingSettings(epochs=30, seed=0)
        dnn_only, combined = DnnOnlyLatencyModel(seed=0), CombinedLatencyModel(seed=0)
        dnn_only.train(dataset, training)
        combined.train(dataset, training)
        models = [AnalyticalLatencyModel(), dnn_only, combined]
        # Seed 3 is one whose two rounding points the models rank differently.
        settings = DosaSettings(num_start_points=1, gd_steps=40, rounding_period=20,
                                fixed_pe_dim=GEMMINI_DEFAULT.pe_dim, seed=3)
        ranked = fig12_rtl.search_with_latency_models("bert", models, settings, simulator)
        oracle = search_per_model("bert", models, settings, simulator)
        assert [design.model_name for design in ranked] == \
            ["analytical", "dnn_only", "analytical_dnn"]
        for design, expected in zip(ranked, oracle):
            assert design.model_name == expected.model_name
            assert design.hardware == expected.hardware
            for mapping, other in zip(design.mappings, expected.mappings, strict=True):
                assert np.array_equal(mapping.temporal, other.temporal)
                assert np.array_equal(mapping.spatial, other.spatial)
                assert mapping.orderings == other.orderings
            assert design.edp == expected.edp
        assert len({design.edp for design in ranked}) > 1
