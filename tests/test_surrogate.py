"""Tests for the RTL simulator, dataset generation and learned latency models."""

import numpy as np
import pytest

from repro.arch import HardwareConfig
from repro.mapping import cosa_mapping, random_mapping
from repro.surrogate import (
    AnalyticalLatencyModel,
    CombinedLatencyModel,
    DnnOnlyLatencyModel,
    FEATURE_SIZE,
    LatencyPredictorDNN,
    RtlSimSettings,
    RtlSimulator,
    TrainingSettings,
    encode_features,
    generate_dataset,
    train_test_split,
)
from repro.surrogate.combined import evaluate_model_accuracy
from repro.timeloop import evaluate_mapping
from repro.workloads import conv2d_layer, get_network
from repro.workloads.networks import Network

HARDWARE = HardwareConfig(16, 32, 128)


def mean_absolute_percentage_error(model, samples) -> float:
    """MAPE of ``model``'s predicted latency against the RTL latency."""
    return float(np.mean([abs(model.latency(s.mapping, s.hardware) - s.rtl_latency)
                          / s.rtl_latency for s in samples]))


def small_training_networks() -> list[Network]:
    return [Network(name="mini", layers=get_network("alexnet").layers[:4])]


class TestRtlSimulator:
    def test_rtl_latency_exceeds_analytical(self):
        simulator = RtlSimulator()
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HARDWARE)
        analytical = evaluate_mapping(mapping, HARDWARE).latency_cycles
        rtl = simulator.latency(mapping, HARDWARE)
        # Overheads are additive and jitter is bounded to +/-8%, so the RTL
        # latency cannot fall far below the analytical roofline.
        assert rtl > analytical * 0.9
        assert rtl < analytical * 10.0

    def test_deterministic(self):
        simulator = RtlSimulator()
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HARDWARE)
        assert simulator.latency(mapping, HARDWARE) == simulator.latency(mapping, HARDWARE)

    def test_depends_on_mapping(self):
        simulator = RtlSimulator()
        layer = conv2d_layer(64, 64, 28)
        a = simulator.latency(cosa_mapping(layer, HARDWARE), HARDWARE)
        b = simulator.latency(random_mapping(layer, seed=3, max_spatial=16), HARDWARE)
        assert a != b

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            RtlSimSettings(jitter_amplitude=1.5)
        with pytest.raises(ValueError):
            RtlSimSettings(dram_burst_words=0)

    def test_low_utilization_penalized(self):
        layer = conv2d_layer(64, 64, 28)
        simulator = RtlSimulator()
        parallel = cosa_mapping(layer, HARDWARE)
        serial = cosa_mapping(layer, HardwareConfig(1, 32, 128))

        def rtl_over_analytical(mapping):
            return (simulator.latency(mapping, HARDWARE)
                    / evaluate_mapping(mapping, HARDWARE).latency_cycles)

        assert rtl_over_analytical(serial) > rtl_over_analytical(parallel)


class TestFeaturesAndDataset:
    def test_feature_size(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HARDWARE)
        assert encode_features(mapping, HARDWARE).shape == (FEATURE_SIZE,)

    def test_features_distinguish_mappings(self):
        layer = conv2d_layer(64, 64, 28)
        a = encode_features(cosa_mapping(layer, HARDWARE), HARDWARE)
        b = encode_features(random_mapping(layer, seed=1, max_spatial=16), HARDWARE)
        assert not np.allclose(a, b)

    def test_generate_dataset_counts(self):
        dataset = generate_dataset(small_training_networks(), HARDWARE,
                                   samples_per_layer=3, seed=0)
        assert len(dataset) == 4 * 3
        for sample in dataset:
            assert sample.analytical_latency > 0
            assert sample.rtl_latency > 0
            assert np.isfinite(sample.log_ratio)

    def test_train_test_split(self):
        dataset = generate_dataset(small_training_networks(), HARDWARE,
                                   samples_per_layer=3, seed=0)
        train, test = train_test_split(dataset, test_fraction=0.25, seed=0)
        assert len(train) + len(test) == len(dataset)
        assert len(test) == round(len(dataset) * 0.25)

    def test_split_validation(self):
        dataset = generate_dataset(small_training_networks(), HARDWARE,
                                   samples_per_layer=1, seed=0)
        with pytest.raises(ValueError):
            train_test_split(dataset, test_fraction=1.5)


class TestLatencyPredictors:
    @pytest.fixture(scope="class")
    def dataset(self):
        networks = [Network(name="mini", layers=get_network("alexnet").layers)]
        return generate_dataset(networks, HARDWARE, samples_per_layer=12, seed=0)

    def test_parameter_count_near_paper(self):
        predictor = LatencyPredictorDNN()
        # Paper: 7 hidden layers, 5737 parameters; our encoding lands nearby.
        assert 2000 < predictor.num_parameters < 9000
        assert len(predictor.network.layers) == 8

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            LatencyPredictorDNN(mode="hybrid")

    def test_predict_before_train_raises(self):
        predictor = LatencyPredictorDNN()
        with pytest.raises(RuntimeError):
            predictor.predict_latency(np.zeros(FEATURE_SIZE), 1.0)

    def test_training_reduces_loss(self, dataset):
        train, _ = train_test_split(dataset, seed=0)
        predictor = LatencyPredictorDNN(mode="difference", seed=0)
        losses = predictor.train(train, TrainingSettings(epochs=120, seed=0))
        assert losses[-1] < losses[0]

    def test_combined_model_learns_the_rtl_gap(self, dataset):
        # The analytical model systematically underestimates RTL latency (the
        # simulator only adds overheads); a trained difference model must
        # close most of that gap on the data it was fitted to, and not be
        # meaningfully worse than the analytical model on held-out mappings.
        train, test = train_test_split(dataset, seed=0)
        combined = CombinedLatencyModel(seed=0)
        combined.train(train, TrainingSettings(epochs=300, seed=0))
        analytical = AnalyticalLatencyModel()
        assert mean_absolute_percentage_error(combined, train) < \
            0.5 * mean_absolute_percentage_error(analytical, train)
        assert mean_absolute_percentage_error(combined, test) < \
            1.2 * mean_absolute_percentage_error(analytical, test)

    def test_all_models_have_positive_rank_correlation(self, dataset):
        train, test = train_test_split(dataset, seed=0)
        settings = TrainingSettings(epochs=250, seed=0)
        dnn_only = DnnOnlyLatencyModel(seed=0)
        dnn_only.train(train, settings)
        combined = CombinedLatencyModel(seed=0)
        combined.train(train, settings)
        for model in (AnalyticalLatencyModel(), dnn_only, combined):
            assert evaluate_model_accuracy(model, test) > 0.5

    def test_model_names_are_distinct(self):
        names = {AnalyticalLatencyModel.name, DnnOnlyLatencyModel.name,
                 CombinedLatencyModel.name}
        assert len(names) == 3
