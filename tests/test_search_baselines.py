"""Tests for the random-search and Bayesian-optimization baselines and the GP."""

import numpy as np
import pytest

from repro.arch import HardwareConfig
from repro.search import (
    BayesianSearcher,
    BayesianSettings,
    FixedHardwareMapperSearcher,
    FixedHardwareSettings,
    GaussianProcessRegressor,
    RandomSearcher,
    RandomSearchSettings,
)
from repro.mapping import mapping_fits_hardware, validate_mapping
from repro.workloads.layer import conv2d_layer, matmul_layer
from repro.workloads.networks import Network


def tiny_network() -> Network:
    return Network(name="tiny", layers=[
        conv2d_layer(32, 64, 14, name="conv"),
        matmul_layer(64, 128, 256, name="fc"),
    ])


class TestGaussianProcess:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(30, 2))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1]
        gp = GaussianProcessRegressor(length_scale=1.0, noise=1e-6).fit(x, y)
        predictions = gp.predict(x)
        assert np.max(np.abs(predictions - y)) < 0.05

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(length_scale=0.0)

    def test_fit_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    @staticmethod
    def _fitted_on_15_features() -> GaussianProcessRegressor:
        rng = np.random.default_rng(0)
        return GaussianProcessRegressor().fit(rng.normal(size=(20, 15)),
                                              rng.normal(size=20))

    def test_predict_rejects_one_dimensional_features(self):
        with pytest.raises(ValueError, match="2-D with 15 columns"):
            self._fitted_on_15_features().predict(np.zeros(15))

    def test_predict_rejects_a_width_other_than_the_training_width(self):
        # A single column would otherwise broadcast across all 15 features.
        with pytest.raises(ValueError, match=r"got shape \(4, 1\)"):
            self._fitted_on_15_features().predict(np.zeros((4, 1)))

class TestRandomSearcher:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            RandomSearchSettings(num_hardware_designs=0)

    def test_search_returns_feasible_design(self):
        settings = RandomSearchSettings(num_hardware_designs=3, mappings_per_layer=15, seed=0)
        outcome = RandomSearcher(tiny_network(), settings).search()
        assert outcome.method == "random"
        assert outcome.best_edp > 0
        assert len(outcome.best_mappings) == 2
        for mapping in outcome.best_mappings:
            assert validate_mapping(mapping) == []
        assert outcome.trace.total_samples > 0
        assert outcome.trace.points[-1].best_edp == pytest.approx(outcome.best_edp)

    def test_more_samples_never_hurts(self):
        small = RandomSearcher(tiny_network(),
                               RandomSearchSettings(2, 10, seed=1)).search()
        large = RandomSearcher(tiny_network(),
                               RandomSearchSettings(6, 10, seed=1)).search()
        assert large.best_edp <= small.best_edp * (1 + 1e-9)


class TestBayesianSearcher:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            BayesianSettings(num_training_hardware=0)

    def test_search_returns_feasible_design(self):
        settings = BayesianSettings(num_training_hardware=3, mappings_per_layer=8,
                                    num_candidates=5, candidate_mappings_per_layer=5, seed=0)
        outcome = BayesianSearcher(tiny_network(), settings).search()
        assert outcome.method == "bayesian"
        assert outcome.best_edp > 0
        assert len(outcome.best_mappings) == 2
        assert outcome.trace.total_samples > 0


def fixed_hardware_search(hardware: HardwareConfig, mappings_per_layer: int, seed: int):
    settings = FixedHardwareSettings(mappings_per_layer=mappings_per_layer, seed=seed)
    return FixedHardwareMapperSearcher(tiny_network(), settings, hardware=hardware).search()


class TestRandomMapperSearch:
    def test_mappings_fit_fixed_hardware(self):
        hardware = HardwareConfig(16, 32, 128)
        outcome = fixed_hardware_search(hardware, mappings_per_layer=20, seed=0)
        assert len(outcome.best_mappings) == 2
        assert outcome.best.performance.edp > 0
        for mapping in outcome.best_mappings:
            assert validate_mapping(mapping) == []
            assert mapping_fits_hardware(mapping, hardware)

    def test_rejects_zero_mappings(self):
        with pytest.raises(ValueError):
            FixedHardwareSettings(mappings_per_layer=0)

    def test_more_mappings_never_hurts(self):
        hardware = HardwareConfig(16, 32, 128)
        small = fixed_hardware_search(hardware, mappings_per_layer=5, seed=2)
        large = fixed_hardware_search(hardware, mappings_per_layer=40, seed=2)
        assert large.best_edp <= small.best_edp * (1 + 1e-9)
