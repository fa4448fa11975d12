"""Tests for the DOSA one-loop searcher and start-point generation."""

import pytest

from repro.core.optimizer import (
    DosaSearcher,
    DosaSettings,
    LoopOrderingStrategy,
    SearchTrace,
    generate_start_points,
)
from repro.mapping import mapping_fits_hardware, validate_mapping
from repro.workloads.networks import Network
from repro.workloads.layer import conv2d_layer, matmul_layer

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_network() -> Network:
    return Network(name="tiny", layers=[
        conv2d_layer(64, 64, 28, name="conv", repeats=2),
        matmul_layer(196, 256, 512, name="fc"),
    ])


class TestSettings:
    def test_defaults_match_paper(self):
        settings = DosaSettings()
        assert settings.num_start_points == 7
        assert settings.rejection_threshold == 10.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DosaSettings(num_start_points=0)
        with pytest.raises(ValueError):
            DosaSettings(gd_steps=0)
        with pytest.raises(ValueError):
            DosaSettings(rounding_period=0)

    def test_strategy_coercion(self):
        assert DosaSettings(ordering_strategy="softmax").ordering_strategy \
            is LoopOrderingStrategy.SOFTMAX


class TestStartPoints:
    def test_generates_requested_count(self):
        points = generate_start_points(small_network(), count=3, seed=0)
        assert len(points) == 3
        for point in points:
            assert len(point.mappings) == 2
            assert point.predicted_edp > 0
            for mapping in point.mappings:
                assert validate_mapping(mapping) == []
                assert mapping_fits_hardware(mapping, point.hardware)

    def test_fixed_pe_dim(self):
        points = generate_start_points(small_network(), count=2, seed=0, fixed_pe_dim=16)
        assert all(p.hardware.pe_dim == 16 for p in points)

    def test_rejection_threshold_bounds_spread(self):
        points = generate_start_points(small_network(), count=5, seed=1,
                                       rejection_threshold=10.0)
        best = min(p.predicted_edp for p in points)
        # Rejection resamples candidates worse than 10x the best seen so far;
        # the accepted spread can exceed 10x only through later improvements,
        # so a loose bound of 100x is a safe invariant.
        assert max(p.predicted_edp for p in points) <= 100.0 * best

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            generate_start_points(small_network(), count=0)


class TestSearchTrace:
    def test_best_after(self):
        trace = SearchTrace()
        trace.record(10, 100.0)
        trace.record(20, 50.0)
        trace.record(30, 80.0)  # clamped to the running best (50.0)
        assert trace.as_pairs() == [(10, 100.0), (20, 50.0), (30, 50.0)]
        assert trace.total_samples == 30


class TestDosaSearcher:
    @pytest.fixture(scope="class")
    def search_result(self):
        settings = DosaSettings(num_start_points=2, gd_steps=60, rounding_period=30, seed=0)
        return DosaSearcher(small_network(), settings).search()

    def test_result_structure(self, search_result):
        assert search_result.method == "dosa"
        assert search_result.network == "tiny"
        assert search_result.best_edp > 0
        assert len(search_result.best.mappings) == 2
        assert len(search_result.extras["start_points"]) == 2
        assert len(search_result.candidates) >= 2
        assert search_result.trace.total_samples > 0
        assert search_result.wall_time_seconds > 0

    def test_best_mappings_are_valid_and_fit_best_hardware(self, search_result):
        for mapping in search_result.best.mappings:
            assert validate_mapping(mapping) == []
            assert mapping_fits_hardware(mapping, search_result.best.hardware)

    def test_best_is_minimum_of_candidates(self, search_result):
        assert search_result.best_edp == pytest.approx(
            min(c.edp for c in search_result.candidates))

    def test_trace_is_monotone_nonincreasing(self, search_result):
        best_values = [p.best_edp for p in search_result.trace.points]
        assert all(later <= earlier * (1 + 1e-12)
                   for earlier, later in zip(best_values, best_values[1:]))

    def test_search_improves_over_start_points(self):
        settings = DosaSettings(num_start_points=1, gd_steps=300, rounding_period=100,
                                learning_rate=0.05, seed=3)
        result = DosaSearcher(small_network(), settings).search()
        from repro.arch import GemminiSpec
        from repro.timeloop import evaluate_network_mappings

        start = result.extras["start_points"][0]
        start_edp = evaluate_network_mappings(start.mappings, GemminiSpec(start.hardware)).edp
        assert result.best_edp < start_edp

    def test_fixed_pe_dim_respected(self):
        settings = DosaSettings(num_start_points=1, gd_steps=40, rounding_period=20,
                                fixed_pe_dim=16, seed=0)
        result = DosaSearcher(small_network(), settings).search()
        assert result.best.hardware.pe_dim == 16
        for mapping in result.best.mappings:
            assert mapping.spatial_factor(1, "C") <= 16
            assert mapping.spatial_factor(2, "K") <= 16

    def test_softmax_strategy_runs(self):
        settings = DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10,
                                ordering_strategy=LoopOrderingStrategy.SOFTMAX, seed=0)
        result = DosaSearcher(small_network(), settings).search()
        assert result.best_edp > 0

    def test_latency_adjuster_changes_scores(self):
        settings = DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10, seed=0)
        plain = DosaSearcher(small_network(), settings).search()

        def doubling_adjuster(mappings, hardware):
            from repro.arch import GemminiSpec
            from repro.timeloop import evaluate_mapping

            return [2.0 * evaluate_mapping(m, GemminiSpec(hardware)).latency_cycles
                    for m in mappings]

        settings2 = DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10, seed=0)
        adjusted = DosaSearcher(small_network(), settings2,
                                latency_adjuster=doubling_adjuster).search()
        assert adjusted.best_edp == pytest.approx(2.0 * plain.best_edp, rel=0.2)

    def test_latency_adjuster_length_mismatch_raises(self):
        settings = DosaSettings(num_start_points=1, gd_steps=10, rounding_period=5, seed=0)
        searcher = DosaSearcher(small_network(), settings,
                                latency_adjuster=lambda mappings, hw: [1.0])
        with pytest.raises(ValueError):
            searcher.search()

    def test_repeated_layers_scale_objective(self, search_result):
        performance = search_result.best.performance
        # The conv layer repeats twice; total latency must exceed the largest
        # single-layer latency, confirming repetition-aware aggregation.
        assert performance.total_latency > max(
            r.latency_cycles for r in performance.per_layer)
