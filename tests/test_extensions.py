"""Tests for the extension modules beyond the paper's core scope.

Covers the Timeloop-style mapping report, the first-order area model, how
close the heuristic and random mappers get to the exhaustive small-layer
optimum (the enumeration oracle in ``tests/oracles/exhaustive.py``), and the
additional workloads.
"""

import pytest

from repro.arch import GemminiSpec, HardwareConfig
from repro.arch.area import (
    AreaBreakdown,
    area_delay_product,
    estimate_area,
    fits_area_budget,
)
from repro.mapping import cosa_mapping, mapping_is_valid, random_mapping
from repro.timeloop import evaluate_mapping
from repro.timeloop.report import mapping_report
from repro.workloads import LayerDims, conv2d_layer, get_network

from oracles.exhaustive import (
    enumerate_mappings,
    exhaustive_best_mapping,
    mapspace_size,
)


class TestMappingReport:
    def test_report_matches_evaluation(self):
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        report = mapping_report(mapping, hardware)
        reference = evaluate_mapping(mapping, GemminiSpec(hardware))
        assert report.latency_cycles == pytest.approx(reference.latency_cycles)
        assert report.energy == pytest.approx(reference.energy)
        assert report.edp == pytest.approx(reference.edp)
        assert report.bound in ("compute", "memory")

    def test_occupancy_within_capacity_for_fitting_mapping(self):
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        report = mapping_report(mapping, hardware)
        for level in report.levels[:3]:  # on-chip levels
            assert 0.0 <= level.occupancy <= 1.0 + 1e-9

    def test_bandwidth_demand_bounded_by_availability(self):
        # The roofline latency is set by the most bandwidth-constrained level,
        # so no level's average demand can exceed its available bandwidth.
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        report = mapping_report(mapping, hardware)
        for level in report.levels:
            assert level.bandwidth_demand_words_per_cycle <= \
                level.bandwidth_available_words_per_cycle * (1 + 1e-9)

    def test_text_rendering_contains_all_levels(self):
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        text = mapping_report(mapping, hardware).to_text()
        for name in ("registers", "accumulator", "scratchpad", "dram"):
            assert name in text
        assert "EDP" in text

    def test_pe_utilization_range(self):
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        assert 0.0 < mapping_report(mapping, hardware).pe_utilization <= 1.0

    def test_invalid_mapping_is_refused(self):
        hardware = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), hardware)
        mapping.set_temporal(3, "P", 55)
        with pytest.raises(ValueError, match="cannot evaluate an invalid mapping: "
                                             "factors of dimension P multiply to"):
            mapping_report(mapping, hardware)


class TestAreaModel:
    def test_breakdown_sums_to_total(self):
        breakdown = estimate_area(HardwareConfig(16, 32, 128))
        manual = (breakdown.pe_array_mm2 + breakdown.accumulator_mm2
                  + breakdown.scratchpad_mm2 + breakdown.interconnect_mm2
                  + breakdown.dram_interface_mm2)
        assert breakdown.total_mm2 == pytest.approx(manual)

    def test_area_monotone_in_every_parameter(self):
        base = estimate_area(HardwareConfig(16, 32, 128)).total_mm2
        assert estimate_area(HardwareConfig(32, 32, 128)).total_mm2 > base
        assert estimate_area(HardwareConfig(16, 64, 128)).total_mm2 > base
        assert estimate_area(HardwareConfig(16, 32, 256)).total_mm2 > base

    def test_large_array_is_pe_dominated(self):
        assert estimate_area(HardwareConfig(128, 32, 128)).dominant_component() == "pe_array"

    def test_area_delay_product(self):
        config = HardwareConfig(16, 32, 128)
        assert area_delay_product(config, 1000.0) == pytest.approx(
            estimate_area(config).total_mm2 * 1000.0)
        with pytest.raises(ValueError):
            area_delay_product(config, 0.0)

    def test_fits_area_budget(self):
        config = HardwareConfig(16, 32, 128)
        total = estimate_area(config).total_mm2
        assert fits_area_budget(config, total * 1.01)
        assert not fits_area_budget(config, total * 0.99)
        with pytest.raises(ValueError):
            fits_area_budget(config, 0.0)

    def test_breakdown_is_dataclass_with_positive_entries(self):
        breakdown = estimate_area(HardwareConfig(4, 8, 16))
        assert isinstance(breakdown, AreaBreakdown)
        assert all(value > 0 for value in (
            breakdown.pe_array_mm2, breakdown.accumulator_mm2, breakdown.scratchpad_mm2,
            breakdown.interconnect_mm2, breakdown.dram_interface_mm2))


class TestExhaustiveOracle:
    TINY = LayerDims(R=1, S=1, P=4, Q=2, C=8, K=4, N=1, name="tiny")
    HARDWARE = HardwareConfig(4, 8, 16)

    @pytest.fixture(scope="class")
    def oracle(self):
        return exhaustive_best_mapping(self.TINY, self.HARDWARE)

    def test_mapspace_size_matches_enumeration(self):
        size = mapspace_size(self.TINY, orderings_per_level=3)
        enumerated = sum(1 for _ in enumerate_mappings(self.TINY, max_spatial=128))
        assert enumerated == size

    def test_enumerated_mappings_are_valid(self):
        sampled = 0
        for index, mapping in enumerate(enumerate_mappings(self.TINY, max_spatial=4)):
            if index % 97 == 0:  # spot-check a spread of the enumeration
                assert mapping_is_valid(mapping)
                sampled += 1
        assert sampled > 10

    def test_oracle_beats_or_matches_heuristics(self, oracle):
        spec = GemminiSpec(self.HARDWARE)
        cosa_edp = evaluate_mapping(cosa_mapping(self.TINY, self.HARDWARE), spec).edp
        random_edp = evaluate_mapping(
            random_mapping(self.TINY, seed=0, max_spatial=self.HARDWARE.pe_dim), spec).edp
        assert oracle.best_edp <= cosa_edp * (1 + 1e-9)
        assert oracle.best_edp <= random_edp * (1 + 1e-9)
        assert oracle.evaluated > 0

    def test_cosa_is_near_optimal_on_tiny_layer(self, oracle):
        # The heuristic mapper should land within an order of magnitude of the
        # true optimum on a problem this small.
        spec = GemminiSpec(self.HARDWARE)
        cosa_edp = evaluate_mapping(cosa_mapping(self.TINY, self.HARDWARE), spec).edp
        assert cosa_edp <= 10.0 * oracle.best_edp

    def test_refuses_huge_mapspaces(self):
        big = conv2d_layer(64, 64, 56)
        with pytest.raises(ValueError):
            exhaustive_best_mapping(big, HardwareConfig(16, 32, 128), max_candidates=1000)


class TestAdditionalWorkloads:
    def test_mobilenet_builds_with_depthwise_layers(self):
        network = get_network("mobilenet_v2")
        assert network.total_macs > 1e8
        depthwise = [layer for layer in network.layers if layer.C == 1 and layer.R == 3]
        assert depthwise and all(layer.repeats > 1 for layer in depthwise)

    def test_gpt2_decoder_builds(self):
        network = get_network("gpt2_decoder")
        assert all(layer.is_matmul for layer in network.layers)
        assert network.total_macs > 1e10

    def test_extra_networks_not_in_paper_workload_sets(self):
        from repro.workloads.networks import TARGET_WORKLOAD_NAMES, TRAINING_WORKLOAD_NAMES

        assert "mobilenet_v2" not in TARGET_WORKLOAD_NAMES + TRAINING_WORKLOAD_NAMES
        assert "gpt2_decoder" not in TARGET_WORKLOAD_NAMES + TRAINING_WORKLOAD_NAMES

    def test_cosa_maps_additional_workloads(self):
        hardware = HardwareConfig(16, 32, 128)
        for name in ("mobilenet_v2", "gpt2_decoder"):
            for layer in get_network(name).layers[:5]:
                assert mapping_is_valid(cosa_mapping(layer, hardware))
