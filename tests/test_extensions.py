"""Tests for the extensions beyond the paper's core scope.

Covers a per-level view of one fitting CoSA mapping (its on-chip occupancy
and the refusal of an invalid mapping), how close the heuristic and random
mappers get to the exhaustive small-layer optimum (the enumeration oracle in
``tests/oracles/exhaustive.py``) and the additional workloads.
"""

import pytest

from repro.arch import HardwareConfig
from repro.arch.components import LEVEL_ACCUMULATOR, LEVEL_REGISTERS, LEVEL_SCRATCHPAD
from repro.mapping import (
    capacity_requirements,
    cosa_mapping,
    random_mapping,
    validate_mapping,
)
from repro.mapping.constraints import factor_stacks, fits_hardware_arrays
from repro.timeloop import evaluate_mapping
from repro.workloads import LayerDims, conv2d_layer, get_network

from oracles.exhaustive import (
    enumerate_mappings,
    exhaustive_best_mapping,
    mapspace_size,
)


class TestMappingReport:
    """Per-level facts about one fitting CoSA mapping, read from the tile-word
    kernel and ``evaluate_mapping``."""

    HARDWARE = HardwareConfig(16, 32, 128)

    def _mapping(self):
        return cosa_mapping(conv2d_layer(64, 64, 28), self.HARDWARE)

    def test_occupancy_within_capacity_for_fitting_mapping(self):
        mapping = self._mapping()
        assert fits_hardware_arrays(*factor_stacks([mapping]), self.HARDWARE).all()
        capacity = {LEVEL_REGISTERS: self.HARDWARE.register_words,
                    LEVEL_ACCUMULATOR: self.HARDWARE.accumulator_words,
                    LEVEL_SCRATCHPAD: self.HARDWARE.scratchpad_words}
        required = capacity_requirements(mapping)
        for level in capacity:
            assert 0.0 <= required[level] / capacity[level] <= 1.0 + 1e-9

    def test_invalid_mapping_is_refused(self):
        mapping = self._mapping()
        mapping.set_temporal(3, "P", 55)
        with pytest.raises(ValueError, match="cannot evaluate an invalid mapping: "
                                             "factors of dimension P multiply to"):
            evaluate_mapping(mapping, self.HARDWARE)


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
                assert validate_mapping(mapping) == []
                sampled += 1
        assert sampled > 10

    def test_oracle_beats_or_matches_heuristics(self, oracle):
        cosa_edp = evaluate_mapping(cosa_mapping(self.TINY, self.HARDWARE), self.HARDWARE).edp
        random_edp = evaluate_mapping(
            random_mapping(self.TINY, seed=0, max_spatial=self.HARDWARE.pe_dim),
            self.HARDWARE).edp
        assert oracle.best_edp <= cosa_edp * (1 + 1e-9)
        assert oracle.best_edp <= random_edp * (1 + 1e-9)
        assert oracle.evaluated > 0

    def test_cosa_is_near_optimal_on_tiny_layer(self, oracle):
        # The heuristic mapper should land within an order of magnitude of the
        # true optimum on a problem this small.
        cosa_edp = evaluate_mapping(cosa_mapping(self.TINY, self.HARDWARE), self.HARDWARE).edp
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
        assert all(layer.R == layer.S == layer.stride_p == layer.stride_q == 1
                   for layer in network.layers)
        assert network.total_macs > 1e10

    def test_extra_networks_not_in_paper_workload_sets(self):
        from repro.workloads.networks import TARGET_WORKLOAD_NAMES, TRAINING_WORKLOAD_NAMES

        assert "mobilenet_v2" not in TARGET_WORKLOAD_NAMES + TRAINING_WORKLOAD_NAMES
        assert "gpt2_decoder" not in TARGET_WORKLOAD_NAMES + TRAINING_WORKLOAD_NAMES

    def test_cosa_maps_additional_workloads(self):
        hardware = HardwareConfig(16, 32, 128)
        for name in ("mobilenet_v2", "gpt2_decoder"):
            for layer in get_network(name).layers[:5]:
                assert validate_mapping(cosa_mapping(layer, hardware)) == []
