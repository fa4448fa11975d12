"""Tests for the reference (Timeloop/Accelergy stand-in) analytical model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import HardwareConfig, level_bandwidth
from repro.arch.components import MEMORY_LEVEL_INDICES
from repro.mapping import Mapping, cosa_mapping, random_mapping
from repro.timeloop import (
    analyze_traffic,
    energy_breakdown,
    evaluate_mapping,
    evaluate_network_mappings,
)
from repro.timeloop.accelergy import DRAM_BLOCK_WORDS
from repro.timeloop.loopnest import reload_factor, tile_words, total_macs
from repro.workloads import LayerDims, conv2d_layer, matmul_layer


def fig3_mapping() -> Mapping:
    layer = LayerDims(R=1, S=1, P=56, Q=56, C=64, K=64, N=1, name="fig3")
    mapping = Mapping(layer=layer)
    mapping.set_spatial(1, "C", 64)
    mapping.set_spatial(2, "K", 64)
    mapping.set_temporal(0, "Q", 14)
    mapping.set_temporal(3, "Q", 4)
    mapping.set_temporal(3, "P", 56)
    return mapping


class TestTrafficAnalysis:
    def test_macs(self):
        assert total_macs(fig3_mapping()) == pytest.approx(56 * 56 * 64 * 64)

    def test_fig3_tile_sizes(self):
        mapping = fig3_mapping()
        assert tile_words(mapping, 0, "W") == 4096
        assert tile_words(mapping, 1, "O") == 896
        assert tile_words(mapping, 2, "W") == 4096
        assert tile_words(mapping, 2, "I") == 896

    def test_fig3_traffic(self):
        traffic = analyze_traffic(fig3_mapping())
        # Weights fit entirely: loaded once into scratchpad and registers.
        assert traffic.writes[2]["W"] == pytest.approx(4096)
        assert traffic.writes[0]["W"] == pytest.approx(4096)
        # Inputs and outputs stream through exactly once.
        assert traffic.writes[2]["I"] == pytest.approx(56 * 56 * 64)
        assert traffic.updates[3]["O"] == pytest.approx(56 * 56 * 64)
        # No partial-sum spills: C is fully spatial.
        assert traffic.reads[3]["O"] == pytest.approx(0.0)
        # Each MAC reads its weight from the local register.
        assert traffic.reads[0]["W"] == pytest.approx(traffic.macs)
        # Input reads from the scratchpad are broadcast across the K columns.
        assert traffic.reads[2]["I"] == pytest.approx(traffic.macs / 64)

    def test_weight_reload_when_reduction_tiled_at_dram(self):
        layer = LayerDims(R=1, S=1, P=8, Q=8, C=32, K=32, N=1)
        mapping = Mapping(layer=layer)
        mapping.set_temporal(3, "P", 8)
        mapping.set_temporal(3, "Q", 8)
        mapping.set_temporal(3, "C", 32)
        mapping.set_temporal(3, "K", 32)
        # Output-stationary DRAM ordering: reduction loop C sits outside the
        # weight-relevant loops, so weights are refetched for every P/Q tile
        # that follows a relevant loop.
        reload_ws = reload_factor(mapping, 2, "W")
        assert reload_ws >= 32 * 32  # at least the C and K trip counts

    def test_partial_sum_spill_traffic(self):
        # Tile the reduction dimension C at DRAM while keeping outputs small:
        # output tiles are then revisited and must be spilled and refilled.
        layer = LayerDims(R=1, S=1, P=4, Q=4, C=64, K=4, N=1)
        mapping = Mapping(layer=layer)
        mapping.set_temporal(3, "C", 64)
        mapping.set_temporal(3, "P", 4)
        mapping.set_temporal(3, "Q", 4)
        mapping.set_temporal(3, "K", 4)
        traffic = analyze_traffic(mapping)
        assert traffic.reads[3]["O"] > 0
        assert traffic.writes[1]["O"] > 0

    def test_spatial_reduction_reduces_accumulator_updates(self):
        layer = LayerDims(R=1, S=1, P=8, Q=8, C=16, K=16, N=1)
        spatial = Mapping(layer=layer)
        spatial.set_spatial(1, "C", 16)
        spatial.set_temporal(3, "P", 8)
        spatial.set_temporal(3, "Q", 8)
        spatial.set_temporal(3, "K", 16)
        temporal = Mapping(layer=layer)
        temporal.set_temporal(3, "C", 16)
        temporal.set_temporal(3, "P", 8)
        temporal.set_temporal(3, "Q", 8)
        temporal.set_temporal(3, "K", 16)
        spatial_updates = analyze_traffic(spatial).updates[1]["O"]
        temporal_updates = analyze_traffic(temporal).updates[1]["O"]
        assert spatial_updates == pytest.approx(temporal_updates / 16)

    def test_accesses_sum_components(self):
        traffic = analyze_traffic(fig3_mapping())
        level2 = traffic.accesses(2)
        manual = (traffic.reads[2]["W"] + traffic.reads[2]["I"]
                  + traffic.writes[2]["W"] + traffic.writes[2]["I"])
        assert level2 == pytest.approx(manual)


class TestEvaluation:
    def test_fig3_latency_memory_bound(self):
        mapping = fig3_mapping()
        config = HardwareConfig(64, 4, 5)
        result = evaluate_mapping(mapping, config)
        # Memory-bound: some level's latency exceeds the compute latency.
        assert result.compute_latency < max(result.memory_latency.values())
        assert result.latency_cycles >= result.compute_latency
        assert result.compute_latency == pytest.approx(mapping.layer.macs / 4096)

    def test_invalid_mapping_rejected(self):
        mapping = fig3_mapping()
        mapping.set_temporal(3, "P", 55)
        with pytest.raises(ValueError, match="cannot evaluate an invalid mapping: "
                                             "factors of dimension P multiply to"):
            evaluate_mapping(mapping, HardwareConfig(64, 4, 5))

    def test_energy_increases_with_dram_epa_dominance(self):
        mapping = fig3_mapping()
        result = evaluate_mapping(mapping, HardwareConfig(64, 4, 5))
        breakdown = energy_breakdown(analyze_traffic(mapping), HardwareConfig(64, 4, 5))
        assert result.energy == pytest.approx(breakdown.total)
        # DRAM traffic dominates energy for this streaming layer.
        assert breakdown.level_energy[3] > breakdown.level_energy[2]

    def test_dram_block_rounding_penalizes_tiny_layers(self):
        tiny = matmul_layer(2, 3, 2)
        mapping = Mapping(layer=tiny)
        mapping.set_temporal(3, "P", 2)
        mapping.set_temporal(3, "C", 3)
        mapping.set_temporal(3, "K", 2)
        traffic = analyze_traffic(mapping)
        breakdown = energy_breakdown(traffic, HardwareConfig(4, 8, 8))
        raw_dram_words = sum(
            traffic.tensor_traffic(3, t) for t in ("W", "I", "O")
        )
        assert breakdown.level_energy[3] >= raw_dram_words * 100.0
        assert breakdown.level_energy[3] >= DRAM_BLOCK_WORDS * 100.0

    def test_no_level_demands_more_than_its_bandwidth(self):
        # The roofline latency is set by the most bandwidth-constrained level,
        # so no level's average demand can exceed its available bandwidth.
        config = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), config)
        latency = evaluate_mapping(mapping, config).latency_cycles
        traffic = analyze_traffic(mapping)
        for level in MEMORY_LEVEL_INDICES:
            bandwidth = level_bandwidth(level, config.num_pes)
            assert traffic.accesses(level) / latency <= bandwidth * (1 + 1e-9)

    def test_utilization_between_zero_and_one(self):
        # Utilization: the fraction of cycles the PE array does useful work.
        result = evaluate_mapping(fig3_mapping(), HardwareConfig(64, 4, 5))
        assert 0.0 < result.compute_latency / result.latency_cycles <= 1.0

    def test_more_parallelism_lowers_compute_latency(self):
        layer = conv2d_layer(64, 64, 28)
        config = HardwareConfig(32, 64, 256)
        serial = cosa_mapping(layer, HardwareConfig(1, 64, 256))
        parallel = cosa_mapping(layer, config)
        serial_result = evaluate_mapping(serial, config)
        parallel_result = evaluate_mapping(parallel, config)
        assert parallel_result.compute_latency < serial_result.compute_latency

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 5_000))
    def test_random_mappings_produce_finite_positive_results(self, seed):
        layer = conv2d_layer(64, 128, 14)
        mapping = random_mapping(layer, seed=seed, max_spatial=32)
        result = evaluate_mapping(mapping, HardwareConfig(32, 64, 256))
        assert math.isfinite(result.latency_cycles) and result.latency_cycles > 0
        assert math.isfinite(result.energy) and result.energy > 0
        assert result.edp == pytest.approx(result.latency_cycles * result.energy)

    def test_macs_invariant_under_mapping_choice(self):
        layer = conv2d_layer(32, 64, 14)
        config = HardwareConfig(16, 32, 128)
        macs = {evaluate_mapping(random_mapping(layer, seed=s, max_spatial=16),
                                 config).macs for s in range(5)}
        assert all(m == pytest.approx(layer.macs) for m in macs)


class TestNetworkEvaluation:
    def test_repeats_scale_totals(self):
        layer = conv2d_layer(32, 32, 14, repeats=3)
        config = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(layer, config)
        single = evaluate_mapping(mapping, config)
        network = evaluate_network_mappings([mapping], config)
        assert network.total_latency == pytest.approx(3 * single.latency_cycles)
        assert network.total_energy == pytest.approx(3 * single.energy)

    def test_edp_is_product_of_sums(self):
        config = HardwareConfig(16, 32, 128)
        layers = [conv2d_layer(32, 32, 14), matmul_layer(64, 256, 128)]
        mappings = [cosa_mapping(l, config) for l in layers]
        network = evaluate_network_mappings(mappings, config)
        assert network.edp == pytest.approx(network.total_latency * network.total_energy)

    def test_empty_mappings_rejected(self):
        with pytest.raises(ValueError):
            evaluate_network_mappings([], HardwareConfig(16, 32, 128))
