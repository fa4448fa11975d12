"""Tests for the architecture package: Table-2 cost model, configs, baselines."""

import pytest
from hypothesis import given, strategies as st

from repro.arch import (
    BYPASS_MATRIX,
    DRAM_ENERGY_PER_ACCESS,
    EYERISS,
    GEMMINI_DEFAULT,
    GEMMINI_DEFAULT_BASELINE,
    NVDLA_LARGE,
    NVDLA_SMALL,
    HardwareBounds,
    HardwareConfig,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    PE_ENERGY_PER_MAC,
    REGISTER_ENERGY_PER_ACCESS,
    accumulator_energy_per_access,
    baseline_accelerators,
    level_bandwidth,
    level_energy_per_access,
    merge_hardware_configs,
    minimal_hardware_for_requirements,
    random_hardware_config,
    scratchpad_energy_per_access,
)


class TestTable2EnergyModel:
    def test_constants(self):
        assert PE_ENERGY_PER_MAC == pytest.approx(0.561)
        assert REGISTER_ENERGY_PER_ACCESS == pytest.approx(0.487)
        assert DRAM_ENERGY_PER_ACCESS == pytest.approx(100.0)

    def test_accumulator_epa_formula(self):
        # 1.94 + 0.1005 * C1 / sqrt(C_PE) with C1 = 32 KB, 256 PEs.
        assert accumulator_energy_per_access(32, 256) == pytest.approx(1.94 + 0.1005 * 2.0)

    def test_scratchpad_epa_formula(self):
        assert scratchpad_energy_per_access(128) == pytest.approx(0.49 + 0.025 * 128)

    def test_sram_epa_grows_with_capacity(self):
        assert scratchpad_energy_per_access(256) > scratchpad_energy_per_access(64)
        assert accumulator_energy_per_access(64, 256) > accumulator_energy_per_access(16, 256)

    def test_epa_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            scratchpad_energy_per_access(-1)

    def test_bandwidths(self):
        assert level_bandwidth(LEVEL_REGISTERS, 256) == pytest.approx(512)
        assert level_bandwidth(LEVEL_ACCUMULATOR, 256) == pytest.approx(32)
        assert level_bandwidth(LEVEL_SCRATCHPAD, 256) == pytest.approx(32)
        assert level_bandwidth(LEVEL_DRAM, 256) == pytest.approx(8)

    def test_bypass_matrix_matches_table4(self):
        assert BYPASS_MATRIX[LEVEL_REGISTERS] == {"W"}
        assert BYPASS_MATRIX[LEVEL_ACCUMULATOR] == {"O"}
        assert BYPASS_MATRIX[LEVEL_SCRATCHPAD] == {"W", "I"}
        assert BYPASS_MATRIX[LEVEL_DRAM] == {"W", "I", "O"}


class TestHardwareConfig:
    def test_word_capacities(self):
        config = HardwareConfig(pe_dim=8, accumulator_kb=16, scratchpad_kb=64)
        assert config.num_pes == 64
        assert config.accumulator_words == 16 * 1024 // 4
        assert config.scratchpad_words == 64 * 1024
        assert config.register_words == 64

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            HardwareConfig(pe_dim=0, accumulator_kb=1, scratchpad_kb=1)

    def test_describe_mentions_sizes(self):
        text = HardwareConfig(8, 16, 64).describe()
        assert "8x8" in text and "16KB" in text and "64KB" in text

    def test_minimal_hardware_rounds_up(self):
        config = minimal_hardware_for_requirements(
            spatial_requirement=13.2,
            accumulator_word_requirement=900,     # 3600 bytes -> 4 KB
            scratchpad_word_requirement=5000,     # 5000 bytes -> 5 KB
        )
        assert config.pe_dim == 14
        assert config.accumulator_kb == 4
        assert config.scratchpad_kb == 5

    def test_minimal_hardware_respects_caps(self):
        bounds = HardwareBounds(max_pe_dim=32, max_accumulator_kb=64, max_scratchpad_kb=64)
        config = minimal_hardware_for_requirements(1000, 1e9, 1e9, bounds=bounds)
        assert config.pe_dim == 32
        assert config.accumulator_kb == 64
        assert config.scratchpad_kb == 64

    def test_merge_is_parameterwise_max(self):
        merged = merge_hardware_configs([
            HardwareConfig(8, 64, 32),
            HardwareConfig(32, 16, 128),
        ])
        assert merged == HardwareConfig(32, 64, 128)

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_hardware_configs([])

    @given(st.integers(0, 10_000))
    def test_random_config_is_valid(self, seed):
        config = random_hardware_config(seed=seed)
        assert 1 <= config.pe_dim <= 128
        assert config.accumulator_kb >= 1
        assert config.scratchpad_kb >= 1


class TestGemminiSpec:
    """The Gemmini default design point (Section 6.5) and its Table-2 costs."""

    def test_default_matches_paper(self):
        assert GEMMINI_DEFAULT == HardwareConfig(pe_dim=16, accumulator_kb=32,
                                                 scratchpad_kb=128)

    def test_capacities(self):
        assert GEMMINI_DEFAULT.register_words == 256
        assert GEMMINI_DEFAULT.accumulator_words == 8192
        assert GEMMINI_DEFAULT.scratchpad_words == 131072

    def test_describe(self):
        assert "scratchpad" in GEMMINI_DEFAULT.describe()

    def test_energy_ordering_register_cheapest_dram_most_expensive(self):
        epas = [level_energy_per_access(level, GEMMINI_DEFAULT.accumulator_kb,
                                        GEMMINI_DEFAULT.scratchpad_kb, GEMMINI_DEFAULT.num_pes)
                for level in (LEVEL_REGISTERS, LEVEL_ACCUMULATOR, LEVEL_SCRATCHPAD, LEVEL_DRAM)]
        assert epas[0] < epas[-1]
        assert max(epas) == epas[-1]


class TestBaselines:
    def test_four_baselines(self):
        names = [b.name for b in baseline_accelerators()]
        assert names == ["Eyeriss", "NVDLA Small", "NVDLA Large", "Gemmini Default"]

    def test_nvdla_large_is_biggest_array(self):
        assert NVDLA_LARGE.config.num_pes > NVDLA_SMALL.config.num_pes
        assert NVDLA_LARGE.config.num_pes > EYERISS.config.num_pes

    def test_gemmini_default_baseline_matches_spec(self):
        assert GEMMINI_DEFAULT_BASELINE.config is GEMMINI_DEFAULT
