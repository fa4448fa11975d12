"""Accelerator architecture descriptions.

Encodes the Gemmini-style accelerator studied by the paper: a square
weight-stationary systolic array of processing elements backed by per-PE
registers, an accumulator SRAM, a scratchpad SRAM and DRAM (Table 2), with the
tensor-to-level bypass matrix of Table 4.  Also provides the expert-designed
baseline configurations used in Figure 8 and the minimal-hardware derivation
of Section 4.1 / Figure 3.
"""

from repro.arch.components import (
    LEVEL_REGISTERS,
    LEVEL_ACCUMULATOR,
    LEVEL_SCRATCHPAD,
    LEVEL_DRAM,
    BYPASS_MATRIX,
    PE_ENERGY_PER_MAC,
    DRAM_ENERGY_PER_ACCESS,
    REGISTER_ENERGY_PER_ACCESS,
    accumulator_energy_per_access,
    scratchpad_energy_per_access,
    level_bandwidth,
    level_energy_per_access,
)
from repro.arch.config import (
    HardwareConfig,
    HardwareBounds,
    DEFAULT_BOUNDS,
    GEMMINI_DEFAULT,
    minimal_hardware_for_requirements,
    merge_hardware_configs,
    random_hardware_config,
)
from repro.arch.baselines import (
    BaselineAccelerator,
    EYERISS,
    NVDLA_SMALL,
    NVDLA_LARGE,
    GEMMINI_DEFAULT_BASELINE,
    baseline_accelerators,
)

__all__ = [
    "LEVEL_REGISTERS",
    "LEVEL_ACCUMULATOR",
    "LEVEL_SCRATCHPAD",
    "LEVEL_DRAM",
    "BYPASS_MATRIX",
    "PE_ENERGY_PER_MAC",
    "DRAM_ENERGY_PER_ACCESS",
    "REGISTER_ENERGY_PER_ACCESS",
    "accumulator_energy_per_access",
    "scratchpad_energy_per_access",
    "level_bandwidth",
    "level_energy_per_access",
    "HardwareConfig",
    "HardwareBounds",
    "DEFAULT_BOUNDS",
    "GEMMINI_DEFAULT",
    "minimal_hardware_for_requirements",
    "merge_hardware_configs",
    "random_hardware_config",
    "BaselineAccelerator",
    "EYERISS",
    "NVDLA_SMALL",
    "NVDLA_LARGE",
    "GEMMINI_DEFAULT_BASELINE",
    "baseline_accelerators",
]
