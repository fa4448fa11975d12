"""Architectural components and the Table-2 bandwidth / energy model.

The accelerator under study has four memory levels (index ``i``):

====== ============= ===============================
Level  Component     Holds (bypass matrix, Table 4)
====== ============= ===============================
0      PE registers  Weights
1      Accumulator   Outputs / partial sums
2      Scratchpad    Weights, Inputs
3      DRAM          Weights, Inputs, Outputs
====== ============= ===============================

Bandwidths and energy-per-access (EPA) values follow Table 2 of the paper,
collected for a 40 nm process with Accelergy's Aladdin and CACTI plug-ins:

* PE MAC energy and register / DRAM access energy are constants per word.
* SRAM (accumulator, scratchpad) access energy scales with the SRAM capacity;
  the capacity terms ``C_i`` in the formulas are expressed in kilobytes so
  that the resulting magnitudes sit between register and DRAM energies, which
  is the behaviour the CACTI-derived table encodes.
"""

from __future__ import annotations

import math

# Memory level indices (paper Section 4.1).
LEVEL_REGISTERS = 0
LEVEL_ACCUMULATOR = 1
LEVEL_SCRATCHPAD = 2
LEVEL_DRAM = 3

MEMORY_LEVEL_INDICES: tuple[int, ...] = (
    LEVEL_REGISTERS,
    LEVEL_ACCUMULATOR,
    LEVEL_SCRATCHPAD,
    LEVEL_DRAM,
)

# Bypass matrix B (Table 4): which tensors each level stores.
BYPASS_MATRIX: dict[int, frozenset[str]] = {
    LEVEL_REGISTERS: frozenset({"W"}),
    LEVEL_ACCUMULATOR: frozenset({"O"}),
    LEVEL_SCRATCHPAD: frozenset({"W", "I"}),
    LEVEL_DRAM: frozenset({"W", "I", "O"}),
}

# Datawidths (bytes per word) used when converting word capacities to KB, as
# annotated in Figure 3 of the paper: 8-bit scratchpad words, 32-bit
# accumulator partial sums.
BYTES_PER_WORD: dict[int, int] = {
    LEVEL_REGISTERS: 1,
    LEVEL_ACCUMULATOR: 4,
    LEVEL_SCRATCHPAD: 1,
    LEVEL_DRAM: 1,
}

# Energy constants from Table 2 (values in the paper's energy unit).
PE_ENERGY_PER_MAC = 0.561
REGISTER_ENERGY_PER_ACCESS = 0.487
ACCUMULATOR_EPA_BASE = 1.94
ACCUMULATOR_EPA_SLOPE = 0.1005
SCRATCHPAD_EPA_BASE = 0.49
SCRATCHPAD_EPA_SLOPE = 0.025
DRAM_ENERGY_PER_ACCESS = 100.0

# Bandwidth constants from Table 2 (words per cycle).
DRAM_BANDWIDTH_WORDS_PER_CYCLE = 8.0


def accumulator_energy_per_access(capacity_kb: float, num_pes: float) -> float:
    """Accumulator SRAM energy per access: ``1.94 + 0.1005 * C1 / sqrt(C_PE)``."""
    if capacity_kb < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity_kb}")
    if num_pes <= 0:
        raise ValueError(f"PE count must be positive, got {num_pes}")
    return ACCUMULATOR_EPA_BASE + ACCUMULATOR_EPA_SLOPE * capacity_kb / math.sqrt(num_pes)


def scratchpad_energy_per_access(capacity_kb: float) -> float:
    """Scratchpad SRAM energy per access: ``0.49 + 0.025 * C2``."""
    if capacity_kb < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity_kb}")
    return SCRATCHPAD_EPA_BASE + SCRATCHPAD_EPA_SLOPE * capacity_kb


def level_energy_per_access(level: int, accumulator_kb: float,
                            scratchpad_kb: float, num_pes: float) -> float:
    """Energy per access at ``level`` for a hardware configuration (Table 2)."""
    if level == LEVEL_REGISTERS:
        return REGISTER_ENERGY_PER_ACCESS
    if level == LEVEL_ACCUMULATOR:
        return accumulator_energy_per_access(accumulator_kb, num_pes)
    if level == LEVEL_SCRATCHPAD:
        return scratchpad_energy_per_access(scratchpad_kb)
    if level == LEVEL_DRAM:
        return DRAM_ENERGY_PER_ACCESS
    raise ValueError(f"unknown memory level {level}")


def level_bandwidth(level: int, num_pes: float) -> float:
    """Bandwidth in words per cycle at ``level`` for ``num_pes`` processing elements.

    Table 2: registers read/write two words per PE per cycle, the SRAMs two
    words per systolic-array row/column per cycle, and DRAM a fixed eight
    words per cycle.
    """
    if num_pes <= 0:
        raise ValueError(f"PE count must be positive, got {num_pes}")
    if level == LEVEL_REGISTERS:
        return 2.0 * num_pes
    if level in (LEVEL_ACCUMULATOR, LEVEL_SCRATCHPAD):
        return 2.0 * math.sqrt(num_pes)
    if level == LEVEL_DRAM:
        return DRAM_BANDWIDTH_WORDS_PER_CYCLE
    raise ValueError(f"unknown memory level {level}")
