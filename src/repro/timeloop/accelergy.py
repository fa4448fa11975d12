"""Event-based energy estimation (the Accelergy/CACTI stand-in).

Energy is the sum of MAC energy plus, for every memory level, the number of
accesses times that level's energy-per-access from Table 2.  Matching the
behaviour the paper attributes to Timeloop/Accelergy, DRAM energy is charged
per 64-byte block: each tensor's DRAM traffic is rounded up to whole blocks
before being multiplied by the per-word energy, which is what produces the
small-layer discrepancy with the differentiable model (Section 4.6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.components import (
    LEVEL_DRAM,
    MEMORY_LEVEL_INDICES,
    PE_ENERGY_PER_MAC,
    level_energy_per_access,
)
from repro.arch.config import HardwareConfig
from repro.timeloop.loopnest import TrafficBreakdown
from repro.workloads.layer import TENSORS

# DRAM burst/block granularity in words (64-byte blocks of 8-bit words).
DRAM_BLOCK_WORDS = 64


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into compute and per-level memory contributions."""

    mac_energy: float
    level_energy: dict[int, float]

    @property
    def total(self) -> float:
        return self.mac_energy + sum(self.level_energy.values())


def _dram_accesses_block_rounded(traffic: TrafficBreakdown) -> float:
    """DRAM accesses with each tensor's traffic rounded up to whole blocks."""
    total = 0.0
    for tensor in TENSORS:
        words = traffic.tensor_traffic(LEVEL_DRAM, tensor)
        if words <= 0.0:
            continue
        total += math.ceil(words / DRAM_BLOCK_WORDS) * DRAM_BLOCK_WORDS
    return total


def energy_breakdown(traffic: TrafficBreakdown, hardware: HardwareConfig) -> EnergyBreakdown:
    """Energy of a mapping's traffic on ``hardware`` (Equation 13, ceil semantics)."""
    level_energy: dict[int, float] = {}
    for level in MEMORY_LEVEL_INDICES:
        if level == LEVEL_DRAM:
            accesses = _dram_accesses_block_rounded(traffic)
        else:
            accesses = traffic.accesses(level)
        level_energy[level] = accesses * level_energy_per_access(
            level, hardware.accumulator_kb, hardware.scratchpad_kb, hardware.num_pes)
    return EnergyBreakdown(
        mac_energy=traffic.macs * PE_ENERGY_PER_MAC,
        level_energy=level_energy,
    )
