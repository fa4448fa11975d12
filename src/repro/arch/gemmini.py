"""The Gemmini-style accelerator specification ("Gemmini-TL" in the paper).

:class:`GemminiSpec` ties a :class:`~repro.arch.config.HardwareConfig` to the
Table-2 bandwidth/energy model and the Table-4 bypass matrix, and answers the
per-level queries both performance models (the differentiable model and the
iterative reference model) need: capacity in words, bandwidth in words/cycle,
energy per access, and which tensors a level stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.components import (
    BYPASS_MATRIX,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
    PE_ENERGY_PER_MAC,
    level_bandwidth,
    level_energy_per_access,
)
from repro.arch.config import HardwareConfig


@dataclass(frozen=True)
class GemminiSpec:
    """A concrete Gemmini instance: hardware config + Table-2 cost model."""

    config: HardwareConfig

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def levels(self) -> tuple[int, ...]:
        """Memory level indices, innermost (registers) to outermost (DRAM)."""
        return MEMORY_LEVEL_INDICES

    def stores(self, level: int) -> frozenset[str]:
        """Tensors kept at ``level`` according to the bypass matrix."""
        return BYPASS_MATRIX[level]

    def holds(self, level: int, tensor: str) -> bool:
        return tensor in BYPASS_MATRIX[level]

    # ------------------------------------------------------------------ #
    # Capacities
    # ------------------------------------------------------------------ #
    def capacity_words(self, level: int) -> float:
        """Capacity of ``level`` in words; DRAM is effectively unbounded."""
        if level == LEVEL_REGISTERS:
            return float(self.config.register_words)
        if level == LEVEL_ACCUMULATOR:
            return float(self.config.accumulator_words)
        if level == LEVEL_SCRATCHPAD:
            return float(self.config.scratchpad_words)
        if level == LEVEL_DRAM:
            return float("inf")
        raise ValueError(f"unknown memory level {level}")

    # ------------------------------------------------------------------ #
    # Costs
    # ------------------------------------------------------------------ #
    @property
    def mac_energy(self) -> float:
        """Energy of a single multiply-accumulate operation."""
        return PE_ENERGY_PER_MAC

    def bandwidth(self, level: int) -> float:
        """Bandwidth of ``level`` in words per cycle (Table 2)."""
        return level_bandwidth(level, self.config.num_pes)

    def energy_per_access(self, level: int) -> float:
        """Energy per word access at ``level`` (Table 2)."""
        return level_energy_per_access(
            level,
            accumulator_kb=self.config.accumulator_kb,
            scratchpad_kb=self.config.scratchpad_kb,
            num_pes=self.config.num_pes,
        )

    def describe(self) -> str:
        lines = [f"Gemmini ({self.config.describe()})"]
        names = {0: "registers", 1: "accumulator", 2: "scratchpad", 3: "dram"}
        for level in self.levels:
            capacity = self.capacity_words(level)
            capacity_str = "inf" if capacity == float("inf") else f"{int(capacity)} words"
            lines.append(
                f"  L{level} {names[level]:<12} capacity={capacity_str:<16} "
                f"bw={self.bandwidth(level):.1f} words/cycle "
                f"epa={self.energy_per_access(level):.3f}"
            )
        return "\n".join(lines)


# The hand-tuned default Gemmini configuration (Section 6.5): 16x16 PEs,
# 32 KB accumulator, 128 KB scratchpad.
GEMMINI_DEFAULT = GemminiSpec(HardwareConfig(pe_dim=16, accumulator_kb=32, scratchpad_kb=128))
