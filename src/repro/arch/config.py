"""Hardware configurations and the minimal-hardware derivation.

A DOSA hardware design point is fully described by three parameters
(Section 6.1): the systolic-array side length (``pe_dim``, so the number of
PEs is ``pe_dim**2``), the accumulator SRAM capacity, and the scratchpad SRAM
capacity.  The mapping-first flow never samples these directly — instead it
computes, for a set of per-layer mappings, the *minimal* configuration able to
run all of them (Figure 3): the PE array comes from the spatial tiling
factors, and each SRAM is sized to the largest per-layer tile it must hold,
rounded up to 1 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.arch.components import (
    BYTES_PER_WORD,
    LEVEL_ACCUMULATOR,
    LEVEL_SCRATCHPAD,
)
from repro.utils.math_utils import round_up_to_multiple
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class HardwareBounds:
    """Legal ranges for the searched hardware parameters."""

    max_pe_dim: int = 128          # paper: PE array size capped at 128x128
    min_pe_dim: int = 1
    max_accumulator_kb: int = 1024
    max_scratchpad_kb: int = 4096
    sram_granularity_kb: int = 1   # paper: SRAM sizes rounded up to 1 KB

    def __post_init__(self) -> None:
        if self.min_pe_dim < 1 or self.max_pe_dim < self.min_pe_dim:
            raise ValueError("invalid PE dimension bounds")
        if self.max_accumulator_kb < 1 or self.max_scratchpad_kb < 1:
            raise ValueError("SRAM bounds must be at least 1 KB")
        if self.sram_granularity_kb < 1:
            raise ValueError("SRAM granularity must be at least 1 KB")


DEFAULT_BOUNDS = HardwareBounds()


@dataclass(frozen=True)
class HardwareConfig:
    """One hardware design point: PE array side and SRAM capacities in KB."""

    pe_dim: int
    accumulator_kb: int
    scratchpad_kb: int

    def __post_init__(self) -> None:
        if self.pe_dim < 1:
            raise ValueError(f"pe_dim must be >= 1, got {self.pe_dim}")
        if self.accumulator_kb < 1:
            raise ValueError(f"accumulator_kb must be >= 1, got {self.accumulator_kb}")
        if self.scratchpad_kb < 1:
            raise ValueError(f"scratchpad_kb must be >= 1, got {self.scratchpad_kb}")

    # ------------------------------------------------------------------ #
    @property
    def num_pes(self) -> int:
        """Total number of processing elements (square array)."""
        return self.pe_dim * self.pe_dim

    @property
    def accumulator_words(self) -> int:
        """Accumulator capacity in (32-bit) words."""
        return self.accumulator_kb * 1024 // BYTES_PER_WORD[LEVEL_ACCUMULATOR]

    @property
    def scratchpad_words(self) -> int:
        """Scratchpad capacity in (8-bit) words."""
        return self.scratchpad_kb * 1024 // BYTES_PER_WORD[LEVEL_SCRATCHPAD]

    @property
    def register_words(self) -> int:
        """Per-array register capacity in words (one stationary weight per PE)."""
        return self.num_pes

    def describe(self) -> str:
        return (
            f"pe_array={self.pe_dim}x{self.pe_dim} "
            f"accumulator={self.accumulator_kb}KB scratchpad={self.scratchpad_kb}KB"
        )


# The hand-tuned default Gemmini design (Section 6.5): 16x16 PEs, 32 KB
# accumulator, 128 KB scratchpad.
GEMMINI_DEFAULT = HardwareConfig(pe_dim=16, accumulator_kb=32, scratchpad_kb=128)


def minimal_hardware_for_requirements(
    spatial_requirement: float,
    accumulator_word_requirement: float,
    scratchpad_word_requirement: float,
    bounds: HardwareBounds = DEFAULT_BOUNDS,
) -> HardwareConfig:
    """Derive the smallest legal :class:`HardwareConfig` meeting the requirements.

    ``spatial_requirement`` is the larger of the C/K spatial tiling factors
    (the square-root of Equation 1's PE count); SRAM requirements are in words
    of the respective level.  Values are rounded up: PE dim to the next
    integer (capped), SRAM capacities to the configured granularity.
    """
    pe_dim = max(bounds.min_pe_dim, int(-(-spatial_requirement // 1)))
    pe_dim = min(pe_dim, bounds.max_pe_dim)

    accumulator_bytes = accumulator_word_requirement * BYTES_PER_WORD[LEVEL_ACCUMULATOR]
    scratchpad_bytes = scratchpad_word_requirement * BYTES_PER_WORD[LEVEL_SCRATCHPAD]
    granularity = bounds.sram_granularity_kb
    accumulator_kb = max(granularity, round_up_to_multiple(accumulator_bytes / 1024.0, granularity))
    scratchpad_kb = max(granularity, round_up_to_multiple(scratchpad_bytes / 1024.0, granularity))
    accumulator_kb = min(accumulator_kb, bounds.max_accumulator_kb)
    scratchpad_kb = min(scratchpad_kb, bounds.max_scratchpad_kb)
    return HardwareConfig(pe_dim=pe_dim, accumulator_kb=accumulator_kb,
                          scratchpad_kb=scratchpad_kb)


def merge_hardware_configs(configs: Iterable[HardwareConfig]) -> HardwareConfig:
    """Parameter-wise max across per-layer minimal configs (Figure 3).

    The final design must support every layer's mapping, so each hardware
    parameter takes the maximum over the per-layer requirements, capped at
    :data:`DEFAULT_BOUNDS`.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("merge_hardware_configs requires at least one config")
    return HardwareConfig(
        pe_dim=min(max(c.pe_dim for c in configs), DEFAULT_BOUNDS.max_pe_dim),
        accumulator_kb=min(max(c.accumulator_kb for c in configs),
                           DEFAULT_BOUNDS.max_accumulator_kb),
        scratchpad_kb=min(max(c.scratchpad_kb for c in configs),
                          DEFAULT_BOUNDS.max_scratchpad_kb),
    )


#: The PE-array sides and SRAM sizes (KB) a random design point draws from;
#: every one is within :data:`DEFAULT_BOUNDS`.
_RANDOM_PE_DIMS = (4, 8, 16, 32, 64, 128)
_RANDOM_SRAM_KB = (16, 32, 64, 128, 256, 512)


def random_hardware_config(seed: SeedLike = None) -> HardwareConfig:
    """Sample a random valid hardware design point (used for GD start points
    and by the black-box search baselines)."""
    rng = make_rng(seed)
    pe_dim = int(rng.choice(_RANDOM_PE_DIMS))
    accumulator_kb = int(rng.choice(_RANDOM_SRAM_KB))
    scratchpad_kb = int(rng.choice(_RANDOM_SRAM_KB))
    return HardwareConfig(pe_dim=pe_dim, accumulator_kb=accumulator_kb,
                          scratchpad_kb=scratchpad_kb)
