"""Differentiable hardware parameterization.

In the mapping-first flow, hardware is not a free search variable: the PE
count and SRAM capacities are *derived* from the mappings (Figure 3).  This
module expresses that derivation over autodiff tensors so that the Table-2
energy-per-access and bandwidth terms — which depend on the derived hardware —
propagate gradients back to the tiling factors.

For fixed-hardware evaluation (the Figure 4 correlation study, and the
Gemmini-RTL experiments where PE dimensions are pinned), the same class wraps
plain floats taken from a :class:`~repro.arch.config.HardwareConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

from repro.arch.components import (
    ACCUMULATOR_EPA_BASE,
    ACCUMULATOR_EPA_SLOPE,
    BYTES_PER_WORD,
    DRAM_BANDWIDTH_WORDS_PER_CYCLE,
    DRAM_ENERGY_PER_ACCESS,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
    PE_ENERGY_PER_MAC,
    REGISTER_ENERGY_PER_ACCESS,
    SCRATCHPAD_EPA_BASE,
    SCRATCHPAD_EPA_SLOPE,
)
from repro.arch.config import HardwareConfig
from repro.autodiff import Tensor, ops

Value = Union[Tensor, float]


def _level_stack(values: list) -> Tensor:
    """Per-level values stacked along a new leading axis, at least 3-D."""
    stacked = ops.stack(values)
    return stacked if stacked.ndim == 3 else stacked.reshape(len(values), 1, 1)


@dataclass
class DifferentiableHardware:
    """Hardware parameters as (possibly differentiable) scalars.

    ``num_pes`` is the total PE count, ``accumulator_kb`` / ``scratchpad_kb``
    the SRAM capacities in kilobytes.  All three may be ``Tensor`` values
    (derived from mappings) or plain floats (fixed hardware).
    """

    num_pes: Value
    accumulator_kb: Value
    scratchpad_kb: Value

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_config(config: HardwareConfig) -> "DifferentiableHardware":
        """Fixed (non-differentiable) hardware from a concrete config."""
        return DifferentiableHardware(
            num_pes=float(config.num_pes),
            accumulator_kb=float(config.accumulator_kb),
            scratchpad_kb=float(config.scratchpad_kb),
        )

    @staticmethod
    def from_requirements(
        spatial_factors: Tensor,
        accumulator_words: Value,
        scratchpad_words: Value,
    ) -> "DifferentiableHardware":
        """Minimal hardware implied by per-layer requirements (Equation 1, Figure 3).

        ``spatial_factors`` holds the candidate array side lengths (the C and
        K spatial factors of every layer) along its last axis, reduced with
        the fused left-fold :func:`~repro.autodiff.ops.fold_max`: ``(n,)``
        gives one configuration, ``(S, 1, n)`` one per start point as
        ``(S, 1)`` fields (``accumulator_words`` / ``scratchpad_words`` are
        expected in the same shape).  The PE count is the square of the
        maximum side.  SRAM capacities convert word requirements to kilobytes.
        """
        if spatial_factors.size == 0:
            raise ValueError("from_requirements needs at least one spatial factor")
        side = ops.fold_max(spatial_factors)
        num_pes = side * side
        accumulator_kb = accumulator_words * (BYTES_PER_WORD[LEVEL_ACCUMULATOR] / 1024.0)
        scratchpad_kb = scratchpad_words * (BYTES_PER_WORD[LEVEL_SCRATCHPAD] / 1024.0)
        return DifferentiableHardware(
            num_pes=num_pes,
            accumulator_kb=accumulator_kb,
            scratchpad_kb=scratchpad_kb,
        )

    # ------------------------------------------------------------------ #
    # Table-2 cost model
    # ------------------------------------------------------------------ #
    @property
    def mac_energy(self) -> float:
        return PE_ENERGY_PER_MAC

    @cached_property
    def _array_side(self) -> Value:
        """``sqrt(num_pes)``, one node shared by the terms that need it."""
        return self.num_pes**0.5

    @cached_property
    def _sram_bandwidth(self) -> Value:
        """The accumulator's and the scratchpad's bandwidth, one node."""
        return 2.0 * self._array_side

    def energy_per_access(self, level: int) -> Value:
        """Energy per access at ``level`` (differentiable where capacity-dependent)."""
        if level == LEVEL_REGISTERS:
            return REGISTER_ENERGY_PER_ACCESS
        if level == LEVEL_ACCUMULATOR:
            return (ACCUMULATOR_EPA_BASE
                    + ACCUMULATOR_EPA_SLOPE * self.accumulator_kb / self._array_side)
        if level == LEVEL_SCRATCHPAD:
            return SCRATCHPAD_EPA_BASE + SCRATCHPAD_EPA_SLOPE * self.scratchpad_kb
        if level == LEVEL_DRAM:
            return DRAM_ENERGY_PER_ACCESS
        raise ValueError(f"unknown memory level {level}")

    def bandwidth(self, level: int) -> Value:
        """Bandwidth (words/cycle) at ``level`` (Table 2)."""
        if level == LEVEL_REGISTERS:
            return 2.0 * self.num_pes
        if level in (LEVEL_ACCUMULATOR, LEVEL_SCRATCHPAD):
            return self._sram_bandwidth
        if level == LEVEL_DRAM:
            return DRAM_BANDWIDTH_WORDS_PER_CYCLE
        raise ValueError(f"unknown memory level {level}")

    @cached_property
    def level_bandwidths(self) -> Tensor:
        """Every level's :meth:`bandwidth`, stacked: ``(levels, S, 1)``.

        Scalar fields give ``(levels, 1, 1)``; either broadcasts against
        the model's ``(levels, S, L)`` accesses.
        """
        return _level_stack([self.bandwidth(level) for level in MEMORY_LEVEL_INDICES])

    @cached_property
    def action_energies(self) -> Tensor:
        """The MAC energy, then every level's :meth:`energy_per_access`,
        stacked like :attr:`level_bandwidths`."""
        return _level_stack([self.mac_energy] + [self.energy_per_access(level)
                                                 for level in MEMORY_LEVEL_INDICES])

    # ------------------------------------------------------------------ #
    def to_config(self, bounds=None) -> HardwareConfig:
        """Snap the (possibly fractional) parameters to a concrete config.

        Needs one configuration: scalar fields, or the ``(1, 1)`` fields of a
        single-start derivation.
        """
        from repro.arch.config import DEFAULT_BOUNDS, minimal_hardware_for_requirements

        def scalar(value: Value) -> float:
            return float(value.data.item() if isinstance(value, Tensor) else value)

        bounds = bounds or DEFAULT_BOUNDS
        num_pes = scalar(self.num_pes)
        accumulator_kb = scalar(self.accumulator_kb)
        scratchpad_kb = scalar(self.scratchpad_kb)
        return minimal_hardware_for_requirements(
            spatial_requirement=num_pes**0.5,
            accumulator_word_requirement=accumulator_kb * 1024.0 / BYTES_PER_WORD[LEVEL_ACCUMULATOR],
            scratchpad_word_requirement=scratchpad_kb * 1024.0 / BYTES_PER_WORD[LEVEL_SCRATCHPAD],
            bounds=bounds,
        )
