"""Differentiable hardware: the Table-2 costs of a design, as graph values.

In the mapping-first flow, hardware is not a free search variable: the PE
count and SRAM capacities are *derived* from the mappings (Equation 1,
Figure 3), and the Table-2 bandwidths and energies per access depend on them,
so gradients reach the tiling factors through the hardware.  A
:class:`DifferentiableHardware` holds those costs as the two tensors that the
model's roofline latency and energy read:

* ``bandwidths`` — every memory level's bandwidth in words per cycle, then
  the PE array's side length, which the accumulator's energy per access
  divides by: ``(levels + 1, S, 1)``;
* ``action_energies`` — the energy of a MAC, then every level's energy per
  access: ``(1 + levels, S, 1)``.

A derivation (:meth:`DifferentiableHardware.from_requirements`) computes each
table as one fused node: the array side's fold over the candidate side
lengths with the PE count and the bandwidths, then the SRAM capacities' folds
with the energies.  Each node runs the IEEE operations of the chain of nodes
it replaced (kept as the parity oracle in ``tests/oracles/tail.py``) in their
order, forward and backward, so values and gradients are bit-identical to
it; the array side is a row of the first table so that both tables' gradients
reach it through one node, as they reached the chain's ``num_pes ** 0.5``.
For fixed-hardware evaluation (the Figure 4 correlation study) the tables
are constants from a :class:`~repro.arch.config.HardwareConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    level_bandwidth,
    level_energy_per_access,
)
from repro.arch.config import HardwareConfig
from repro.autodiff import Tensor, ops

#: The row of ``bandwidths`` past the levels': the PE array's side length.
ARRAY_SIDE_ROW = len(MEMORY_LEVEL_INDICES)
_ACCUMULATOR_KB_PER_WORD = BYTES_PER_WORD[LEVEL_ACCUMULATOR] / 1024.0
_SCRATCHPAD_KB_PER_WORD = BYTES_PER_WORD[LEVEL_SCRATCHPAD] / 1024.0


def _derived_bandwidths(tensor: Tensor, positions: np.ndarray) -> Tensor:
    """``bandwidths`` of the hardware the side-length candidates imply, one node.

    ``positions`` are ``(n, S, 1)`` flat positions in the factor ``tensor``:
    per start, the candidate side lengths, folded in order.  The PE count is
    the square of the largest, and the array side its ``** 0.5``.
    """
    shape = tensor.data.shape
    saved: list = [None]

    def forward():
        sides = tensor.data.ravel().take(positions)
        running = np.maximum.accumulate(sides, axis=0)
        side = running[-1]
        num_pes = side * side
        out = np.empty((ARRAY_SIDE_ROW + 1,) + side.shape)
        array_side = out[ARRAY_SIDE_ROW]
        array_side[...] = num_pes**0.5
        np.multiply(2.0, num_pes, out=out[LEVEL_REGISTERS])
        np.multiply(2.0, array_side, out=out[LEVEL_ACCUMULATOR:LEVEL_SCRATCHPAD + 1])
        out[LEVEL_DRAM] = DRAM_BANDWIDTH_WORDS_PER_CYCLE
        saved[0] = sides, running, side, num_pes
        return out

    def backward(grad: np.ndarray):
        sides, running, side, num_pes = saved[0]
        grad_array_side = (grad[ARRAY_SIDE_ROW]
                           + (grad[LEVEL_ACCUMULATOR] + grad[LEVEL_SCRATCHPAD]) * 2.0)
        grad_pes = grad[LEVEL_REGISTERS] * 2.0 + grad_array_side * 0.5 * num_pes**-0.5
        grad_side = grad_pes * side
        grad_side += grad_side
        grad_sides = ops.fold_max_grad(grad_side[None], sides, running)
        grad_sides += 0.0  # as the gather's scatter did: -0.0 becomes 0.0
        full = np.zeros(shape)
        full.reshape(-1)[positions] = grad_sides
        return (full,)

    return tensor._make_child(forward(), (tensor,), backward, forward)


def _derived_energies(output_tile: Tensor, bandwidths: Tensor, tiles: Tensor,
                      scratchpad_tiles: Sequence[int]) -> Tensor:
    """``action_energies`` of the hardware the tiles imply, one node.

    The accumulator holds the largest ``output_tile`` of a start's layers and
    the scratchpad the largest sum of its ``scratchpad_tiles`` rows of
    ``tiles`` (left folds over the layer axis), in kilobytes; the
    accumulator's energy per access divides by the array side of
    ``bandwidths``.
    """
    first, second = scratchpad_tiles
    template = np.empty((1 + len(MEMORY_LEVEL_INDICES),) + bandwidths.data.shape[1:])
    template[0] = PE_ENERGY_PER_MAC
    template[1 + LEVEL_REGISTERS] = REGISTER_ENERGY_PER_ACCESS
    template[1 + LEVEL_DRAM] = DRAM_ENERGY_PER_ACCESS
    saved: list = [None]

    def forward():
        # Layers first: the folds run down the leading axis.
        scratchpad_words = (tiles.data[first] + tiles.data[second]).T
        accumulator_run = np.maximum.accumulate(output_tile.data.T, axis=0)
        scratchpad_run = np.maximum.accumulate(scratchpad_words, axis=0)
        accumulator_scaled = ACCUMULATOR_EPA_SLOPE * (
            accumulator_run[-1:].T * _ACCUMULATOR_KB_PER_WORD)
        out = template.copy()
        np.add(ACCUMULATOR_EPA_BASE,
               accumulator_scaled / bandwidths.data[ARRAY_SIDE_ROW],
               out=out[1 + LEVEL_ACCUMULATOR])
        np.add(SCRATCHPAD_EPA_BASE,
               SCRATCHPAD_EPA_SLOPE * (scratchpad_run[-1:].T * _SCRATCHPAD_KB_PER_WORD),
               out=out[1 + LEVEL_SCRATCHPAD])
        saved[0] = scratchpad_words, accumulator_run, scratchpad_run, accumulator_scaled
        return out

    def backward(grad: np.ndarray):
        scratchpad_words, accumulator_run, scratchpad_run, accumulator_scaled = saved[0]
        array_side = bandwidths.data[ARRAY_SIDE_ROW]
        grad_accumulator = grad[1 + LEVEL_ACCUMULATOR]
        grad_bandwidths = np.zeros(bandwidths.data.shape)
        np.divide(-grad_accumulator * accumulator_scaled, array_side**2,
                  out=grad_bandwidths[ARRAY_SIDE_ROW])
        grad_words = (grad_accumulator / array_side * ACCUMULATOR_EPA_SLOPE
                      * _ACCUMULATOR_KB_PER_WORD)
        grad_output_tile = ops.fold_max_grad(grad_words.T, output_tile.data.T,
                                             accumulator_run).T
        grad_words = (grad[1 + LEVEL_SCRATCHPAD] * SCRATCHPAD_EPA_SLOPE
                      * _SCRATCHPAD_KB_PER_WORD)
        grad_scratchpad = ops.fold_max_grad(grad_words.T, scratchpad_words,
                                            scratchpad_run).T
        grad_tiles = np.zeros(tiles.data.shape)
        grad_tiles[first] += grad_scratchpad
        grad_tiles[second] += grad_scratchpad
        return grad_output_tile, grad_bandwidths, grad_tiles

    return output_tile._make_child(forward(), (output_tile, bandwidths, tiles),
                                   backward, forward)


@dataclass(frozen=True)
class DifferentiableHardware:
    """The Table-2 costs of one hardware design per start point.

    ``bandwidths`` is ``(levels + 1, S, 1)`` and ``action_energies``
    ``(1 + levels, S, 1)`` for a derivation over S start points, and
    ``(n, 1, 1)`` constants for fixed hardware; either broadcasts against
    the model's ``(levels, S, L)`` accesses.
    """

    bandwidths: Tensor
    action_energies: Tensor

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_config(config: HardwareConfig) -> "DifferentiableHardware":
        """Fixed (non-differentiable) hardware from a concrete config."""
        num_pes = config.num_pes
        bandwidths = [level_bandwidth(level, num_pes) for level in MEMORY_LEVEL_INDICES]
        energies = [level_energy_per_access(level, config.accumulator_kb,
                                            config.scratchpad_kb, num_pes)
                    for level in MEMORY_LEVEL_INDICES]
        return DifferentiableHardware(
            bandwidths=Tensor(np.reshape(bandwidths + [math.sqrt(num_pes)], (-1, 1, 1))),
            action_energies=Tensor(np.reshape([PE_ENERGY_PER_MAC] + energies, (-1, 1, 1))),
        )

    @staticmethod
    def from_requirements(
        tensor: Tensor,
        side_positions: np.ndarray,
        output_tile: Tensor,
        tiles: Tensor,
        scratchpad_tiles: Sequence[int],
    ) -> "DifferentiableHardware":
        """Minimal hardware implied by per-layer requirements (Equation 1, Figure 3).

        ``side_positions`` are the flat positions, in the factor ``tensor``,
        of every candidate array side length (the C and K spatial factors of
        every layer), ``(S, 1, n)``: the PE count is the square of their
        left-fold maximum.  The SRAM capacities are the largest
        ``output_tile`` and the largest sum of the ``scratchpad_tiles`` rows
        of ``tiles`` (``(S, L)`` planes) over the layer axis, in kilobytes.
        One configuration per start point.
        """
        if np.size(side_positions) == 0:
            raise ValueError("from_requirements needs at least one spatial factor")
        bandwidths = _derived_bandwidths(tensor, np.moveaxis(side_positions, -1, 0))
        return DifferentiableHardware(
            bandwidths=bandwidths,
            action_energies=_derived_energies(output_tile, bandwidths, tiles,
                                              scratchpad_tiles),
        )
