"""Differentiable capacity, traffic, latency and energy model (Equations 1-14).

This mirrors the reference analysis of :mod:`repro.timeloop.loopnest` but over
autodiff tensors and with smooth semantics: tile extents are real-valued
products (no ceiling), DRAM energy is charged per element (no block rounding),
and maxima use the exact-max subgradient of :func:`repro.autodiff.ops.maximum`.
The structural decisions — which loops provide temporal reuse given the loop
ordering — are made from the current numeric factor values inside the fused
:func:`~repro.autodiff.ops.reload_product`, so each forward pass is
differentiable on its active piece.

Every formula operates on the ``(S, L)`` entries of a
:class:`~repro.core.dmodel.factors.MultiStartFactors` grid: one graph of
array ops for all start points and layers, whose node count is independent
of both.  The loop-order-aware reload factor gathers the stacked temporal
factors in walk order through static permutation arrays, and the hardware
derivation folds the per-layer requirements with
:func:`~repro.autodiff.ops.fold_max`, one row per start point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.components import (
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.autodiff import Tensor, ops
from repro.core.dmodel.factors import MultiStartFactors, MultiStartGrid
from repro.core.dmodel.hardware import DifferentiableHardware
from repro.workloads.layer import DIMENSIONS, TENSOR_DIMS

Value = "Tensor | float"
_FACTOR_EPS = 1e-9

FactorGrid = dict


@dataclass
class LayerPerformance:
    """Differentiable per-layer latency/energy: ``(S, L)`` tensors (start x layer)."""

    latency: Tensor
    energy: Tensor
    compute_latency: Tensor
    accesses: dict[int, Tensor]
    macs: Tensor

    @property
    def edp(self) -> Tensor:
        return self.latency * self.energy


class DifferentiableModel:
    """Evaluates :class:`MultiStartFactors` into differentiable performance."""

    # ------------------------------------------------------------------ #
    # Tile sizes (Equations 2-5)
    # ------------------------------------------------------------------ #
    @staticmethod
    def inner_extent(factors: MultiStartFactors, grid: FactorGrid, level: int, dim: str):
        """Extent of ``dim`` inside the level-``level`` tile (all spatial, inner temporal)."""
        terms = [grid[("S", lvl, dim)] for lvl in MEMORY_LEVEL_INDICES]
        terms += [grid[("T", lvl, dim)] for lvl in range(level)]
        return ops.total_prod(terms)

    @classmethod
    def tile_words(cls, factors: MultiStartFactors, grid: FactorGrid, level: int, tensor: str):
        """Words of ``tensor`` resident at ``level`` (Equations 2-4)."""
        if tensor == "W":
            return ops.total_prod(
                [cls.inner_extent(factors, grid, level, d) for d in ("R", "S", "C", "K")]
            )
        if tensor == "O":
            return ops.total_prod(
                [cls.inner_extent(factors, grid, level, d) for d in ("P", "Q", "K", "N")]
            )
        if tensor == "I":
            base = (cls.inner_extent(factors, grid, level, "C")
                    * cls.inner_extent(factors, grid, level, "N"))
            height = (factors.stride_p * (cls.inner_extent(factors, grid, level, "P") - 1.0)
                      + cls.inner_extent(factors, grid, level, "R"))
            width = (factors.stride_q * (cls.inner_extent(factors, grid, level, "Q") - 1.0)
                     + cls.inner_extent(factors, grid, level, "S"))
            return base * height * width
        raise KeyError(f"unknown tensor {tensor!r}")

    # ------------------------------------------------------------------ #
    # Traffic (Equations 6-11)
    # ------------------------------------------------------------------ #
    @staticmethod
    def reload_factor(factors: MultiStartFactors, grid: MultiStartGrid,
                      level: int, tensor: str):
        """Times the level tile of ``tensor`` is refetched (loop-order aware, Eq. 6).

        The walk sequence (levels outward, innermost loop first within each
        level, per-start per-layer orderings) is materialized as an
        ``(S, L, positions)`` matrix by gathering the stacked temporal factors
        through static permutation index arrays; the value-dependent skip
        rules (near-1 factors, irrelevant loops inside the first relevant
        one) live inside :func:`~repro.autodiff.ops.reload_product`, which
        re-derives them from current values on every forward/backward pass.
        """
        relevant_by_dim = np.array([d in TENSOR_DIMS[tensor] for d in DIMENSIONS])
        # Broadcast (S, 1, 1) x (1, L, 1) row indices against the
        # (S, L, dims) permutations.
        start_rows = np.arange(factors.num_starts)[:, None, None]
        layer_rows = np.arange(len(factors.layers))[None, :, None]
        segments = []
        relevant_segments = []
        for walk_level in range(level, LEVEL_DRAM + 1):
            perm = factors.order_perm(walk_level)
            if walk_level == LEVEL_DRAM:
                matrix = grid.dram_matrix
            else:
                # Optimized levels coincide with their positions in the stack.
                matrix = grid.temporal_matrix[:, :, walk_level, :]
            segments.append(matrix[start_rows, layer_rows, perm])
            relevant_segments.append(relevant_by_dim[perm])
        walk = ops.concat(segments, axis=-1) if len(segments) > 1 else segments[0]
        relevant = np.concatenate(relevant_segments, axis=-1)
        return ops.reload_product(walk, relevant, eps=_FACTOR_EPS)

    @staticmethod
    def distinct_tiles(factors: MultiStartFactors, grid: FactorGrid, level: int, tensor: str):
        """Number of distinct tiles of ``tensor`` above ``level``."""
        relevant = TENSOR_DIMS[tensor]
        terms = []
        for walk_level in range(level, LEVEL_DRAM + 1):
            for dim in DIMENSIONS:
                if dim in relevant:
                    terms.append(grid[("T", walk_level, dim)])
        return ops.total_prod(terms)

    @staticmethod
    def spatial_irrelevant_product(factors: MultiStartFactors, grid: FactorGrid, level: int, tensor: str):
        """Equations 8/10: spatial broadcast / reduction factor at ``level``."""
        relevant = TENSOR_DIMS[tensor]
        terms = [grid[("S", level, dim)] for dim in DIMENSIONS if dim not in relevant]
        return ops.total_prod(terms)

    @staticmethod
    def total_macs(factors: MultiStartFactors, grid: FactorGrid):
        """Equation 7: the product of every tiling factor."""
        terms = []
        for dim in DIMENSIONS:
            for level in MEMORY_LEVEL_INDICES:
                terms.append(grid[("T", level, dim)])
                terms.append(grid[("S", level, dim)])
        return ops.total_prod(terms)

    @classmethod
    def traffic(cls, factors: MultiStartFactors, grid: FactorGrid) -> dict[int, Tensor]:
        """Total accesses per memory level (reads + writes + updates)."""
        macs = cls.total_macs(factors, grid)
        spatial_c = grid[("S", LEVEL_ACCUMULATOR, "C")]
        spatial_k = grid[("S", LEVEL_SCRATCHPAD, "K")]

        writes_w_registers = (cls.tile_words(factors, grid, LEVEL_REGISTERS, "W")
                              * cls.reload_factor(factors, grid, LEVEL_REGISTERS, "W"))
        writes_w_scratchpad = (cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "W")
                               * cls.reload_factor(factors, grid, LEVEL_SCRATCHPAD, "W"))
        writes_i_scratchpad = (cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "I")
                               * cls.reload_factor(factors, grid, LEVEL_SCRATCHPAD, "I"))

        output_tile = cls.tile_words(factors, grid, LEVEL_ACCUMULATOR, "O")
        reloads_o = cls.reload_factor(factors, grid, LEVEL_ACCUMULATOR, "O")
        distinct_o = cls.distinct_tiles(factors, grid, LEVEL_ACCUMULATOR, "O")
        drains = output_tile * reloads_o
        refills = output_tile * ops.relu(reloads_o - distinct_o)

        accesses: dict[int, Tensor] = {}
        accesses[LEVEL_REGISTERS] = (
            writes_w_registers
            + macs / cls.spatial_irrelevant_product(factors, grid, LEVEL_REGISTERS, "W")
        )
        accesses[LEVEL_ACCUMULATOR] = macs / spatial_c + drains + refills
        accesses[LEVEL_SCRATCHPAD] = (
            writes_w_scratchpad + writes_i_scratchpad
            + writes_w_registers / cls.spatial_irrelevant_product(factors, grid, LEVEL_SCRATCHPAD, "W")
            + macs / spatial_k
        )
        accesses[LEVEL_DRAM] = writes_w_scratchpad + writes_i_scratchpad + drains + refills
        return accesses

    # ------------------------------------------------------------------ #
    # Latency / energy / EDP (Equations 12-14)
    # ------------------------------------------------------------------ #
    @classmethod
    def evaluate_layer(
        cls,
        factors: MultiStartFactors,
        hardware: DifferentiableHardware,
        grid: FactorGrid | None = None,
    ) -> LayerPerformance:
        """Differentiable latency and energy of every start's layers on ``hardware``."""
        grid = grid if grid is not None else factors.factor_grid()
        macs = cls.total_macs(factors, grid)
        accesses = cls.traffic(factors, grid)

        parallelism = ops.total_prod(
            [grid[("S", level, dim)] for level in MEMORY_LEVEL_INDICES for dim in DIMENSIONS]
        )
        compute_latency = macs / parallelism
        latency = compute_latency
        for level in MEMORY_LEVEL_INDICES:
            latency = ops.maximum(latency, accesses[level] / hardware.bandwidth(level))

        energy = macs * hardware.mac_energy
        for level in MEMORY_LEVEL_INDICES:
            energy = energy + accesses[level] * hardware.energy_per_access(level)

        return LayerPerformance(
            latency=latency,
            energy=energy,
            compute_latency=compute_latency,
            accesses=accesses,
            macs=macs,
        )

    # ------------------------------------------------------------------ #
    # Hardware derivation (Equation 1, Figure 3) over a set of layers
    # ------------------------------------------------------------------ #
    @classmethod
    def derive_hardware(cls, factors: MultiStartFactors,
                        grid: MultiStartGrid | None = None) -> DifferentiableHardware:
        """Minimal hardware supporting every layer's current factors (differentiably).

        One independently-derived configuration per start point: each start's
        candidates fold left to right over its layers (each layer's
        accumulator-C then scratchpad-K spatial factor, then the capacity
        maxima) with :func:`~repro.autodiff.ops.fold_max`, whose values and
        tie subgradients equal the chained per-layer maxima.  Fields come back
        as ``(S, 1)`` tensors that broadcast over the ``(S, L)`` factor grid.
        ``grid`` lets one factor grid serve hardware derivation, evaluation
        and the validity penalty within a single loss graph.
        """
        grid = grid if grid is not None else factors.factor_grid()
        spatial_c = grid[("S", LEVEL_ACCUMULATOR, "C")]
        spatial_k = grid[("S", LEVEL_SCRATCHPAD, "K")]
        starts, layer_count = spatial_c.shape
        interleaved = ops.transpose(
            ops.stack([spatial_c, spatial_k]), (1, 2, 0)
        ).reshape(starts, 2 * layer_count)
        accumulator_words = ops.fold_max(
            cls.tile_words(factors, grid, LEVEL_ACCUMULATOR, "O"), axis=-1)
        scratchpad_words = ops.fold_max(
            cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "W")
            + cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "I"), axis=-1)
        return DifferentiableHardware.from_requirements(
            spatial_factors=interleaved,
            accumulator_words=accumulator_words.reshape(starts, 1),
            scratchpad_words=scratchpad_words.reshape(starts, 1),
        )

    @classmethod
    def evaluate_network(
        cls,
        factors: MultiStartFactors,
        hardware: DifferentiableHardware | None = None,
        grid: MultiStartGrid | None = None,
    ) -> LayerPerformance:
        """Evaluate every layer, deriving minimal hardware if none is given.

        Returns one :class:`LayerPerformance` whose fields are ``(S, L)``
        tensors — one graph for all start points of a search.
        """
        grid = grid if grid is not None else factors.factor_grid()
        if hardware is None:
            hardware = cls.derive_hardware(factors, grid=grid)
        return cls.evaluate_layer(factors, hardware, grid)
