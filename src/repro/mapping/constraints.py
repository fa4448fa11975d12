"""Mapping validity checks, capacity requirements and minimal-hardware derivation.

The capacity rule implemented here (and mirrored by the differentiable model)
follows Section 4.1 / Figure 3 of the paper:

* the tile of tensor ``t`` held at memory level ``i`` is the product of the
  *temporal* tiling factors at all levels inner to ``i`` and of **all spatial
  factors** (the systolic array sits below every SRAM, and shared SRAMs must
  hold the union of all spatial instances' data),
* input tiles are computed from the output/weight window sizes and the layer
  strides (Equation 3),
* the per-level requirement is the sum over the tensors the level stores
  (bypass matrix, Table 4), and the whole-network hardware configuration takes
  the parameter-wise max across layers (Figure 3).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.arch.components import (
    BYPASS_MATRIX,
    LEVEL_ACCUMULATOR,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.arch.config import (
    DEFAULT_BOUNDS,
    HardwareBounds,
    HardwareConfig,
    merge_hardware_configs,
    minimal_hardware_for_requirements,
)
from repro.mapping.mapping import DIM_INDEX, Mapping, SPATIAL_DIMS
from repro.workloads.layer import DIMENSIONS


def inner_extent(mapping: Mapping, level: int, dim: str) -> float:
    """Extent of dimension ``dim`` inside the level-``i`` tile.

    This is ``Inner(i, d)`` of the paper: the product of temporal factors at
    levels inner to ``level`` and of every spatial factor of the dimension.
    """
    j = DIM_INDEX[dim]
    extent = float(mapping.spatial[:, j].prod())
    for inner_level in range(level):
        extent *= float(mapping.temporal[inner_level, j])
    return extent


def tensor_tile_words(mapping: Mapping, level: int, tensor: str) -> float:
    """Words of tensor ``tensor`` that level ``level`` must hold (Eq. 2-4)."""
    layer = mapping.layer
    if tensor == "W":
        words = 1.0
        for dim in ("R", "S", "C", "K"):
            words *= inner_extent(mapping, level, dim)
        return words
    if tensor == "O":
        words = 1.0
        for dim in ("P", "Q", "K", "N"):
            words *= inner_extent(mapping, level, dim)
        return words
    if tensor == "I":
        words = inner_extent(mapping, level, "C") * inner_extent(mapping, level, "N")
        height = layer.stride_p * (inner_extent(mapping, level, "P") - 1.0) + inner_extent(
            mapping, level, "R"
        )
        width = layer.stride_q * (inner_extent(mapping, level, "Q") - 1.0) + inner_extent(
            mapping, level, "S"
        )
        return words * height * width
    raise KeyError(f"unknown tensor {tensor!r}")


def capacity_requirements(mapping: Mapping) -> dict[int, float]:
    """Total words each memory level must hold for ``mapping`` (Eq. 5)."""
    requirements: dict[int, float] = {}
    for level in MEMORY_LEVEL_INDICES:
        total = 0.0
        for tensor in BYPASS_MATRIX[level]:
            total += tensor_tile_words(mapping, level, tensor)
        requirements[level] = total
    return requirements


def spatial_requirement(mapping: Mapping) -> float:
    """The PE-array side length required by the mapping (sqrt of Eq. 1)."""
    return max(
        mapping.spatial_factor(level, dim) for level, dim in SPATIAL_DIMS
    )


def minimal_hardware_for_mapping(
    mapping: Mapping, bounds: HardwareBounds = DEFAULT_BOUNDS
) -> HardwareConfig:
    """Smallest hardware configuration able to execute ``mapping`` (Fig. 3)."""
    return minimal_hardware_for_requirements(
        spatial_requirement=spatial_requirement(mapping),
        accumulator_word_requirement=tensor_tile_words(mapping, LEVEL_ACCUMULATOR, "O"),
        scratchpad_word_requirement=(
            tensor_tile_words(mapping, LEVEL_SCRATCHPAD, "W")
            + tensor_tile_words(mapping, LEVEL_SCRATCHPAD, "I")
        ),
        bounds=bounds,
    )


def minimal_hardware_for_mappings(
    mappings: Iterable[Mapping], bounds: HardwareBounds = DEFAULT_BOUNDS
) -> HardwareConfig:
    """Parameter-wise max of per-mapping minimal configs (Section 4.5)."""
    configs = [minimal_hardware_for_mapping(m, bounds) for m in mappings]
    return merge_hardware_configs(configs, bounds)


# --------------------------------------------------------------------------- #
# Validity
# --------------------------------------------------------------------------- #
def validate_mapping(mapping: Mapping, tolerance: float = 1e-6) -> list[str]:
    """Return a list of constraint violations (empty when the mapping is valid)."""
    problems: list[str] = []
    if np.any(mapping.temporal < 1.0 - tolerance):
        problems.append("temporal tiling factor smaller than 1")
    if np.any(mapping.spatial < 1.0 - tolerance):
        problems.append("spatial tiling factor smaller than 1")
    if not mapping.is_integral(tolerance):
        problems.append("non-integer tiling factor")
    # Spatial factors only allowed at the weight-stationary C/K positions.
    allowed = np.ones_like(mapping.spatial, dtype=bool)
    for level, dim in SPATIAL_DIMS:
        allowed[level, DIM_INDEX[dim]] = False
    if np.any(mapping.spatial[allowed] > 1.0 + tolerance):
        problems.append("spatial factor at a position unsupported by the WS dataflow")
    for dim in DIMENSIONS:
        product = mapping.factor_product(dim)
        expected = float(mapping.layer.dim(dim))
        if abs(product - expected) > tolerance * max(expected, 1.0):
            problems.append(
                f"factors of dimension {dim} multiply to {product:g}, expected {expected:g}"
            )
    return problems


def mapping_is_valid(mapping: Mapping, tolerance: float = 1e-6) -> bool:
    """True when the mapping satisfies every structural constraint."""
    return not validate_mapping(mapping, tolerance)


def mapping_fits_hardware(
    mapping: Mapping, config: HardwareConfig, tolerance: float = 1e-6
) -> bool:
    """True when ``mapping`` fits within ``config``'s PE array and SRAMs."""
    if spatial_requirement(mapping) > config.pe_dim + tolerance:
        return False
    requirements = capacity_requirements(mapping)
    if requirements[LEVEL_REGISTERS] > config.register_words + tolerance:
        return False
    if requirements[LEVEL_ACCUMULATOR] > config.accumulator_words + tolerance:
        return False
    if requirements[LEVEL_SCRATCHPAD] > config.scratchpad_words + tolerance:
        return False
    return True
