"""Mapping validity, tile words, capacity requirements and minimal hardware.

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

One array kernel, :func:`tile_word_arrays`, computes these tiles for a stack
of mappings: ``(B, levels, dims)`` temporal and spatial factors with one
stride pair per row.  The batch evaluator, the random mapper's block fit
check, the CoSA mapper's growth step, the Bayesian searcher's features, the
RTL simulator and every function below share it.  Extents follow the
reference model's rule and are rounded up to whole elements,
``max(1, ceil(extent - FACTOR_EPS))``; on the integral mappings that the
mappers, the rounding walk and the searches produce, that is the factor
product itself.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arch.components import (
    BYPASS_MATRIX,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.arch.config import (
    DEFAULT_BOUNDS,
    HardwareBounds,
    HardwareConfig,
    minimal_hardware_for_requirements,
)
from repro.mapping.mapping import DIM_INDEX, Mapping, SPATIAL_DIMS
from repro.workloads.layer import DIMENSIONS, TENSORS

#: Slack of every validity and capacity comparison.
TOLERANCE = 1e-6
#: An extent at most this far above an integer rounds up to that integer.
FACTOR_EPS = 1e-9

#: ``_STORES[i, t]``: memory level ``i`` holds tensor ``TENSORS[t]`` (Table 4).
_STORES = np.array([[tensor in BYPASS_MATRIX[level] for tensor in TENSORS]
                    for level in MEMORY_LEVEL_INDICES])
#: Level and dimension index of each spatial slot (C and K, Equation 1).
_SPATIAL_LEVELS = np.array([level for level, _ in SPATIAL_DIMS])
_SPATIAL_COLS = np.array([DIM_INDEX[dim] for _, dim in SPATIAL_DIMS])


def factor_stacks(
    mappings: Sequence[Mapping],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(temporal, spatial, stride_p, stride_q)`` of ``mappings``, stacked
    into the kernel's ``(B, levels, dims)`` and ``(B,)`` arrays."""
    return (
        np.stack([m.temporal for m in mappings]),
        np.stack([m.spatial for m in mappings]),
        np.array([m.layer.stride_p for m in mappings], dtype=np.float64),
        np.array([m.layer.stride_q for m in mappings], dtype=np.float64),
    )


def tile_word_arrays(
    temporal: np.ndarray,
    spatial: np.ndarray,
    stride_p: "float | np.ndarray",
    stride_q: "float | np.ndarray",
) -> dict[str, np.ndarray]:
    """``(B, levels)`` words of each tensor's tile at every level (Eqs. 2-4).

    ``temporal`` and ``spatial`` are ``(B, levels, dims)`` factor stacks
    (either may have a leading axis of 1, which broadcasts); the strides are
    ``(B,)`` arrays or scalars.  ``Inner(i, d)``, the extent of dimension
    ``d`` inside the level-``i`` tile, is the product of every spatial
    factor of ``d`` and of its temporal factors at the levels inner to ``i``.
    Every factor of an integral mapping is an integer-valued float and every
    tile far below 2**53, so the words are exact in any product order.
    """
    inner = np.ones(np.broadcast_shapes(temporal.shape, spatial.shape))
    inner[:, 1:] = np.cumprod(temporal[:, :-1], axis=1)
    inner *= spatial.prod(axis=1)[:, None, :]
    inner = np.maximum(1.0, np.ceil(inner - FACTOR_EPS))
    R, S, P, Q, C, K, N = (inner[..., DIM_INDEX[dim]] for dim in "RSPQCKN")
    stride_p = np.reshape(stride_p, (-1, 1))
    stride_q = np.reshape(stride_q, (-1, 1))
    return {
        "W": R * S * C * K,
        "I": C * N * (stride_p * (P - 1.0) + R) * (stride_q * (Q - 1.0) + S),
        "O": P * Q * K * N,
    }


def _required_words(tiles: dict[str, np.ndarray]) -> np.ndarray:
    """``(B, levels)`` words each level must hold: the tiles of the tensors
    it stores, summed (Eq. 5)."""
    return sum(np.where(_STORES[:, t], tiles[tensor], 0.0)
               for t, tensor in enumerate(TENSORS))


def _spatial_requirements(spatial: np.ndarray) -> np.ndarray:
    """``(B,)`` PE-array side each row needs (the square root of Eq. 1)."""
    return spatial[:, _SPATIAL_LEVELS, _SPATIAL_COLS].max(axis=1)


def fits_hardware_arrays(
    temporal: np.ndarray,
    spatial: np.ndarray,
    stride_p: "float | np.ndarray",
    stride_q: "float | np.ndarray",
    config: HardwareConfig,
) -> np.ndarray:
    """``(B,)`` whether each row fits ``config``'s PE array and SRAMs.

    A row fits when its PE-array side and the words of each on-chip level
    are at most the configuration's, with :data:`TOLERANCE` of slack.
    """
    demand = np.column_stack([
        _spatial_requirements(spatial),
        _required_words(tile_word_arrays(temporal, spatial, stride_p, stride_q))[:, :LEVEL_DRAM],
    ])
    supply = np.array([config.pe_dim, config.register_words,
                       config.accumulator_words, config.scratchpad_words],
                      dtype=np.float64)
    return (demand <= supply + TOLERANCE).all(axis=1)


def capacity_requirements(mapping: Mapping) -> dict[int, float]:
    """Total words each memory level must hold for ``mapping`` (Eq. 5)."""
    requirements = _required_words(tile_word_arrays(*factor_stacks([mapping])))[0]
    return {level: float(requirements[level]) for level in MEMORY_LEVEL_INDICES}


def minimal_hardware_for_mappings(
    mappings: Iterable[Mapping], bounds: HardwareBounds = DEFAULT_BOUNDS
) -> HardwareConfig:
    """Smallest hardware configuration able to run every mapping (Fig. 3).

    One kernel pass over the whole set: the PE array covers the widest C/K
    spatial factor, the accumulator the largest output tile and the
    scratchpad the largest weight-plus-input tile.  The derivation is
    monotone in each requirement, so this is the parameter-wise max of the
    per-mapping minimal configurations (Section 4.5).
    """
    mappings = list(mappings)
    if not mappings:
        raise ValueError("minimal_hardware_for_mappings requires at least one mapping")
    temporal, spatial, stride_p, stride_q = factor_stacks(mappings)
    requirements = _required_words(
        tile_word_arrays(temporal, spatial, stride_p, stride_q)).max(axis=0)
    return minimal_hardware_for_requirements(
        spatial_requirement=float(_spatial_requirements(spatial).max()),
        accumulator_word_requirement=float(requirements[LEVEL_ACCUMULATOR]),
        scratchpad_word_requirement=float(requirements[LEVEL_SCRATCHPAD]),
        bounds=bounds,
    )


# --------------------------------------------------------------------------- #
# Validity
# --------------------------------------------------------------------------- #
def validate_mapping(mapping: Mapping) -> list[str]:
    """Return a list of constraint violations (empty when the mapping is valid)."""
    problems: list[str] = []
    if np.any(mapping.temporal < 1.0 - TOLERANCE):
        problems.append("temporal tiling factor smaller than 1")
    if np.any(mapping.spatial < 1.0 - TOLERANCE):
        problems.append("spatial tiling factor smaller than 1")
    if not mapping.is_integral(TOLERANCE):
        problems.append("non-integer tiling factor")
    # Spatial factors only allowed at the weight-stationary C/K positions.
    allowed = np.ones_like(mapping.spatial, dtype=bool)
    for level, dim in SPATIAL_DIMS:
        allowed[level, DIM_INDEX[dim]] = False
    if np.any(mapping.spatial[allowed] > 1.0 + TOLERANCE):
        problems.append("spatial factor at a position unsupported by the WS dataflow")
    for dim in DIMENSIONS:
        product = mapping.factor_product(dim)
        expected = float(mapping.layer.dim(dim))
        if abs(product - expected) > TOLERANCE * max(expected, 1.0):
            problems.append(
                f"factors of dimension {dim} multiply to {product:g}, expected {expected:g}"
            )
    return problems


def mapping_fits_hardware(mapping: Mapping, config: HardwareConfig) -> bool:
    """True when ``mapping`` fits within ``config``'s PE array and SRAMs."""
    return bool(fits_hardware_arrays(*factor_stacks([mapping]), config)[0])
