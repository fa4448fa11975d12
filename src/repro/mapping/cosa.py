"""A CoSA-style constrained heuristic mapper.

The original DOSA flow seeds gradient descent with mappings produced by
CoSA [Huang et al., ISCA 2021], an ILP-based scheduler that maximizes buffer
utilization and spatial parallelism subject to capacity constraints (it
requires the proprietary Gurobi solver).  This module provides a greedy
constrained mapper with the same objective structure:

1. maximize PE-array utilization by choosing the largest C/K spatial factors
   that fit the array,
2. fill the accumulator with output-tile loops (innermost temporal level),
3. fill the scratchpad with weight/input reuse loops (reduction dimensions
   and R/S at the accumulator's temporal level),
4. leave the remaining iteration space at DRAM.

It always produces a valid mapping that fits the given hardware configuration
and serves both as the GD start-point mapper and as the "constant mapper"
baseline in the Figure 9 study.
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import (
    LEVEL_ACCUMULATOR,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
)
from repro.arch.config import HardwareConfig
from repro.mapping.constraints import tile_word_arrays
from repro.mapping.mapping import DIM_INDEX, LoopOrdering, Mapping
from repro.utils.math_utils import divisors
from repro.workloads.layer import LayerDims

#: Fraction of the scratchpad reserved for weights: the paper's CoSA setup
#: partitions the scratchpad equally between inputs and weights.
_WEIGHT_SHARE = 0.5


def _largest_divisor_at_most(value: int, limit: float) -> int:
    """Largest divisor of ``value`` that does not exceed ``limit``."""
    best = 1
    for candidate in divisors(value):
        if candidate <= limit:
            best = candidate
    return best


Constraint = tuple[int, float, tuple[str, ...]]


def _grow_factor(
    mapping: Mapping,
    level: int,
    dim: str,
    constraints: list[Constraint],
) -> None:
    """Grow ``mapping.temporal[level, dim]`` as far as the capacity budgets allow.

    The candidates are the divisors of the remaining iteration count from
    the current factor up, in ascending order.  One kernel call scores them
    all; the factor becomes the last candidate of the longest prefix for
    which, under every ``(budget_level, budget_words, tensors)`` constraint,
    the combined tile of ``tensors`` at ``budget_level`` stays within
    ``budget_words`` (the first candidate that does not fit ends the growth).
    """
    j = DIM_INDEX[dim]
    remaining = int(round(mapping.layer.dim(dim) / mapping.factor_product(dim)
                          * mapping.temporal[level, j]))
    current = int(mapping.temporal[level, j])
    candidates = np.array([d for d in divisors(remaining) if d >= current],
                          dtype=np.float64)
    temporal = np.repeat(mapping.temporal[None], len(candidates), axis=0)
    temporal[:, level, j] = candidates
    tiles = tile_word_arrays(temporal, mapping.spatial[None],
                             mapping.layer.stride_p, mapping.layer.stride_q)
    fits = np.ones(len(candidates), dtype=bool)
    for budget_level, budget_words, tensors in constraints:
        fits &= sum(tiles[t][:, budget_level] for t in tensors) <= budget_words
    grown = int(np.logical_and.accumulate(fits).sum())
    if grown:
        mapping.temporal[level, j] = candidates[grown - 1]


def cosa_mapping(layer: LayerDims, config: HardwareConfig) -> Mapping:
    """Produce a performant valid mapping of ``layer`` onto ``config``."""
    mapping = Mapping(layer=layer, orderings=(
        LoopOrdering.WEIGHT_STATIONARY,
        LoopOrdering.OUTPUT_STATIONARY,
        LoopOrdering.WEIGHT_STATIONARY,
        LoopOrdering.OUTPUT_STATIONARY,
    ))

    # 1. Spatial parallelism: largest C/K divisors that fit the PE array.
    spatial_c = _largest_divisor_at_most(layer.C, config.pe_dim)
    spatial_k = _largest_divisor_at_most(layer.K, config.pe_dim)
    mapping.set_spatial(LEVEL_ACCUMULATOR, "C", float(spatial_c))
    mapping.set_spatial(LEVEL_SCRATCHPAD, "K", float(spatial_k))

    # 2. Fill the accumulator with output-tile loops at the register level
    #    (these factors, together with the spatial K factor, define the output
    #    tile the accumulator must hold).  The scratchpad capacity is also
    #    enforced, since input tiles grow with the same P/Q factors.
    accumulator_budget = float(config.accumulator_words)
    scratchpad_budget = float(config.scratchpad_words)
    for dim in ("Q", "P", "N"):
        _grow_factor(mapping, LEVEL_REGISTERS, dim, [
            (LEVEL_ACCUMULATOR, accumulator_budget, ("O",)),
            (LEVEL_SCRATCHPAD, scratchpad_budget, ("W", "I")),
        ])

    # 3. Fill the scratchpad: weights first (R, S and the C remainder at the
    #    accumulator's temporal level), then inputs (more P/Q reuse).  Every
    #    step keeps the combined weight + input tile within the scratchpad.
    weight_budget = scratchpad_budget * _WEIGHT_SHARE
    for dim in ("R", "S", "C"):
        _grow_factor(mapping, LEVEL_ACCUMULATOR, dim, [
            (LEVEL_SCRATCHPAD, weight_budget, ("W",)),
            (LEVEL_SCRATCHPAD, scratchpad_budget, ("W", "I")),
        ])
    for dim in ("Q", "P"):
        _grow_factor(mapping, LEVEL_ACCUMULATOR, dim, [
            (LEVEL_SCRATCHPAD, scratchpad_budget, ("W", "I")),
        ])

    # 4. Everything left iterates at DRAM.
    mapping = mapping.with_dram_inferred()

    # The greedy growth only ever uses divisors, so the result is integral.
    return mapping
