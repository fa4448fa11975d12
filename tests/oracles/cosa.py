"""The CoSA-style mapper growing one candidate at a time: the parity oracle.

This is the greedy mapper before :mod:`repro.mapping.cosa` scored every
divisor candidate of a growth step in one kernel call.  Each candidate is
written into the mapping and checked against every capacity budget with the
reference model's per-mapping
:func:`~repro.timeloop.loopnest.tile_words`; the first candidate that does
not fit ends the growth.  The production mapper must return the same mapping,
array for array.
"""

from __future__ import annotations

from repro.arch.components import (
    LEVEL_ACCUMULATOR,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
)
from repro.arch.config import HardwareConfig
from repro.mapping.cosa import _largest_divisor_at_most
from repro.mapping.mapping import DIM_INDEX, LoopOrdering, Mapping
from repro.timeloop.loopnest import tile_words
from repro.utils.math_utils import divisors
from repro.workloads.layer import LayerDims

Constraint = tuple[int, float, tuple[str, ...]]


def _grow_factor(
    mapping: Mapping,
    level: int,
    dim: str,
    constraints: list[Constraint],
) -> None:
    """Grow ``mapping.temporal[level, dim]`` as far as the capacity budgets allow.

    The factor is increased through successive divisors of the remaining
    iteration count while, for every ``(budget_level, budget_words, tensors)``
    constraint, the combined tile of ``tensors`` at ``budget_level`` stays
    within ``budget_words``.
    """
    j = DIM_INDEX[dim]
    remaining = int(round(mapping.layer.dim(dim) / mapping.factor_product(dim)
                          * mapping.temporal[level, j]))
    best = int(mapping.temporal[level, j])
    for candidate in divisors(remaining):
        if candidate < best:
            continue
        mapping.temporal[level, j] = float(candidate)
        fits = all(
            sum(tile_words(mapping, budget_level, t) for t in tensors) <= budget_words
            for budget_level, budget_words, tensors in constraints
        )
        if fits:
            best = candidate
        else:
            break
    mapping.temporal[level, j] = float(best)


def cosa_mapping(
    layer: LayerDims,
    config: HardwareConfig,
    scratchpad_partition: float = 0.5,
) -> Mapping:
    """Produce a performant valid mapping of ``layer`` onto ``config``.

    ``scratchpad_partition`` is the fraction of the scratchpad reserved for
    weights (the paper's CoSA setup partitions the scratchpad equally between
    inputs and weights).
    """
    if not (0.0 < scratchpad_partition < 1.0):
        raise ValueError("scratchpad_partition must lie strictly between 0 and 1")

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
    weight_budget = scratchpad_budget * scratchpad_partition
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
