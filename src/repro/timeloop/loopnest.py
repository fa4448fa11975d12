"""Per-level traffic analysis of an integral mapping (reference semantics).

For each memory level and each tensor it stores, the analysis computes

* **writes** — words brought in from the next-outer level holding the tensor,
* **reads** — words sent toward the processing elements (or drained outward,
  for the accumulator's output tile),
* **updates** — output/partial-sum words written from the MAC side.

The reuse analysis is loop-order aware: walking the temporal loops from the
target level outward (innermost loop first within each level), loops over
dimensions irrelevant to a tensor that appear before the first relevant loop
provide temporal reuse and do not force refetches; every loop after the first
relevant one does (paper Section 4.2).  Spatial factors never force refetches
(they are part of the resident tile) but do reduce traffic through spatial
reduction (partial sums summed inside the array) and broadcast (one read
serving many PEs), per Equations 8-11.

Unlike the differentiable model, this implementation uses integer arithmetic:
tile extents are rounded up to whole elements before being multiplied, which
reproduces the ceiling semantics of program-based analytical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.arch.components import (
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.mapping.mapping import DIM_INDEX, Mapping
from repro.workloads.layer import DIMENSIONS, TENSOR_DIMS

_FACTOR_EPS = 1e-9


def _integer_inner_extent(mapping: Mapping, level: int, dim: str) -> int:
    """Integer extent of ``dim`` inside the level-``level`` tile (ceil semantics)."""
    j = DIM_INDEX[dim]
    extent = float(mapping.spatial[:, j].prod())
    for inner_level in range(level):
        extent *= float(mapping.temporal[inner_level, j])
    return max(1, int(math.ceil(extent - _FACTOR_EPS)))


def tile_words(mapping: Mapping, level: int, tensor: str) -> int:
    """Words of ``tensor`` resident at ``level`` (integer tile sizes)."""
    layer = mapping.layer
    if tensor == "W":
        words = 1
        for dim in ("R", "S", "C", "K"):
            words *= _integer_inner_extent(mapping, level, dim)
        return words
    if tensor == "O":
        words = 1
        for dim in ("P", "Q", "K", "N"):
            words *= _integer_inner_extent(mapping, level, dim)
        return words
    if tensor == "I":
        words = (_integer_inner_extent(mapping, level, "C")
                 * _integer_inner_extent(mapping, level, "N"))
        height = (layer.stride_p * (_integer_inner_extent(mapping, level, "P") - 1)
                  + _integer_inner_extent(mapping, level, "R"))
        width = (layer.stride_q * (_integer_inner_extent(mapping, level, "Q") - 1)
                 + _integer_inner_extent(mapping, level, "S"))
        return words * height * width
    raise KeyError(f"unknown tensor {tensor!r}")


def reload_factor(mapping: Mapping, level: int, tensor: str) -> float:
    """Number of times the level-``level`` tile of ``tensor`` is (re)loaded.

    Walks the temporal loops from ``level`` outward, innermost loop first
    within each level per that level's ordering.  Loops over dimensions
    irrelevant to ``tensor`` preceding the first relevant loop are reuse loops
    and are skipped; everything afterwards multiplies.
    """
    relevant = TENSOR_DIMS[tensor]
    product = 1.0
    seen_relevant = False
    for walk_level in range(level, LEVEL_DRAM + 1):
        for dim in mapping.loop_order(walk_level):
            factor = mapping.temporal_factor(walk_level, dim)
            if factor <= 1.0 + _FACTOR_EPS:
                continue
            if not seen_relevant and dim not in relevant:
                continue
            product *= factor
            if dim in relevant:
                seen_relevant = True
    return product


def distinct_tiles(mapping: Mapping, level: int, tensor: str) -> float:
    """Number of distinct level-``level`` tiles of ``tensor`` over the layer."""
    relevant = TENSOR_DIMS[tensor]
    product = 1.0
    for walk_level in range(level, LEVEL_DRAM + 1):
        for dim in DIMENSIONS:
            if dim in relevant:
                product *= mapping.temporal_factor(walk_level, dim)
    return product


def spatial_irrelevant_product(mapping: Mapping, level: int, tensor: str) -> float:
    """Equation 8/10: product of level-``level`` spatial factors of dims not in ``tensor``."""
    relevant = TENSOR_DIMS[tensor]
    product = 1.0
    for dim in DIMENSIONS:
        if dim not in relevant:
            product *= mapping.spatial_factor(level, dim)
    return product


def total_macs(mapping: Mapping) -> float:
    """Total multiply-accumulate operations implied by the mapping's factors."""
    product = 1.0
    for dim in DIMENSIONS:
        product *= mapping.factor_product(dim)
    return product


@dataclass
class TrafficBreakdown:
    """Reads / writes / updates per memory level and tensor, plus MAC count."""

    macs: float
    reads: dict[int, dict[str, float]] = field(default_factory=dict)
    writes: dict[int, dict[str, float]] = field(default_factory=dict)
    updates: dict[int, dict[str, float]] = field(default_factory=dict)

    def accesses(self, level: int) -> float:
        """Total accesses at ``level`` (reads + writes + updates over tensors)."""
        total = 0.0
        for table in (self.reads, self.writes, self.updates):
            total += sum(table.get(level, {}).values())
        return total

    def per_level_accesses(self) -> dict[int, float]:
        return {level: self.accesses(level) for level in MEMORY_LEVEL_INDICES}

    def tensor_traffic(self, level: int, tensor: str) -> float:
        """Accesses at ``level`` attributable to ``tensor``."""
        return (self.reads.get(level, {}).get(tensor, 0.0)
                + self.writes.get(level, {}).get(tensor, 0.0)
                + self.updates.get(level, {}).get(tensor, 0.0))


def analyze_traffic(mapping: Mapping) -> TrafficBreakdown:
    """Full per-level, per-tensor traffic analysis of an integral mapping."""
    macs = total_macs(mapping)
    breakdown = TrafficBreakdown(macs=macs)
    for table in (breakdown.reads, breakdown.writes, breakdown.updates):
        for level in MEMORY_LEVEL_INDICES:
            table[level] = {}

    spatial_c = mapping.spatial_factor(LEVEL_ACCUMULATOR, "C")
    spatial_k = mapping.spatial_factor(LEVEL_SCRATCHPAD, "K")

    # ---- Weights: registers <- scratchpad <- DRAM -------------------- #
    writes_w_registers = tile_words(mapping, LEVEL_REGISTERS, "W") * reload_factor(
        mapping, LEVEL_REGISTERS, "W"
    )
    writes_w_scratchpad = tile_words(mapping, LEVEL_SCRATCHPAD, "W") * reload_factor(
        mapping, LEVEL_SCRATCHPAD, "W"
    )
    breakdown.writes[LEVEL_REGISTERS]["W"] = writes_w_registers
    breakdown.writes[LEVEL_SCRATCHPAD]["W"] = writes_w_scratchpad
    # Each MAC consumes the stationary weight from its local register.
    breakdown.reads[LEVEL_REGISTERS]["W"] = macs / spatial_irrelevant_product(
        mapping, LEVEL_REGISTERS, "W"
    )
    # Scratchpad feeds the register file; DRAM feeds the scratchpad.
    breakdown.reads[LEVEL_SCRATCHPAD]["W"] = writes_w_registers / spatial_irrelevant_product(
        mapping, LEVEL_SCRATCHPAD, "W"
    )
    breakdown.reads[LEVEL_DRAM]["W"] = writes_w_scratchpad

    # ---- Inputs: scratchpad <- DRAM ----------------------------------- #
    writes_i_scratchpad = tile_words(mapping, LEVEL_SCRATCHPAD, "I") * reload_factor(
        mapping, LEVEL_SCRATCHPAD, "I"
    )
    breakdown.writes[LEVEL_SCRATCHPAD]["I"] = writes_i_scratchpad
    # The scratchpad is the innermost input level; one read feeds all PEs the
    # input is broadcast to (the spatial K columns).
    breakdown.reads[LEVEL_SCRATCHPAD]["I"] = macs / max(spatial_k, 1.0)
    breakdown.reads[LEVEL_DRAM]["I"] = writes_i_scratchpad

    # ---- Outputs: accumulator <-> DRAM -------------------------------- #
    output_tile = tile_words(mapping, LEVEL_ACCUMULATOR, "O")
    reloads_o = reload_factor(mapping, LEVEL_ACCUMULATOR, "O")
    distinct_o = distinct_tiles(mapping, LEVEL_ACCUMULATOR, "O")
    drains = output_tile * reloads_o
    refills = output_tile * max(reloads_o - distinct_o, 0.0)
    # MAC-side partial-sum updates, reduced spatially along the C dimension.
    breakdown.updates[LEVEL_ACCUMULATOR]["O"] = macs / max(spatial_c, 1.0)
    # Drains toward DRAM read the accumulator; revisited tiles are refilled.
    breakdown.reads[LEVEL_ACCUMULATOR]["O"] = drains
    breakdown.writes[LEVEL_ACCUMULATOR]["O"] = refills
    breakdown.updates[LEVEL_DRAM]["O"] = drains
    breakdown.reads[LEVEL_DRAM]["O"] = refills

    return breakdown
