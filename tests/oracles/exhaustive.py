"""Exhaustive mapping search for small layers (an optimality oracle).

For layers whose dimensions have few divisors, the full mapspace (all divisor
splits across the memory levels plus the three loop orderings) is small enough
to enumerate.  The exhaustive optimum serves two purposes in the reproduction:

* a ground-truth oracle for tests — heuristic and gradient-based mappers can be
  checked against the true best EDP on tiny layers,
* a way to measure how close CoSA-style and DOSA mappings get to optimal on
  problems where the optimum is known, mirroring the "near-optimal mappings"
  claim of Section 6.4 at a scale where it can be verified exactly.

The enumeration cost grows as the product of the per-dimension divisor-split
counts; :func:`mapspace_size` lets callers check it is tractable before
enumerating.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from repro.arch.config import HardwareConfig
from repro.mapping.constraints import mapping_fits_hardware
from repro.mapping.mapping import DIM_INDEX, LoopOrdering, Mapping, NUM_LEVELS, SPATIAL_DIMS
from repro.timeloop.model import evaluate_mapping
from repro.utils.math_utils import divisors
from repro.workloads.layer import DIMENSIONS, LayerDims


def _splits(value: int, positions: int) -> list[tuple[int, ...]]:
    """All ways to write ``value`` as an ordered product of ``positions`` divisors."""
    if positions == 1:
        return [(value,)]
    results: list[tuple[int, ...]] = []
    for head in divisors(value):
        for rest in _splits(value // head, positions - 1):
            results.append((head, *rest))
    return results


def _positions_per_dim(dim: str) -> int:
    """Number of factor positions for one dimension (temporal levels + spatial slot)."""
    spatial_levels = {d for _, d in SPATIAL_DIMS}
    return NUM_LEVELS + (1 if dim in spatial_levels else 0)


def mapspace_size(layer: LayerDims, orderings_per_level: int = 3) -> int:
    """Number of candidate mappings the exhaustive search would enumerate."""
    total = orderings_per_level
    for dim in DIMENSIONS:
        total *= len(_splits(layer.dim(dim), _positions_per_dim(dim)))
    return total


def enumerate_mappings(
    layer: LayerDims,
    max_spatial: int = 128,
    include_orderings: bool = True,
) -> Iterator[Mapping]:
    """Yield every structurally valid mapping of ``layer`` (use on small layers only)."""
    spatial_levels = {d: level for level, d in SPATIAL_DIMS}
    per_dim_splits = [_splits(layer.dim(dim), _positions_per_dim(dim)) for dim in DIMENSIONS]
    orderings = ([LoopOrdering.WEIGHT_STATIONARY, LoopOrdering.INPUT_STATIONARY,
                  LoopOrdering.OUTPUT_STATIONARY] if include_orderings
                 else [LoopOrdering.WEIGHT_STATIONARY])

    for combination in product(*per_dim_splits):
        mapping = Mapping(layer=layer)
        feasible = True
        for dim, split in zip(DIMENSIONS, combination):
            j = DIM_INDEX[dim]
            for level in range(NUM_LEVELS):
                mapping.temporal[level, j] = float(split[level])
            if dim in spatial_levels:
                spatial_value = split[NUM_LEVELS]
                if spatial_value > max_spatial:
                    feasible = False
                    break
                mapping.spatial[spatial_levels[dim], j] = float(spatial_value)
        if not feasible:
            continue
        for ordering in orderings:
            yield mapping.with_orderings([ordering] * NUM_LEVELS)


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of an exhaustive mapspace sweep on one layer."""

    best_mapping: Mapping
    best_edp: float
    evaluated: int


def exhaustive_best_mapping(
    layer: LayerDims,
    hardware: HardwareConfig,
    max_candidates: int = 2_000_000,
    require_fit: bool = True,
) -> ExhaustiveResult:
    """The EDP-optimal mapping of ``layer`` on ``hardware`` by enumeration.

    Raises ``ValueError`` when the mapspace exceeds ``max_candidates`` — the
    oracle is meant for small layers; large layers are what the heuristic and
    gradient-based mappers are for.
    """
    size = mapspace_size(layer)
    if size > max_candidates:
        raise ValueError(
            f"mapspace of {size} candidates exceeds the limit of {max_candidates}; "
            "exhaustive search is only intended for small layers")
    best_mapping: Mapping | None = None
    best_edp = float("inf")
    evaluated = 0
    for mapping in enumerate_mappings(layer, max_spatial=hardware.pe_dim):
        if require_fit and not mapping_fits_hardware(mapping, hardware):
            continue
        result = evaluate_mapping(mapping, hardware)
        evaluated += 1
        if result.edp < best_edp:
            best_edp = result.edp
            best_mapping = mapping
    if best_mapping is None:
        raise RuntimeError("no feasible mapping found in the exhaustive sweep")
    return ExhaustiveResult(best_mapping=best_mapping, best_edp=best_edp, evaluated=evaluated)
