"""The scalar Section-5.3.2 rounding walk: the oracle of the rounding kernel.

Factors are rounded to the nearest divisor one mapping, one dimension and one
position at a time, innermost to outermost, never letting the running product
exceed the problem size; the DRAM temporal factor absorbs the remainder.
:mod:`repro.mapping.rounding_walk` does the same over ``(S, L)`` tensors and
must agree bit for bit (``tests/test_rounding_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.arch.components import LEVEL_DRAM, MEMORY_LEVEL_INDICES
from repro.core.dmodel.factors import (
    OPTIMIZED_LEVELS,
    _MAX_LOG_FACTOR,
    _MIN_LOG_FACTOR,
    MultiStartFactors,
)
from repro.mapping.mapping import DIM_INDEX, Mapping, SPATIAL_DIMS
from repro.mapping.rounding_walk import _positions_for_dim
from repro.utils.math_utils import divisors
from repro.workloads.layer import DIMENSIONS


def round_to_nearest_divisor(value: float, n: int, max_value: int | None = None) -> int:
    """Round ``value`` to the divisor of ``n`` closest to it.

    If ``max_value`` is given, only divisors <= ``max_value`` are considered
    (there is always at least the divisor 1).  Ties round down, matching the
    conservative rounding used when snapping tiling factors.
    """
    candidates = [d for d in divisors(n) if max_value is None or d <= max_value]
    if not candidates:
        candidates = [1]
    best = candidates[0]
    best_gap = abs(value - best)
    for candidate in candidates[1:]:
        gap = abs(value - candidate)
        if gap < best_gap:
            best = candidate
            best_gap = gap
    return best


def round_factors_for_dimension(mapping: Mapping, dim: str, max_spatial: float | None = None) -> None:
    """Round all factors of one dimension in place (innermost to outermost).

    ``max_spatial`` caps the spatial factor of ``dim``; a fractional cap
    (e.g. a mesh bound computed as ``15.999999...``) is rounded to the
    nearest integer rather than truncated.  Caps below 1 are rejected.
    """
    if max_spatial is not None and max_spatial < 1:
        raise ValueError(f"max_spatial must be >= 1, got {max_spatial}")
    total = mapping.layer.dim(dim)
    remaining = total
    j = DIM_INDEX[dim]
    for kind, level in _positions_for_dim(dim):
        raw = mapping.spatial[level, j] if kind == "S" else mapping.temporal[level, j]
        limit = remaining
        if kind == "S" and max_spatial is not None:
            limit = min(limit, int(round(max_spatial)))
        rounded = round_to_nearest_divisor(max(raw, 1.0), remaining, max_value=limit)
        if kind == "S":
            mapping.spatial[level, j] = float(rounded)
        else:
            mapping.temporal[level, j] = float(rounded)
        remaining //= rounded
    mapping.temporal[LEVEL_DRAM, j] = float(remaining)


def round_mapping(mapping: Mapping, max_spatial: float | None = None) -> Mapping:
    """Return a valid, integral copy of ``mapping``.

    ``max_spatial`` optionally caps the spatial factors (the paper caps the
    PE array at 128x128, and the Gemmini-RTL experiments fix it to 16x16).
    Fractional caps are rounded to the nearest integer; caps below 1 raise
    ``ValueError``.
    """
    if max_spatial is not None and max_spatial < 1:
        raise ValueError(f"max_spatial must be >= 1, got {max_spatial}")
    rounded = mapping.copy()
    # The WS dataflow only supports spatial factors at the C/K positions; any
    # other spatial entry is structural noise and is reset before rounding.
    allowed = set(SPATIAL_DIMS)
    for level in MEMORY_LEVEL_INDICES:
        for dim in DIMENSIONS:
            if (level, dim) not in allowed:
                rounded.spatial[level, DIM_INDEX[dim]] = 1.0
    for dim in DIMENSIONS:
        round_factors_for_dimension(rounded, dim, max_spatial=max_spatial)
    return rounded


def snapshot_mappings(factors: MultiStartFactors, start: int) -> list[Mapping]:
    """One start point's current (possibly fractional) factors as mappings."""
    temporal = np.exp(np.clip(factors.log_temporal.data[start],
                              _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
    spatial = np.exp(np.clip(factors.log_spatial.data[start],
                             _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
    mappings = []
    for index, layer in enumerate(factors.layers):
        mapping = Mapping(layer=layer, orderings=factors.start_orderings[start][index])
        for level_pos, level in enumerate(OPTIMIZED_LEVELS):
            mapping.temporal[level, :] = temporal[index, level_pos, :]
        for position, (level, dim) in enumerate(SPATIAL_DIMS):
            mapping.spatial[level, DIM_INDEX[dim]] = spatial[index, position]
        mappings.append(mapping.with_dram_inferred())
    return mappings


def rounded_mappings_of(factors: MultiStartFactors, start: int,
                        max_spatial: float | None = None) -> list[Mapping]:
    """One start point's nearest valid mappings, walked one mapping at a time."""
    return [round_mapping(mapping, max_spatial=max_spatial)
            for mapping in snapshot_mappings(factors, start)]


def scalar_rounded_mapping_sets(factors: MultiStartFactors, starts=None,
                                max_spatial: float | None = None) -> list[list[Mapping]]:
    """Drop-in for :meth:`MultiStartFactors.rounded_mapping_sets` on the scalar walk.

    Tests patch it over the kernel-backed method to run whole searches on
    the oracle walk.
    """
    if starts is None:
        starts = range(factors.num_starts)
    return [rounded_mappings_of(factors, int(start), max_spatial=max_spatial)
            for start in starts]
