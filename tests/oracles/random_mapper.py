"""The random mapper one candidate at a time: the parity oracle.

This is the per-candidate loop that :mod:`repro.mapping.random_mapper`
replaced with a block kernel.  Each attempt draws one position per prime
factor of each dimension with a scalar ``rng.integers`` call, demotes
over-cap spatial factors one prime at a time, picks each level's loop
ordering with ``rng.choice``, and then fit-checks the built
:class:`~repro.mapping.mapping.Mapping` with
:func:`~repro.mapping.constraints.mapping_fits_hardware`.  The production
sampler must return the same mappings and leave the generator in the same
state.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import HardwareConfig
from repro.mapping.constraints import mapping_fits_hardware
from repro.mapping.mapping import (
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_LEVELS,
    SPATIAL_DIMS,
)
from repro.utils.math_utils import prime_factorization
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.layer import DIMENSIONS, LayerDims


def _random_split(
    value: int, num_positions: int, rng: np.random.Generator
) -> list[int]:
    """Split ``value`` into ``num_positions`` integer factors whose product is ``value``.

    Each prime factor of ``value`` is assigned to a uniformly random position,
    which makes every divisor-split reachable.
    """
    factors = [1] * num_positions
    for prime in prime_factorization(value):
        position = int(rng.integers(num_positions))
        factors[position] *= prime
    return factors


def random_mapping(
    layer: LayerDims,
    seed: SeedLike = None,
    max_spatial: int = 128,
) -> Mapping:
    """One random mapping, drawn scalar by scalar."""
    rng = make_rng(seed)
    mapping = Mapping(layer=layer)
    spatial_levels = {dim: level for level, dim in SPATIAL_DIMS}

    for dim in DIMENSIONS:
        j = DIM_INDEX[dim]
        # Positions: temporal at each level, plus one spatial slot if allowed.
        has_spatial = dim in spatial_levels
        num_positions = NUM_LEVELS + (1 if has_spatial else 0)
        split = _random_split(layer.dim(dim), num_positions, rng)
        for level in range(NUM_LEVELS):
            mapping.temporal[level, j] = float(split[level])
        if has_spatial:
            spatial_value = split[NUM_LEVELS]
            level = spatial_levels[dim]
            # Respect the PE-array cap by demoting excess factors to temporal.
            while spatial_value > max_spatial:
                for prime in prime_factorization(spatial_value):
                    if spatial_value // prime <= max_spatial or prime > 1:
                        spatial_value //= prime
                        mapping.temporal[level, j] *= prime
                        break
            mapping.spatial[level, j] = float(spatial_value)

    orderings = tuple(
        LoopOrdering(rng.choice([o.value for o in LoopOrdering]))
        for _ in range(NUM_LEVELS)
    )
    return mapping.with_orderings(orderings)


def random_mapping_for_hardware(
    layer: LayerDims,
    config: HardwareConfig,
    seed: SeedLike = None,
    max_attempts: int = 200,
) -> Mapping | None:
    """Rejection-sample one mapping that fits ``config``; None if none found."""
    rng = make_rng(seed)
    for _ in range(max_attempts):
        candidate = random_mapping(layer, seed=rng, max_spatial=config.pe_dim)
        if mapping_fits_hardware(candidate, config):
            return candidate
    return None
