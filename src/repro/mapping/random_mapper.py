"""Random valid-mapping generation.

Random mappings serve three roles in the reproduction, mirroring the paper:

* the correlation dataset of Figure 4 (random Gemmini configs x random
  mappings),
* the mapping side of the random-search and Bayesian-optimization baselines
  (Sections 6.1 and 6.3), including the "random-pruned" mapper used to
  evaluate the fixed baseline accelerators of Figure 8,
* the training dataset for the DNN latency-difference predictor (Section 6.5).

One block kernel draws every random mapping.  A candidate mapping is one
*attempt*: a draw per prime factor of each dimension places that prime in a
temporal slot at one memory level or, for C and K, in the dimension's
spatial slot; then a draw per level picks its loop ordering.
The kernel draws a block of ``n`` attempts with one ``rng.integers`` call
over the attempt's range vector tiled ``n`` times, builds the block's
``(n, levels, dims)`` factor tensors, demotes over-cap spatial factors and
fit-checks every attempt in array passes, and builds :class:`Mapping`
objects only for the attempts it returns.  NumPy draws an array of bounded
integers exactly as it draws them one scalar call at a time, so
:func:`random_mappings_for_hardware` returns what ``count`` calls of the
one-candidate-at-a-time loop (``tests/oracles/random_mapper.py``) return,
and leaves the generator in the state they leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.arch.config import HardwareConfig
from repro.mapping.constraints import fits_hardware_arrays
from repro.mapping.mapping import (
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_DIMS,
    NUM_LEVELS,
    SPATIAL_DIMS,
)
from repro.utils.math_utils import prime_factorization
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.layer import DIMENSIONS, LayerDims

#: Loop orderings in the order an ordering draw indexes them.
_ORDERINGS: tuple[LoopOrdering, ...] = tuple(LoopOrdering)
#: A prime's positions: a temporal slot per level, then the spatial slot.
_POSITIONS = np.arange(NUM_LEVELS + 1)
_SPATIAL_POSITION = NUM_LEVELS
#: Dimension index -> level of its spatial slot (C and K only).
_SPATIAL_LEVEL = {DIM_INDEX[dim]: level for level, dim in SPATIAL_DIMS}


@dataclass(frozen=True)
class _Plan:
    """What one attempt draws for one layer.

    ``highs`` is the attempt's range vector: per dimension, one draw per
    prime factor, with range ``NUM_LEVELS`` plus 1 for the C or K spatial
    slot; then ``NUM_LEVELS`` ordering draws of range 3.  ``slots[d]``
    indexes dimension ``d``'s prime draws in ascending prime order and
    ``primes[d]`` holds those primes; rows are padded with prime 1, which
    multiplies nothing wherever it lands.
    """

    highs: np.ndarray   # (draws,)
    slots: np.ndarray   # (dims, width) draw index of each prime
    primes: np.ndarray  # (dims, width)
    num_prime_draws: int


@lru_cache(maxsize=4096)
def _plan(layer: LayerDims) -> _Plan:
    factorizations = [prime_factorization(layer.dim(dim)) for dim in DIMENSIONS]
    width = max(len(factors) for factors in factorizations)
    slots = np.zeros((NUM_DIMS, width), dtype=np.intp)
    primes = np.ones((NUM_DIMS, width), dtype=np.int64)
    highs: list[int] = []
    for j, factors in enumerate(factorizations):
        slots[j, :len(factors)] = np.arange(len(highs), len(highs) + len(factors))
        primes[j, :len(factors)] = factors
        num_positions = len(_POSITIONS) if j in _SPATIAL_LEVEL else NUM_LEVELS
        highs += [num_positions] * len(factors)
    num_prime_draws = len(highs)
    highs += [len(_ORDERINGS)] * NUM_LEVELS
    plan = _Plan(np.array(highs, dtype=np.int64), slots, primes, num_prime_draws)
    for array in (plan.highs, plan.slots, plan.primes):
        array.setflags(write=False)  # shared by every caller of the cache
    return plan


def _draw_attempts(
    plan: _Plan, rng: np.random.Generator, n: int, max_spatial: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``n`` attempts: their ``(n, levels, dims)`` temporal and spatial
    factors and their ``(n, levels)`` ordering draws.

    A spatial factor above ``max_spatial`` gives up its smallest prime to
    the temporal factor at the same level until it is within the cap.
    """
    if max_spatial < 1:
        raise ValueError(f"max_spatial must be >= 1, got {max_spatial}")
    draws = rng.integers(0, np.tile(plan.highs, n)).reshape(n, -1)
    positions = draws[:, plan.slots]  # (n, dims, width)
    for j, level in _SPATIAL_LEVEL.items():
        # Spatial primes sit in ascending order along the row, so a prime is
        # demoted exactly when it and the larger spatial primes after it
        # multiply to more than the cap.
        row = positions[:, j]
        spatial = row == _SPATIAL_POSITION
        suffix = np.cumprod(np.where(spatial, plan.primes[j], 1)[:, ::-1], axis=1)[:, ::-1]
        row[spatial & (suffix > max_spatial)] = level
    # factors[a, p, d]: product of dimension d's primes drawn to position p.
    factors = np.where(positions[:, None] == _POSITIONS[:, None, None],
                       plan.primes, 1).prod(axis=3)
    temporal = factors[:, :NUM_LEVELS].astype(np.float64)
    spatial = np.ones_like(temporal)
    for j, level in _SPATIAL_LEVEL.items():
        spatial[:, level, j] = factors[:, _SPATIAL_POSITION, j]
    return temporal, spatial, draws[:, plan.num_prime_draws:]


def _partition(
    fits: np.ndarray, count: int, max_attempts: int
) -> tuple[list[int | None], int] | None:
    """Split a run of attempts into ``count`` rejection-sampling calls.

    Each call takes attempts until its first fit or its ``max_attempts``-th
    miss.  Returns each call's fitting attempt (None after the misses) and
    the number of attempts used, or None when the calls need more attempts
    than ``fits`` holds.
    """
    drawn = len(fits)
    # next_fit[i]: the first fitting attempt at or after i (drawn if none).
    next_fit = np.minimum.accumulate(
        np.where(fits, np.arange(drawn), drawn)[::-1])[::-1].tolist() + [drawn]
    picks: list[int | None] = []
    cursor = 0
    for _ in range(count):
        hit = next_fit[cursor]
        if hit < min(cursor + max_attempts, drawn):
            picks.append(hit)
            cursor = hit + 1
        elif cursor + max_attempts <= drawn:
            picks.append(None)
            cursor += max_attempts
        else:
            return None
    return picks, cursor


def _mapping(layer: LayerDims, temporal: np.ndarray, spatial: np.ndarray,
             orderings: np.ndarray) -> Mapping:
    """One attempt of a block as a :class:`Mapping` owning its arrays."""
    return Mapping(
        layer=layer, temporal=temporal.copy(), spatial=spatial.copy(),
        orderings=tuple(_ORDERINGS[k] for k in orderings.tolist()))


def random_mappings_for_hardware(
    layer: LayerDims,
    config: HardwareConfig,
    count: int,
    seed: SeedLike = None,
    max_attempts: int = 200,
) -> list[Mapping | None]:
    """``count`` random mappings of ``layer`` that fit ``config``.

    This is the inner-loop mapper of the two-loop baselines: each entry is
    rejection-sampled against the hardware's PE-array and SRAM capacities,
    the first of up to ``max_attempts`` attempts that fits, or None when
    none does.  Spatial factors are capped at ``config.pe_dim``.  The result
    and the generator's final state are those of ``count`` successive
    :func:`random_mapping_for_hardware` calls on the same generator.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if max_attempts < 0:
        raise ValueError(f"max_attempts must be >= 0, got {max_attempts}")
    rng = make_rng(seed)
    if count == 0 or max_attempts == 0:
        return [None] * count
    plan = _plan(layer)
    # Draw a generous block, extend it (which continues the stream) until
    # the calls' attempts are all drawn, then rewind to the snapshot and
    # redraw just the attempts used, so the generator ends where the calls
    # would leave it.  A bounded draw uses a data-dependent number of raw
    # draws, so only a redraw, not PCG64.advance, can find that state.
    snapshot = rng.bit_generator.state
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    fits = np.zeros(0, dtype=bool)
    split = None
    while split is None:
        # The first block has a quarter more attempts than calls, which
        # covers the baselines' usual 86-94% fit rate; each extension
        # doubles the attempts drawn.
        temporal, spatial, orderings = _draw_attempts(
            plan, rng, len(fits) or count + count // 4 + 1, config.pe_dim)
        blocks.append((temporal, spatial, orderings))
        fits = np.concatenate([fits, fits_hardware_arrays(
            temporal, spatial, layer.stride_p, layer.stride_q, config)])
        split = _partition(fits, count, max_attempts)
    picks, used = split
    if used < len(fits):
        rng.bit_generator.state = snapshot
        rng.integers(0, np.tile(plan.highs, used))
    temporal, spatial, orderings = (np.concatenate(parts) for parts in zip(*blocks))
    return [None if i is None else _mapping(layer, temporal[i], spatial[i], orderings[i])
            for i in picks]


def random_mapping(
    layer: LayerDims,
    seed: SeedLike = None,
    max_spatial: int = 128,
) -> Mapping:
    """Sample a structurally valid random mapping for ``layer``.

    Spatial factors (C at the accumulator level, K at the scratchpad level)
    are capped at ``max_spatial``: an over-cap spatial factor moves its
    smallest prime to the same level's temporal factor until it is within
    the cap, so the per-dimension product stays exact.
    """
    rng = make_rng(seed)
    temporal, spatial, orderings = _draw_attempts(
        _plan(layer), rng, 1, max_spatial)
    return _mapping(layer, temporal[0], spatial[0], orderings[0])


def random_mapping_for_hardware(
    layer: LayerDims,
    config: HardwareConfig,
    seed: SeedLike = None,
    max_attempts: int = 200,
) -> Mapping | None:
    """Sample a random mapping that fits ``config``; None if none found.

    One call of :func:`random_mappings_for_hardware` with ``count=1``.
    """
    [mapping] = random_mappings_for_hardware(
        layer, config, 1, seed=seed, max_attempts=max_attempts)
    return mapping
