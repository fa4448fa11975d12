"""Vectorized (NumPy) batch traffic analysis, bit-identical to the scalar walk.

The reference model, :mod:`repro.timeloop`, analyses one mapping at a time
with Python loops over levels, dimensions and tensors.  This module computes
the identical quantities — integer tile sizes (from the tile-word kernel
:func:`repro.mapping.constraints.tile_word_arrays`), loop-order-aware reload
factors, distinct-tile counts, spatial broadcast/reduction products and the
per-level read/write/update tables — for a whole *batch* of mappings with
array operations, so the per-mapping Python overhead is paid once per batch.
It is how every caller outside :mod:`repro.timeloop` scores mappings.

Bit-identity with the scalar path is a hard guarantee, not an approximation:
every factor is an integer represented exactly in float64 and every
intermediate product stays far below 2**53, so products are exact regardless
of association order, and the remaining floating-point operations (divisions,
sums) are issued in the same order as the scalar implementation.  The test
suite (``tests/test_eval_engine.py``) asserts equality with ``==``, not with
a tolerance.

Mappings in one batch may target different layers (different dimensions,
strides, loop orderings); :func:`evaluate_mappings_batched` shares one
hardware design per call, matching how the search strategies use it (many
candidates, one design), and :func:`evaluate_mapping_spec_pairs` takes one
design per mapping.
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
    PE_ENERGY_PER_MAC,
    level_bandwidth,
    level_energy_per_access,
)
from repro.arch.config import HardwareConfig
from repro.mapping.constraints import (
    FACTOR_EPS,
    TOLERANCE,
    factor_stacks,
    tile_word_arrays,
    validate_mapping,
)
from repro.mapping.mapping import (
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    SPATIAL_DIMS,
    ordering_for_tensor,
)
from repro.timeloop.accelergy import DRAM_BLOCK_WORDS
from repro.timeloop.model import PerformanceResult
from repro.workloads.layer import DIMENSIONS, TENSOR_DIMS, TENSORS

# Loop orderings in enum declaration order; ``ordering_index`` below maps a
# mapping's per-level orderings onto rows of the permutation table.
_ORDERINGS: tuple[LoopOrdering, ...] = tuple(LoopOrdering)
_ORDERING_INDEX: dict[LoopOrdering, int] = {o: i for i, o in enumerate(_ORDERINGS)}

# _ORDER_PERM[o] lists dimension indices in loop order (innermost first) for
# ordering o — the vectorized counterpart of Mapping.loop_order().
_ORDER_PERM = np.array(
    [[DIM_INDEX[d] for d in ordering_for_tensor(o)] for o in _ORDERINGS],
    dtype=np.intp,
)

# _RELEVANT[t][j] is True when dimension j is relevant to tensor t.
_RELEVANT = {
    tensor: np.array([d in TENSOR_DIMS[tensor] for d in DIMENSIONS])
    for tensor in TENSOR_DIMS
}

_DIM_COLS = {dim: DIM_INDEX[dim] for dim in DIMENSIONS}


@dataclass
class _MappingArrays:
    """Stacked factor/layer arrays of one batch of mappings."""

    temporal: np.ndarray      # (B, levels, dims)
    spatial: np.ndarray       # (B, levels, dims)
    ordering_idx: np.ndarray  # (B, levels) indices into _ORDERINGS
    stride_p: np.ndarray      # (B,)
    stride_q: np.ndarray      # (B,)

    @staticmethod
    def from_mappings(mappings: list[Mapping]) -> "_MappingArrays":
        temporal, spatial, stride_p, stride_q = factor_stacks(mappings)
        return _MappingArrays(
            temporal=temporal,
            spatial=spatial,
            ordering_idx=np.array(
                [[_ORDERING_INDEX[o] for o in m.orderings] for m in mappings],
                dtype=np.intp,
            ),
            stride_p=stride_p,
            stride_q=stride_q,
        )


def _reload_factors(arrays: _MappingArrays, level: int, tensor: str) -> np.ndarray:
    """(B,) loop-order-aware reload factors (vectorized ``reload_factor``).

    The walk sequence (levels outward, innermost loop first within each level)
    is materialized as a (B, positions) factor matrix via ordering-permutation
    gathers; the ``seen_relevant`` state machine becomes a cumulative-or over
    active relevant positions.
    """
    relevant_by_dim = _RELEVANT[tensor]
    factor_segments = []
    relevant_segments = []
    for walk_level in range(level, LEVEL_DRAM + 1):
        perm = _ORDER_PERM[arrays.ordering_idx[:, walk_level]]          # (B, dims)
        factor_segments.append(
            np.take_along_axis(arrays.temporal[:, walk_level, :], perm, axis=1))
        relevant_segments.append(relevant_by_dim[perm])
    factors = np.concatenate(factor_segments, axis=1)
    relevant = np.concatenate(relevant_segments, axis=1)

    active = factors > 1.0 + FACTOR_EPS
    relevant_active = active & relevant
    # seen_relevant *before* each position: a relevant active factor occurred
    # strictly earlier in the walk.
    seen_before = (np.cumsum(relevant_active, axis=1) - relevant_active) > 0
    include = active & (relevant | seen_before)
    return np.where(include, factors, 1.0).prod(axis=1)


def _distinct_tiles(arrays: _MappingArrays, level: int, tensor: str) -> np.ndarray:
    """(B,) distinct level tiles of ``tensor`` over the layer."""
    relevant_cols = np.flatnonzero(_RELEVANT[tensor])
    return arrays.temporal[:, level:, :][:, :, relevant_cols].prod(axis=(1, 2))


def _spatial_irrelevant(arrays: _MappingArrays, level: int, tensor: str) -> np.ndarray:
    """(B,) Equation 8/10 spatial broadcast/reduction products at ``level``."""
    irrelevant_cols = np.flatnonzero(~_RELEVANT[tensor])
    return arrays.spatial[:, level, irrelevant_cols].prod(axis=1)


def _total_macs(arrays: _MappingArrays) -> np.ndarray:
    """(B,) MAC counts: the product of every spatial and temporal factor."""
    return (arrays.temporal.prod(axis=1) * arrays.spatial.prod(axis=1)).prod(axis=1)


@dataclass
class BatchTraffic:
    """Per-level/per-tensor traffic of a batch, as (B,)-shaped arrays.

    ``reads``/``writes``/``updates`` mirror the dict layout (and insertion
    order) of the reference model's ``TrafficBreakdown``, with arrays in
    place of scalars.
    """

    macs: np.ndarray
    reads: dict[int, dict[str, np.ndarray]]
    writes: dict[int, dict[str, np.ndarray]]
    updates: dict[int, dict[str, np.ndarray]]

    def __len__(self) -> int:
        return len(self.macs)

    def per_level_accesses(self) -> np.ndarray:
        """(B, levels) access totals, summed in the scalar path's order."""
        totals = np.zeros((len(self.macs), len(MEMORY_LEVEL_INDICES)))
        for position, level in enumerate(MEMORY_LEVEL_INDICES):
            total = np.zeros(len(self.macs))
            for table in (self.reads, self.writes, self.updates):
                entries = list(table.get(level, {}).values())
                if not entries:
                    continue
                table_sum = np.zeros(len(self.macs))
                for values in entries:  # same order as sum(dict.values())
                    table_sum = table_sum + values
                total = total + table_sum
            totals[:, position] = total
        return totals


def batch_analyze_traffic(
    mappings: list[Mapping], arrays: _MappingArrays | None = None
) -> BatchTraffic:
    """Vectorized :func:`repro.timeloop.loopnest.analyze_traffic` over a batch.

    ``arrays`` lets callers that already stacked the batch (the validity
    screen shares the same arrays) skip a second stacking pass.
    """
    if arrays is None:
        arrays = _MappingArrays.from_mappings(mappings)
    macs = _total_macs(arrays)

    tiles = tile_word_arrays(arrays.temporal, arrays.spatial,
                             arrays.stride_p, arrays.stride_q)

    spatial_c = arrays.spatial[:, LEVEL_ACCUMULATOR, _DIM_COLS["C"]]
    spatial_k = arrays.spatial[:, LEVEL_SCRATCHPAD, _DIM_COLS["K"]]

    # ---- Weights: registers <- scratchpad <- DRAM ---------------------- #
    writes_w_registers = (tiles["W"][:, LEVEL_REGISTERS]
                          * _reload_factors(arrays, LEVEL_REGISTERS, "W"))
    writes_w_scratchpad = (tiles["W"][:, LEVEL_SCRATCHPAD]
                           * _reload_factors(arrays, LEVEL_SCRATCHPAD, "W"))
    reads_w_registers = macs / _spatial_irrelevant(arrays, LEVEL_REGISTERS, "W")
    reads_w_scratchpad = (writes_w_registers
                          / _spatial_irrelevant(arrays, LEVEL_SCRATCHPAD, "W"))

    # ---- Inputs: scratchpad <- DRAM ------------------------------------ #
    writes_i_scratchpad = (tiles["I"][:, LEVEL_SCRATCHPAD]
                           * _reload_factors(arrays, LEVEL_SCRATCHPAD, "I"))
    reads_i_scratchpad = macs / np.maximum(spatial_k, 1.0)

    # ---- Outputs: accumulator <-> DRAM --------------------------------- #
    output_tile = tiles["O"][:, LEVEL_ACCUMULATOR]
    reloads_o = _reload_factors(arrays, LEVEL_ACCUMULATOR, "O")
    distinct_o = _distinct_tiles(arrays, LEVEL_ACCUMULATOR, "O")
    drains = output_tile * reloads_o
    refills = output_tile * np.maximum(reloads_o - distinct_o, 0.0)
    updates_o_accumulator = macs / np.maximum(spatial_c, 1.0)

    return BatchTraffic(
        macs=macs,
        reads={
            LEVEL_REGISTERS: {"W": reads_w_registers},
            LEVEL_ACCUMULATOR: {"O": drains},
            LEVEL_SCRATCHPAD: {"W": reads_w_scratchpad, "I": reads_i_scratchpad},
            LEVEL_DRAM: {"W": writes_w_scratchpad, "I": writes_i_scratchpad,
                         "O": refills},
        },
        writes={
            LEVEL_REGISTERS: {"W": writes_w_registers},
            LEVEL_ACCUMULATOR: {"O": refills},
            LEVEL_SCRATCHPAD: {"W": writes_w_scratchpad, "I": writes_i_scratchpad},
            LEVEL_DRAM: {},
        },
        updates={
            LEVEL_REGISTERS: {},
            LEVEL_ACCUMULATOR: {"O": updates_o_accumulator},
            LEVEL_SCRATCHPAD: {},
            LEVEL_DRAM: {"O": drains},
        },
    )


def _batch_validate(mappings: list[Mapping], arrays: _MappingArrays) -> None:
    """Vectorized structural validity screen; delegates failures for messages.

    Mirrors :func:`repro.mapping.constraints.validate_mapping`; on the first
    violating mapping the scalar validator produces the canonical error text,
    so batch and scalar paths raise identical exceptions.
    """
    expected = np.array([[m.layer.dim(d) for d in DIMENSIONS] for m in mappings],
                        dtype=np.float64)
    products = arrays.temporal.prod(axis=1) * arrays.spatial.prod(axis=1)
    ws_forbidden = np.ones((arrays.spatial.shape[1], arrays.spatial.shape[2]), dtype=bool)
    for level, dim in SPATIAL_DIMS:
        ws_forbidden[level, DIM_INDEX[dim]] = False

    suspect = (
        (arrays.temporal < 1.0 - TOLERANCE).any(axis=(1, 2))
        | (arrays.spatial < 1.0 - TOLERANCE).any(axis=(1, 2))
        | (np.abs(arrays.temporal - np.round(arrays.temporal)) > 1e-9).any(axis=(1, 2))
        | (np.abs(arrays.spatial - np.round(arrays.spatial)) > 1e-9).any(axis=(1, 2))
        | (arrays.spatial[:, ws_forbidden] > 1.0 + TOLERANCE).any(axis=1)
        | (np.abs(products - expected) > TOLERANCE * np.maximum(expected, 1.0)).any(axis=1)
    )
    # Only suspect rows pay for the scalar validator, which produces the
    # canonical error message (identical to the evaluate_mapping path).
    for index in np.flatnonzero(suspect):
        problems = validate_mapping(mappings[int(index)])
        if problems:
            raise ValueError(
                "cannot evaluate an invalid mapping: " + "; ".join(problems))


def _dram_accesses_block_rounded(traffic: BatchTraffic) -> np.ndarray:
    """(B,) DRAM accesses, each tensor's traffic rounded up to whole blocks.

    Vectorized :func:`repro.timeloop.accelergy._dram_accesses_block_rounded`:
    tensors accumulate in the same W, I, O order with the same
    skip-nonpositive rule, so totals are bit-identical.
    """
    total = np.zeros(len(traffic))
    for tensor in TENSORS:
        words = np.zeros(len(traffic))
        for table in (traffic.reads, traffic.writes, traffic.updates):
            values = table.get(LEVEL_DRAM, {}).get(tensor)
            if values is not None:
                words = words + values
        blocks = np.ceil(words / DRAM_BLOCK_WORDS) * DRAM_BLOCK_WORDS
        total = total + np.where(words > 0.0, blocks, 0.0)
    return total


def _rate_arrays(
    hardware: HardwareConfig | list[HardwareConfig],
) -> tuple[np.ndarray, np.ndarray, "float | np.ndarray"]:
    """Bandwidth / access-energy / MAC-energy rates of one design or one per row.

    For a single design the arrays are ``(levels,)`` shaped and broadcast
    over the batch; for a per-mapping design list they are ``(B, levels)``
    shaped, so every downstream operation stays elementwise per row — the
    same float operations in the same order, hence the same bit-identity
    guarantee.  The rates are the Table-2 functions of
    :mod:`repro.arch.components`, as in the scalar path.
    """
    configs = [hardware] if isinstance(hardware, HardwareConfig) else hardware
    bandwidths = np.array([[level_bandwidth(level, config.num_pes)
                            for level in MEMORY_LEVEL_INDICES] for config in configs])
    access_energy = np.array([
        [level_energy_per_access(level, config.accumulator_kb, config.scratchpad_kb,
                                 config.num_pes) for level in MEMORY_LEVEL_INDICES]
        for config in configs])
    if isinstance(hardware, HardwareConfig):
        return bandwidths[0], access_energy[0], PE_ENERGY_PER_MAC
    return bandwidths, access_energy, np.full(len(configs), PE_ENERGY_PER_MAC)


def _results_from_traffic_batch(
    traffic: BatchTraffic, arrays: _MappingArrays,
    hardware: HardwareConfig | list[HardwareConfig],
) -> list[PerformanceResult]:
    """Assemble :class:`PerformanceResult` objects for a whole batch at once.

    The vectorized counterpart of the per-mapping
    :func:`repro.timeloop.model._result_from_traffic` +
    :func:`repro.timeloop.accelergy.energy_breakdown` walk: latencies, the
    roofline max and the energy sum are computed as ``(B,)`` arrays with the
    scalar path's operation order, so every field stays bit-identical.
    ``hardware`` may be one shared design or a list of one design per mapping
    (the cross-start rounding-point batches of the DOSA searcher evaluate
    several derived hardware configurations in one call).
    """
    macs = traffic.macs
    count = len(macs)
    parallelism = np.maximum(arrays.spatial.reshape(count, -1).prod(axis=1), 1.0)
    compute_latency = macs / parallelism

    accesses = traffic.per_level_accesses()  # (B, levels), scalar-order sums
    bandwidths, access_energy, mac_energy = _rate_arrays(hardware)
    memory_latency = accesses / bandwidths
    latency = np.maximum(compute_latency, memory_latency.max(axis=1))

    # Energy in the scalar association order — mac_energy + (sum of level
    # energies), levels inside out, the DRAM column block-rounded per tensor.
    level_total = np.zeros(count)
    for position, level in enumerate(MEMORY_LEVEL_INDICES):
        level_accesses = (_dram_accesses_block_rounded(traffic)
                          if level == LEVEL_DRAM else accesses[:, position])
        level_total = level_total + level_accesses * access_energy[..., position]
    energy = macs * mac_energy + level_total

    return [
        PerformanceResult(
            latency_cycles=float(latency[index]),
            energy=float(energy[index]),
            compute_latency=float(compute_latency[index]),
            memory_latency={level: float(memory_latency[index, position])
                            for position, level in enumerate(MEMORY_LEVEL_INDICES)},
            accesses={level: float(accesses[index, position])
                      for position, level in enumerate(MEMORY_LEVEL_INDICES)},
            macs=float(macs[index]),
        )
        for index in range(count)
    ]


def _evaluate_batch(
    mappings: list[Mapping], hardware: HardwareConfig | list[HardwareConfig],
) -> list[PerformanceResult]:
    """Validate, analyse and score ``mappings`` on one design or one per mapping."""
    if not mappings:
        return []
    arrays = _MappingArrays.from_mappings(mappings)
    _batch_validate(mappings, arrays)
    traffic = batch_analyze_traffic(mappings, arrays)
    return _results_from_traffic_batch(traffic, arrays, hardware)


def evaluate_mappings_batched(
    mappings: list[Mapping], hardware: HardwareConfig,
) -> list[PerformanceResult]:
    """Batch counterpart of :func:`repro.timeloop.model.evaluate_mapping`.

    Returns one :class:`PerformanceResult` per input mapping, in order, with
    every field bit-identical to the scalar path.  All mappings are evaluated
    on the same ``hardware``; layers may differ between mappings.
    """
    return _evaluate_batch(mappings, hardware)


def evaluate_mapping_spec_pairs(
    pairs: list[tuple[Mapping, HardwareConfig]],
) -> list[PerformanceResult]:
    """One vectorized pass over ``(mapping, hardware)`` pairs with *mixed* designs.

    The traffic walk is hardware-independent, so a batch spanning several
    hardware configurations (e.g. every start point's rounding evaluation of
    one DOSA step, each on its own derived hardware) still pays the stacked
    array analysis only once; the design enters only through the per-row
    bandwidth/energy rates.  Each pair's result is bit-identical to
    ``evaluate_mapping(mapping, hardware)``.
    """
    return _evaluate_batch([mapping for mapping, _ in pairs],
                           [hardware for _, hardware in pairs])
