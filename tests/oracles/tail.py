"""The DOSA loss after the traffic terms, one node per operation.

The production model derives hardware, prices it with Table 2, and folds the
roofline latency, the energy, the Equation-14 EDP and the Equation-18
penalty in a few fused kernels (``core/dmodel/hardware.py``, ``model.py``
and ``loss.py``).  This module builds the chain of nodes they replaced, on
the production model's dense terms and traffic, so the parity tests can
compare losses and gradients as ``tobytes()``:

* :func:`fold_max` — the left-fold maximum as one node, with the production
  tie split (:func:`repro.autodiff.ops.fold_max_grad`) as its backward;
* :class:`ChainHardware` — hardware as per-start ``num_pes`` /
  ``accumulator_kb`` / ``scratchpad_kb`` values, priced one Table-2 term at a
  time (:meth:`~ChainHardware.bandwidth`,
  :meth:`~ChainHardware.energy_per_access`); the per-column model
  (:mod:`oracles.layer_model`) uses it too;
* :func:`derive_hardware`, :func:`evaluate_layer`, :func:`network_edp_loss`,
  :func:`validity_penalty`, :func:`softmax_ordering_loss` and
  :func:`search_loss` — the tail as a gather, folds, elementwise nodes,
  stacks and concats, ending in the fold of ``DosaSearcher._loss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from repro.arch.components import (
    ACCUMULATOR_EPA_BASE,
    ACCUMULATOR_EPA_SLOPE,
    BYTES_PER_WORD,
    DRAM_BANDWIDTH_WORDS_PER_CYCLE,
    DRAM_ENERGY_PER_ACCESS,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
    PE_ENERGY_PER_MAC,
    REGISTER_ENERGY_PER_ACCESS,
    SCRATCHPAD_EPA_BASE,
    SCRATCHPAD_EPA_SLOPE,
)
from repro.arch.config import HardwareConfig
from repro.autodiff import Tensor, ops
from repro.core.dmodel.loss import _CANDIDATE_ORDERINGS, _PENALTY_SLOTS
from repro.core.dmodel.model import (
    _SCRATCHPAD_TILES,
    _SIDE_SLOTS,
    DenseTerms,
    DifferentiableModel,
    LayerPerformance,
)
from repro.core.optimizer.dosa import DosaSettings, LoopOrderingStrategy

Value = Union[Tensor, float]


def fold_max(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Left-fold maximum along ``axis``, as one node (``keepdims`` keeps the
    folded axis with length 1)."""
    axis = axis % x.data.ndim
    running: list = [None]

    def forward():
        running[0] = np.maximum.accumulate(x.data, axis=axis)
        return running[0].take([-1] if keepdims else -1, axis=axis)

    def backward(grad: np.ndarray):
        kept = grad if keepdims else np.expand_dims(grad, axis)
        return (np.moveaxis(ops.fold_max_grad(np.moveaxis(kept, axis, 0),
                                              np.moveaxis(x.data, axis, 0),
                                              np.moveaxis(running[0], axis, 0)), 0, axis),)

    return x._make_child(forward(), (x,), backward, forward)


def _level_stack(values: list) -> Tensor:
    """Per-level values stacked along a new leading axis, at least 3-D."""
    stacked = ops.stack(values)
    return stacked if stacked.ndim == 3 else stacked.reshape(len(values), 1, 1)


@dataclass
class ChainHardware:
    """Hardware parameters as (possibly differentiable) values.

    ``num_pes`` is the total PE count, ``accumulator_kb`` / ``scratchpad_kb``
    the SRAM capacities in kilobytes: 0-d tensors of one layer's graph, the
    ``(S, 1)`` fields of a derivation over S starts, or plain floats.
    """

    num_pes: Value
    accumulator_kb: Value
    scratchpad_kb: Value

    @staticmethod
    def from_requirements(spatial_factors: Tensor, accumulator_words: Value,
                          scratchpad_words: Value) -> "ChainHardware":
        """The PE count is the square of the fold maximum of the candidate
        side lengths (last axis); the capacities convert words to kilobytes."""
        side = fold_max(spatial_factors)
        return ChainHardware(
            num_pes=side * side,
            accumulator_kb=accumulator_words * (BYTES_PER_WORD[LEVEL_ACCUMULATOR] / 1024.0),
            scratchpad_kb=scratchpad_words * (BYTES_PER_WORD[LEVEL_SCRATCHPAD] / 1024.0),
        )

    @property
    def mac_energy(self) -> float:
        return PE_ENERGY_PER_MAC

    @cached_property
    def _array_side(self) -> Value:
        """``sqrt(num_pes)``, one node shared by the terms that need it."""
        return self.num_pes**0.5

    @cached_property
    def _sram_bandwidth(self) -> Value:
        """The accumulator's and the scratchpad's bandwidth, one node."""
        return 2.0 * self._array_side

    def energy_per_access(self, level: int) -> Value:
        """Energy per access at ``level`` (Table 2)."""
        if level == LEVEL_REGISTERS:
            return REGISTER_ENERGY_PER_ACCESS
        if level == LEVEL_ACCUMULATOR:
            return (ACCUMULATOR_EPA_BASE
                    + ACCUMULATOR_EPA_SLOPE * self.accumulator_kb / self._array_side)
        if level == LEVEL_SCRATCHPAD:
            return SCRATCHPAD_EPA_BASE + SCRATCHPAD_EPA_SLOPE * self.scratchpad_kb
        if level == LEVEL_DRAM:
            return DRAM_ENERGY_PER_ACCESS
        raise ValueError(f"unknown memory level {level}")

    def bandwidth(self, level: int) -> Value:
        """Bandwidth (words/cycle) at ``level`` (Table 2)."""
        if level == LEVEL_REGISTERS:
            return 2.0 * self.num_pes
        if level in (LEVEL_ACCUMULATOR, LEVEL_SCRATCHPAD):
            return self._sram_bandwidth
        if level == LEVEL_DRAM:
            return DRAM_BANDWIDTH_WORDS_PER_CYCLE
        raise ValueError(f"unknown memory level {level}")

    @cached_property
    def level_bandwidths(self) -> Tensor:
        """Every level's :meth:`bandwidth`, stacked: ``(levels, S, 1)``."""
        return _level_stack([self.bandwidth(level) for level in MEMORY_LEVEL_INDICES])

    @cached_property
    def action_energies(self) -> Tensor:
        """The MAC energy, then every level's :meth:`energy_per_access`."""
        return _level_stack([self.mac_energy] + [self.energy_per_access(level)
                                                 for level in MEMORY_LEVEL_INDICES])

    def to_config(self, bounds=None) -> HardwareConfig:
        """Snap the (possibly fractional) parameters to a concrete config.

        Needs one configuration: scalar fields, or the ``(1, 1)`` fields of a
        single-start derivation.
        """
        from repro.arch.config import DEFAULT_BOUNDS, minimal_hardware_for_requirements

        def scalar(value: Value) -> float:
            return float(value.data.item() if isinstance(value, Tensor) else value)

        num_pes = scalar(self.num_pes)
        return minimal_hardware_for_requirements(
            spatial_requirement=num_pes**0.5,
            accumulator_word_requirement=(scalar(self.accumulator_kb) * 1024.0
                                          / BYTES_PER_WORD[LEVEL_ACCUMULATOR]),
            scratchpad_word_requirement=(scalar(self.scratchpad_kb) * 1024.0
                                         / BYTES_PER_WORD[LEVEL_SCRATCHPAD]),
            bounds=bounds or DEFAULT_BOUNDS,
        )


class ChainTerms(DenseTerms):
    """The dense terms plus ``compute_latency``, ``per_mac``'s first row as
    one node that every ordering's latency shares."""

    def __init__(self, factors) -> None:
        super().__init__(factors)
        self.compute_latency = self.per_mac[:1]


def derive_hardware(factors, terms: DenseTerms | None = None) -> ChainHardware:
    """Minimal hardware per start: a gather of the side-length candidates
    and three fold maxima."""
    terms = terms if terms is not None else ChainTerms(factors)
    slots = np.broadcast_to(_SIDE_SLOTS, (1, len(factors.layers), len(_SIDE_SLOTS)))
    sides = factors.positions(slots).reshape(factors.num_starts, 1, -1)
    return ChainHardware.from_requirements(
        spatial_factors=ops.gather(terms.tensor, sides),
        accumulator_words=fold_max(terms.output_tile, keepdims=True),
        scratchpad_words=fold_max(ops.sequence_sum(terms.tiles, _SCRATCHPAD_TILES),
                                  keepdims=True),
    )


def evaluate_layer(factors, hardware: ChainHardware,
                   terms: ChainTerms | None = None) -> LayerPerformance:
    """Roofline latency and energy over the production traffic: a concat
    and a fold maximum, a concat, a product and a fold sum."""
    terms = terms if terms is not None else ChainTerms(factors)
    accesses = DifferentiableModel.traffic(factors, terms)
    latency = fold_max(ops.concat(
        [terms.compute_latency, accesses / hardware.level_bandwidths]), axis=0)
    energy = ops.fold_sum(ops.concat([terms.macs, accesses])
                          * hardware.action_energies, axis=0)
    return LayerPerformance(latency=latency, energy=energy, accesses=accesses)


def network_edp_loss(performance: LayerPerformance, repeats: Sequence[int]) -> Tensor:
    """Equation 14 as two weighted fold sums and their product."""
    reps = Tensor(np.array([float(rep) for rep in repeats]))
    total_energy = ops.fold_sum(performance.energy * reps, axis=-1)
    total_latency = ops.fold_sum(performance.latency * reps, axis=-1)
    return total_energy * total_latency


def validity_penalty(factors, terms: DenseTerms | None = None) -> Tensor:
    """Equation 18 as a gather, ``1 - f``, a relu and a fold sum."""
    tensor = terms.tensor if terms is not None else factors.factor_tensor()
    slots = np.broadcast_to(_PENALTY_SLOTS, (1, len(factors.layers), len(_PENALTY_SLOTS)))
    values = ops.gather(tensor, factors.positions(slots).reshape(factors.num_starts, -1))
    return ops.fold_sum(ops.relu(1.0 - values), axis=-1)


def softmax_ordering_loss(factors, repeats: Sequence[int], hardware: ChainHardware,
                          terms: ChainTerms) -> Tensor:
    """Equations 15-17 over the chain's latencies and energies."""
    energies = []
    latencies = []
    for ordering in _CANDIDATE_ORDERINGS:
        perf = evaluate_layer(factors.with_uniform_orderings(ordering), hardware, terms)
        energies.append(perf.energy)
        latencies.append(perf.latency)
    energy_matrix = ops.stack(energies)
    latency_matrix = ops.stack(latencies)
    weights = ops.softmax(1.0 / (energy_matrix * latency_matrix), axis=0)
    reps = np.array([float(rep) for rep in repeats])
    weighted_energy = (weights * energy_matrix).sum(axis=0) * reps
    weighted_latency = (weights * latency_matrix).sum(axis=0) * reps
    return ops.fold_sum(weighted_energy) * ops.fold_sum(weighted_latency)


def search_loss(settings: DosaSettings, factors, repeats: Sequence[int],
                active: np.ndarray | None = None) -> Tensor:
    """``DosaSearcher._loss`` with the chain for everything after the traffic."""
    terms = ChainTerms(factors)
    hardware = derive_hardware(factors, terms)
    if settings.ordering_strategy is LoopOrderingStrategy.SOFTMAX:
        objective = softmax_ordering_loss(factors, repeats, hardware, terms)
    else:
        objective = network_edp_loss(evaluate_layer(factors, hardware, terms), repeats)
    objective = objective + settings.penalty_weight * validity_penalty(factors, terms)
    if active is not None and not active.all():
        objective = objective * Tensor(active.astype(np.float64))
    return ops.fold_sum(objective)
