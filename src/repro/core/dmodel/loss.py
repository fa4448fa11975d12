"""Loss construction for the DOSA gradient-descent search.

* :func:`network_edp_loss` — Equation 14: (sum of layer energies) x (sum of
  layer latencies), with repeated layers scaled by their repetition counts.
* :func:`validity_penalty` — Equation 18: a hinge penalty pushing every tiling
  factor (including the inferred DRAM factors) to stay at or above 1.
* :func:`softmax_ordering_loss` — Equations 15-17: the gradient-based loop
  ordering strategy, weighting each candidate ordering's energy and latency by
  the softmax of its inverse EDP.
* :func:`best_ordering_per_layer` — the iterative loop-ordering selection of
  Section 5.2.1.

Every loss takes a start-batched :class:`MultiStartFactors` (or the
``(S, L)``-valued :class:`LayerPerformance` evaluated from one) and returns
one value per start point, shape ``(S,)``.  The layer axis is reduced with
the left-fold sums of :func:`repro.autodiff.ops.fold_sum`, in the same element
order as a per-layer Python fold; start points are independent descents, so
nothing mixes their losses before the caller's final fold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff import Tensor, no_grad, ops
from repro.core.dmodel.factors import MultiStartFactors, MultiStartGrid
from repro.core.dmodel.hardware import DifferentiableHardware
from repro.core.dmodel.model import DifferentiableModel, LayerPerformance
from repro.mapping.mapping import LoopOrdering


def _repeat_vector(repeats: Sequence[int], count: int) -> Tensor:
    if len(repeats) != count:
        raise ValueError("one repetition count is required per layer performance")
    return Tensor(np.array([float(rep) for rep in repeats]))


def network_edp_loss(performance: LayerPerformance,
                     repeats: Sequence[int]) -> Tensor:
    """Whole-model EDP (Equation 14): sum energies x sum latencies.

    ``performance`` holds ``(S, L)`` energy/latency tensors; the result is the
    ``(S,)`` vector of per-start network EDPs.
    """
    reps = _repeat_vector(repeats, performance.energy.shape[-1])
    total_energy = ops.fold_sum(performance.energy * reps, axis=-1)
    total_latency = ops.fold_sum(performance.latency * reps, axis=-1)
    return total_energy * total_latency


def validity_penalty(factors: MultiStartFactors,
                     grid: MultiStartGrid | None = None) -> Tensor:
    """Equation 18: sum of ``max(1 - f, 0)`` over every tiling factor.

    Returns the ``(S,)`` vector of per-start penalties, each folded over its
    hinges layer-major (all of layer 0's factors, then layer 1's, ...).
    ``grid`` lets the caller reuse one factor grid across the loss graph.
    """
    grid = grid if grid is not None else factors.factor_grid()
    hinges = [ops.relu(1.0 - value) for value in grid.values()
              if isinstance(value, Tensor)]
    # (entries, S, L) -> (S, L, entries) -> per-start layer-major fold.
    flat = ops.transpose(ops.stack(hinges), (1, 2, 0)).reshape(
        factors.num_starts, len(factors.layers) * len(hinges))
    return ops.fold_sum(flat, axis=-1)


_CANDIDATE_ORDERINGS: tuple[LoopOrdering, ...] = (
    LoopOrdering.WEIGHT_STATIONARY,
    LoopOrdering.INPUT_STATIONARY,
    LoopOrdering.OUTPUT_STATIONARY,
)


def softmax_ordering_loss(
    factors: MultiStartFactors,
    repeats: Sequence[int],
    hardware: DifferentiableHardware | None = None,
    grid: MultiStartGrid | None = None,
) -> Tensor:
    """Equations 15-17: loss with softmax-weighted loop-ordering mixtures.

    For every layer, the energies and latencies of the WS/IS/OS orderings are
    combined with weights ``softmax(1 / (E ⊙ L))``; the weighted per-layer
    energies and latencies are then composed into the whole-model EDP.  Each
    candidate ordering is evaluated once over all starts and layers
    (``(3, S, L)`` energy/latency tensors); the result is the ``(S,)`` vector
    of per-start losses (the softmax and the layer folds never cross the
    start axis).
    """
    # The factor grid is ordering-independent, so one grid serves the
    # hardware derivation and all three candidate orderings (only the
    # walk-order gathers inside the reload factors differ per candidate).
    grid = grid if grid is not None else factors.factor_grid()
    if hardware is None:
        hardware = DifferentiableModel.derive_hardware(factors, grid=grid)
    energies = []
    latencies = []
    for ordering in _CANDIDATE_ORDERINGS:
        candidate = factors.with_uniform_orderings(ordering)
        perf = DifferentiableModel.evaluate_layer(candidate, hardware, grid)
        energies.append(perf.energy)
        latencies.append(perf.latency)
    energy_matrix = ops.stack(energies)      # (3, S, L)
    latency_matrix = ops.stack(latencies)    # (3, S, L)
    weights = ops.softmax(1.0 / (energy_matrix * latency_matrix), axis=0)
    reps = _repeat_vector(repeats, len(factors.layers))
    weighted_energy = (weights * energy_matrix).sum(axis=0) * reps
    weighted_latency = (weights * latency_matrix).sum(axis=0) * reps
    return ops.fold_sum(weighted_energy) * ops.fold_sum(weighted_latency)


def best_ordering_per_layer(
    factors: MultiStartFactors,
    hardware: DifferentiableHardware | None = None,
) -> list[list[LoopOrdering]]:
    """Iterative loop-ordering selection (Section 5.2.1).

    For each start point and layer, evaluate the WS/IS/OS orderings under the
    differentiable model and pick the ordering with the lowest layer EDP.
    Each candidate ordering is evaluated once over all starts and layers (a
    ``(3, S, L)`` EDP tensor, no graph recorded); ``argmin`` keeps the first
    minimum, matching a per-layer strict-``<`` scan decision for decision.
    Returns one list of per-layer selections per start point.
    """
    with no_grad():
        grid = factors.factor_grid()
        if hardware is None:
            hardware = DifferentiableModel.derive_hardware(factors, grid=grid)
        edps = np.stack([
            DifferentiableModel.evaluate_layer(
                factors.with_uniform_orderings(ordering), hardware, grid
            ).edp.data
            for ordering in _CANDIDATE_ORDERINGS
        ])
    return [[_CANDIDATE_ORDERINGS[index] for index in row]
            for row in np.argmin(edps, axis=0)]
