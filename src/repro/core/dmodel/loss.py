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
one value per start point, shape ``(S,)``.  A :class:`DenseTerms` passed as
``terms`` lets the losses of one graph share the model's terms.  The layer axis
is reduced with left-fold sums, in the same element order as a per-layer
Python fold; start points are independent descents, so nothing mixes their
losses before the caller's final fold.  :func:`network_edp_loss` and
:func:`validity_penalty` are one node each whose backwards repeat the
operations of the chain of nodes they replaced (``tests/oracles/tail.py``)
in order, so their gradients are that chain's bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.components import LEVEL_DRAM
from repro.autodiff import Tensor, no_grad, ops
from repro.core.dmodel.factors import OPTIMIZED_LEVELS, MultiStartFactors, factor_slot
from repro.core.dmodel.hardware import DifferentiableHardware
from repro.core.dmodel.model import DenseTerms, DifferentiableModel, LayerPerformance
from repro.mapping.mapping import SPATIAL_DIMS, LoopOrdering
from repro.workloads.layer import DIMENSIONS

# The factors the Eq.-18 penalty hinges, per layer in this order: the free
# temporal ones, the free spatial ones, then the inferred DRAM ones.
_PENALTY_SLOTS = np.array(
    [factor_slot("T", level, dim) for level in OPTIMIZED_LEVELS for dim in DIMENSIONS]
    + [factor_slot("S", level, dim) for level, dim in SPATIAL_DIMS]
    + [factor_slot("T", LEVEL_DRAM, dim) for dim in DIMENSIONS])


def _repeat_vector(repeats: Sequence[int], count: int) -> np.ndarray:
    if len(repeats) != count:
        raise ValueError("one repetition count is required per layer performance")
    return np.array([float(rep) for rep in repeats])


def network_edp_loss(performance: LayerPerformance,
                     repeats: Sequence[int]) -> Tensor:
    """Whole-model EDP (Equation 14): sum energies x sum latencies.

    ``performance`` holds ``(S, L)`` energy/latency tensors; the result is the
    ``(S,)`` vector of per-start network EDPs, one node: each total is the
    left-fold sum of the repetition-weighted layer values, and the backward
    hands each layer its total's gradient times its repetition count, with
    the IEEE operations of the chain of products and fold sums it replaced.
    """
    energy, latency = performance.energy, performance.latency
    reps = _repeat_vector(repeats, energy.shape[-1])
    totals: list = [None]

    def forward():
        total_energy = np.cumsum(energy.data * reps, axis=-1)[..., -1]
        total_latency = np.cumsum(latency.data * reps, axis=-1)[..., -1]
        totals[0] = total_energy, total_latency
        return total_energy * total_latency

    def backward(grad: np.ndarray):
        total_energy, total_latency = totals[0]
        return ((grad * total_latency)[..., None] * reps,
                (grad * total_energy)[..., None] * reps)

    return energy._make_child(forward(), (energy, latency), backward, forward)


def validity_penalty(factors: MultiStartFactors,
                     terms: DenseTerms | None = None) -> Tensor:
    """Equation 18: sum of ``max(1 - f, 0)`` over every tiling factor.

    Returns the ``(S,)`` vector of per-start penalties, each folded over its
    hinges layer-major (all of layer 0's factors, then layer 1's, ...), in
    the order of ``_PENALTY_SLOTS``: one node that reads the factors from
    the factor tensor (``terms.tensor`` when given) at their flat positions,
    and whose backward runs the IEEE operations of the chain it replaced (a
    gather, ``1 - f``, a relu and a fold sum).
    """
    tensor = terms.tensor if terms is not None else factors.factor_tensor()
    slots = np.broadcast_to(_PENALTY_SLOTS, (1, len(factors.layers), len(_PENALTY_SLOTS)))
    positions = factors.positions(slots).reshape(factors.num_starts, -1)
    shape = tensor.data.shape
    active: list = [None]

    def forward():
        hinges = np.maximum(1.0 - tensor.data.ravel().take(positions), 0.0)
        active[0] = hinges > 0
        return np.cumsum(hinges, axis=-1)[..., -1]

    def backward(grad: np.ndarray):
        full = np.zeros(shape)
        full.reshape(-1)[positions] = -(grad[..., None] * active[0]) + 0.0
        return (full,)

    return tensor._make_child(forward(), (tensor,), backward, forward)


_CANDIDATE_ORDERINGS: tuple[LoopOrdering, ...] = (
    LoopOrdering.WEIGHT_STATIONARY,
    LoopOrdering.INPUT_STATIONARY,
    LoopOrdering.OUTPUT_STATIONARY,
)


def softmax_ordering_loss(
    factors: MultiStartFactors,
    repeats: Sequence[int],
    hardware: DifferentiableHardware | None = None,
    terms: DenseTerms | None = None,
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
    # The dense terms are ordering-independent, so one set serves the
    # hardware derivation and all three candidate orderings (only the
    # walk-order gather of the reload factors differs per candidate).
    terms = terms if terms is not None else DenseTerms(factors)
    if hardware is None:
        hardware = DifferentiableModel.derive_hardware(factors, terms=terms)
    energies = []
    latencies = []
    for ordering in _CANDIDATE_ORDERINGS:
        candidate = factors.with_uniform_orderings(ordering)
        perf = DifferentiableModel.evaluate_layer(candidate, hardware, terms)
        energies.append(perf.energy)
        latencies.append(perf.latency)
    energy_matrix = ops.stack(energies)      # (3, S, L)
    latency_matrix = ops.stack(latencies)    # (3, S, L)
    weights = ops.softmax(1.0 / (energy_matrix * latency_matrix), axis=0)
    reps = _repeat_vector(repeats, len(factors.layers))
    weighted_energy = (weights * energy_matrix).sum(axis=0) * reps
    weighted_latency = (weights * latency_matrix).sum(axis=0) * reps
    return ops.fold_sum(weighted_energy) * ops.fold_sum(weighted_latency)


def best_ordering_per_layer(factors: MultiStartFactors) -> list[list[LoopOrdering]]:
    """Iterative loop-ordering selection (Section 5.2.1).

    For each start point and layer, evaluate the WS/IS/OS orderings under the
    differentiable model, on the minimal hardware the factors imply, and pick
    the ordering with the lowest layer EDP.  Each candidate ordering is
    evaluated once over all starts and layers (a ``(3, S, L)`` EDP tensor, no
    graph recorded); ``argmin`` keeps the first minimum, matching a per-layer
    strict-``<`` scan decision for decision.  Returns one list of per-layer
    selections per start point.
    """
    with no_grad():
        terms = DenseTerms(factors)
        hardware = DifferentiableModel.derive_hardware(factors, terms=terms)
        edps = np.stack([
            DifferentiableModel.evaluate_layer(
                factors.with_uniform_orderings(ordering), hardware, terms
            ).edp.data
            for ordering in _CANDIDATE_ORDERINGS
        ])
    return [[_CANDIDATE_ORDERINGS[index] for index in row]
            for row in np.argmin(edps, axis=0)]
