"""The per-layer differentiable model: the oracle of the start-batched model.

One :class:`LayerFactors` per layer; every forward pass builds one small graph
of scalar nodes per layer.  The Equation 2-14 formulas are the production
:class:`~repro.core.dmodel.model.DifferentiableModel` ones (they are written
against any factor grid), but the three places where the production model
batches — the loop-order-aware reload factor, the cross-layer hardware
derivation and the layer sums of the losses — are re-implemented here the
literal way: a Python walk over the loop nest, chained per-layer maxima, and
per-layer Python folds.  Loss values match an S=1 stack bit for bit;
gradients agree up to floating-point accumulation order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.components import (
    BYTES_PER_WORD,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.autodiff import Tensor, ops
from repro.core.dmodel.factors import (
    OPTIMIZED_LEVELS,
    _MAX_LOG_FACTOR,
    _MIN_LOG_FACTOR,
    MultiStartFactors,
)
from repro.core.dmodel.hardware import DifferentiableHardware
from repro.core.dmodel.model import _FACTOR_EPS, DifferentiableModel, LayerPerformance
from repro.core.optimizer.dosa import DosaSettings, LoopOrderingStrategy
from repro.mapping.mapping import (
    DEFAULT_ORDERINGS,
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_DIMS,
    SPATIAL_DIMS,
    ordering_for_tensor,
)
from repro.workloads.layer import DIMENSIONS, TENSOR_DIMS, LayerDims

from oracles.rounding import round_mapping

CANDIDATE_ORDERINGS: tuple[LoopOrdering, ...] = (
    LoopOrdering.WEIGHT_STATIONARY,
    LoopOrdering.INPUT_STATIONARY,
    LoopOrdering.OUTPUT_STATIONARY,
)


class LayerFactors:
    """Differentiable spatial/temporal tiling factors for one layer."""

    def __init__(
        self,
        layer: LayerDims,
        log_temporal: np.ndarray | None = None,
        log_spatial: np.ndarray | None = None,
        orderings: Sequence[LoopOrdering] = DEFAULT_ORDERINGS,
    ) -> None:
        self.layer = layer
        if log_temporal is None:
            log_temporal = np.zeros((len(OPTIMIZED_LEVELS), NUM_DIMS))
        if log_spatial is None:
            log_spatial = np.zeros(len(SPATIAL_DIMS))
        self.log_temporal = Tensor(log_temporal, requires_grad=True, name=f"{layer.name}:log_temporal")
        self.log_spatial = Tensor(log_spatial, requires_grad=True, name=f"{layer.name}:log_spatial")
        self.orderings: tuple[LoopOrdering, ...] = tuple(orderings)

    @property
    def stride_p(self) -> int:
        return self.layer.stride_p

    @property
    def stride_q(self) -> int:
        return self.layer.stride_q

    @staticmethod
    def from_mapping(mapping: Mapping) -> "LayerFactors":
        """Initialize log-factors from a concrete (valid) mapping."""
        factors = LayerFactors(layer=mapping.layer)
        factors.load_mapping(mapping)
        return factors

    def load_mapping(self, mapping: Mapping) -> None:
        """Overwrite the parameter values (in place) from a concrete mapping."""
        self.log_temporal.data = np.log(
            np.maximum(mapping.temporal[list(OPTIMIZED_LEVELS), :], 1e-12))
        self.log_spatial.data = np.log(np.array([
            max(mapping.spatial_factor(level, dim), 1e-12) for level, dim in SPATIAL_DIMS
        ]))
        self.orderings = tuple(mapping.orderings)

    def parameters(self) -> list[Tensor]:
        return [self.log_temporal, self.log_spatial]

    def factor_grid(self) -> dict:
        """All factors as 0-d tensors (or structural 1.0 floats), keyed by ``(kind, level, dim)``."""
        grid: dict = {}
        temporal = ops.exp(self.log_temporal)
        spatial = ops.exp(self.log_spatial)
        for level_pos, level in enumerate(OPTIMIZED_LEVELS):
            for dim in DIMENSIONS:
                grid[("T", level, dim)] = temporal[level_pos, DIM_INDEX[dim]]
        for level in MEMORY_LEVEL_INDICES:
            for dim in DIMENSIONS:
                grid.setdefault(("S", level, dim), 1.0)
        for position, (level, dim) in enumerate(SPATIAL_DIMS):
            grid[("S", level, dim)] = spatial[position]
        # DRAM temporal factors absorb the remaining problem size.
        for dim in DIMENSIONS:
            inner = ops.total_prod(
                [grid[("T", level, dim)] for level in OPTIMIZED_LEVELS]
                + [grid[("S", level, dim)] for level, d in SPATIAL_DIMS if d == dim]
            )
            grid[("T", LEVEL_DRAM, dim)] = float(self.layer.dim(dim)) / inner
        return grid

    def snapshot_mapping(self) -> Mapping:
        """Current (possibly fractional) factors as a numeric :class:`Mapping`."""
        mapping = Mapping(layer=self.layer, orderings=self.orderings)
        temporal = np.exp(np.clip(self.log_temporal.data, _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
        spatial = np.exp(np.clip(self.log_spatial.data, _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
        for level_pos, level in enumerate(OPTIMIZED_LEVELS):
            mapping.temporal[level, :] = temporal[level_pos, :]
        for position, (level, dim) in enumerate(SPATIAL_DIMS):
            mapping.spatial[level, DIM_INDEX[dim]] = spatial[position]
        return mapping.with_dram_inferred()

    def rounded_mapping(self, max_spatial: float | None = None) -> Mapping:
        """Nearest valid mapping to the current factors (Section 5.3.2)."""
        return round_mapping(self.snapshot_mapping(), max_spatial=max_spatial)

    def with_orderings(self, orderings: Sequence[LoopOrdering]) -> "LayerFactors":
        """Shallow view of the same parameters with different loop orderings."""
        view = LayerFactors.__new__(LayerFactors)
        view.layer = self.layer
        view.log_temporal = self.log_temporal
        view.log_spatial = self.log_spatial
        view.orderings = tuple(orderings)
        return view


def stack_of(all_factors: Sequence[LayerFactors]) -> MultiStartFactors:
    """The S=1 production stack holding these per-layer factors' current values."""
    return MultiStartFactors(
        layers=[f.layer for f in all_factors],
        num_starts=1,
        log_temporal=np.stack([f.log_temporal.data for f in all_factors])[None],
        log_spatial=np.stack([f.log_spatial.data for f in all_factors])[None],
        orderings=[[f.orderings for f in all_factors]],
    )


class LayerModel(DifferentiableModel):
    """The production formulas over :class:`LayerFactors`, with the literal
    reload walk and chained-maximum hardware derivation."""

    @staticmethod
    def reload_factor(factors: LayerFactors, grid: dict, level: int, tensor: str):
        """Times the level tile of ``tensor`` is refetched (loop-order aware, Eq. 6)."""
        relevant = TENSOR_DIMS[tensor]
        terms = []
        seen_relevant = False
        for walk_level in range(level, LEVEL_DRAM + 1):
            for dim in ordering_for_tensor(factors.orderings[walk_level]):
                value = grid[("T", walk_level, dim)]
                numeric = float(value.data) if isinstance(value, Tensor) else float(value)
                if numeric <= 1.0 + _FACTOR_EPS:
                    continue
                if not seen_relevant and dim not in relevant:
                    continue
                terms.append(value)
                if dim in relevant:
                    seen_relevant = True
        return ops.total_prod(terms)

    @classmethod
    def derive_hardware(cls, all_factors: Sequence[LayerFactors]) -> DifferentiableHardware:
        """Minimal hardware supporting every layer, by chained per-layer maxima."""
        if not all_factors:
            raise ValueError("derive_hardware requires at least one layer")
        side = accumulator_words = scratchpad_words = None
        for factors in all_factors:
            grid = factors.factor_grid()
            for candidate in (grid[("S", LEVEL_ACCUMULATOR, "C")],
                              grid[("S", LEVEL_SCRATCHPAD, "K")]):
                side = candidate if side is None else ops.maximum(side, candidate)
            layer_accumulator = cls.tile_words(factors, grid, LEVEL_ACCUMULATOR, "O")
            layer_scratchpad = (cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "W")
                                + cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "I"))
            accumulator_words = (layer_accumulator if accumulator_words is None
                                 else ops.maximum(accumulator_words, layer_accumulator))
            scratchpad_words = (layer_scratchpad if scratchpad_words is None
                                else ops.maximum(scratchpad_words, layer_scratchpad))
        return DifferentiableHardware(
            num_pes=side * side,
            accumulator_kb=accumulator_words * (BYTES_PER_WORD[LEVEL_ACCUMULATOR] / 1024.0),
            scratchpad_kb=scratchpad_words * (BYTES_PER_WORD[LEVEL_SCRATCHPAD] / 1024.0),
        )

    @classmethod
    def evaluate_network(cls, all_factors: Sequence[LayerFactors],
                         hardware: DifferentiableHardware | None = None,
                         ) -> list[LayerPerformance]:
        """One :class:`LayerPerformance` of 0-d tensors per layer."""
        if hardware is None:
            hardware = cls.derive_hardware(all_factors)
        return [cls.evaluate_layer(factors, hardware) for factors in all_factors]


# --------------------------------------------------------------------------- #
# Per-layer losses
# --------------------------------------------------------------------------- #
def total_sum(values: Sequence[Tensor | float]) -> Tensor:
    """Left fold of a Python list into a chain of one addition node each.

    The production model folds the same terms with the single-node
    :func:`repro.autodiff.ops.fold_sum`, which must match this chain value
    for value.  At least one element is required.
    """
    values = [v if isinstance(v, Tensor) else Tensor(v) for v in values]
    if not values:
        raise ValueError("total_sum of an empty sequence")
    out = values[0]
    for value in values[1:]:
        out = out + value
    return out


def network_edp_loss(performances: Sequence[LayerPerformance],
                     repeats: Sequence[int]) -> Tensor:
    """Equation 14: sum of layer energies x sum of layer latencies."""
    if len(performances) != len(repeats):
        raise ValueError("one repetition count is required per layer performance")
    total_energy = total_sum(
        [perf.energy * float(rep) for perf, rep in zip(performances, repeats)])
    total_latency = total_sum(
        [perf.latency * float(rep) for perf, rep in zip(performances, repeats)])
    return total_energy * total_latency


def validity_penalty(all_factors: Sequence[LayerFactors]) -> Tensor:
    """Equation 18: sum of ``max(1 - f, 0)`` over every tiling factor."""
    terms = []
    for factors in all_factors:
        for value in factors.factor_grid().values():
            if isinstance(value, Tensor):
                terms.append(ops.relu(1.0 - value))
    return total_sum(terms)


def ordering_candidates(factors: LayerFactors) -> list[LayerFactors]:
    """Views of ``factors`` under the WS / IS / OS loop orderings (all levels)."""
    return [factors.with_orderings([ordering] * 4) for ordering in CANDIDATE_ORDERINGS]


def softmax_ordering_loss(all_factors: Sequence[LayerFactors], repeats: Sequence[int],
                          hardware: DifferentiableHardware | None = None) -> Tensor:
    """Equations 15-17, one layer at a time."""
    if hardware is None:
        hardware = LayerModel.derive_hardware(all_factors)
    weighted_energies = []
    weighted_latencies = []
    for factors, rep in zip(all_factors, repeats):
        performances = [LayerModel.evaluate_layer(candidate, hardware)
                        for candidate in ordering_candidates(factors)]
        energy_vector = ops.stack([perf.energy for perf in performances])
        latency_vector = ops.stack([perf.latency for perf in performances])
        weights = ops.softmax(1.0 / (energy_vector * latency_vector))
        weighted_energies.append((weights * energy_vector).sum() * float(rep))
        weighted_latencies.append((weights * latency_vector).sum() * float(rep))
    return total_sum(weighted_energies) * total_sum(weighted_latencies)


def best_ordering_per_layer(all_factors: Sequence[LayerFactors],
                            hardware: DifferentiableHardware | None = None,
                            ) -> list[LoopOrdering]:
    """Section 5.2.1 re-selection as a strict-``<`` scan, layer by layer."""
    if hardware is None:
        hardware = LayerModel.derive_hardware(all_factors)
    selections: list[LoopOrdering] = []
    for factors in all_factors:
        best = None
        best_edp = float("inf")
        for ordering, candidate in zip(CANDIDATE_ORDERINGS, ordering_candidates(factors)):
            edp = float(LayerModel.evaluate_layer(candidate, hardware).edp.data)
            if edp < best_edp:
                best_edp = edp
                best = ordering
        selections.append(best)
    return selections


def search_loss(settings: DosaSettings, all_factors: Sequence[LayerFactors],
                repeats: Sequence[int]) -> Tensor:
    """The DOSA training loss of one start point, layer by layer.

    The per-layer counterpart of ``DosaSearcher._loss`` on an S=1 stack:
    EDP (or the softmax-ordering loss) on derived hardware plus the weighted
    Equation-18 penalty.
    """
    hardware = LayerModel.derive_hardware(all_factors)
    if settings.ordering_strategy is LoopOrderingStrategy.SOFTMAX:
        objective = softmax_ordering_loss(all_factors, repeats, hardware)
    else:
        objective = network_edp_loss(
            LayerModel.evaluate_network(all_factors, hardware), repeats)
    return objective + settings.penalty_weight * validity_penalty(all_factors)
