"""The per-layer differentiable model: the oracle of the dense model.

One :class:`LayerFactors` per layer; every forward pass builds one small graph
of scalar nodes per layer, from a dict of per-factor columns keyed by
``(kind, level, dim)``.  The Equation 2-14 formulas are written one column at
a time, the way the production model wrote them before it went dense: a
chain of multiplications per inner extent, tile, MAC count and distinct-tile
count, a Python walk over the loop nest per reload factor, one elementwise
node per traffic, latency and energy term, chained per-layer maxima for the
hardware, and per-layer Python folds for the losses.  The dense
:class:`~repro.core.dmodel.model.DifferentiableModel` runs the same IEEE
operations in the same order, so loss values match an S=1 stack bit for
bit; gradients agree up to floating-point accumulation order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dataclasses import dataclass

from repro.arch.components import (
    BYTES_PER_WORD,
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_REGISTERS,
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
from repro.core.dmodel.model import _FACTOR_EPS
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

from oracles.chains import chain_prod
from oracles.rounding import round_mapping
from oracles.tail import ChainHardware

CANDIDATE_ORDERINGS: tuple[LoopOrdering, ...] = (
    LoopOrdering.WEIGHT_STATIONARY,
    LoopOrdering.INPUT_STATIONARY,
    LoopOrdering.OUTPUT_STATIONARY,
)


class FactorGrid(dict):
    """One layer's factor columns, keyed by ``(kind, level, dim)``.

    ``memo`` keeps the inner extents, tile words and MAC count built from
    these columns, so each is one chain however many formulas read it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.memo: dict = {}


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

    def factor_grid(self) -> "FactorGrid":
        """All factors as 0-d tensors (or structural 1.0 floats), keyed by ``(kind, level, dim)``."""
        grid = FactorGrid()
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
            inner = chain_prod(
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


@dataclass
class LayerPerformance:
    """One layer's differentiable latency, energy and per-level accesses (0-d)."""

    latency: Tensor
    energy: Tensor
    accesses: dict

    @property
    def edp(self) -> Tensor:
        return self.latency * self.energy


class LayerModel:
    """Equations 2-14 one factor column at a time, over :class:`LayerFactors`.

    The reload factor walks the loop nest in Python, skipping near-1 factors
    and irrelevant loops inside the first relevant one; the hardware is
    derived by chained per-layer maxima.
    """

    # ------------------------------------------------------------------ #
    # Tile sizes (Equations 2-5)
    # ------------------------------------------------------------------ #
    @staticmethod
    def inner_extent(grid: FactorGrid, level: int, dim: str):
        """Extent of ``dim`` inside the level-``level`` tile (all spatial, inner temporal)."""
        key = ("extent", level, dim)
        if key not in grid.memo:
            terms = [grid[("S", lvl, dim)] for lvl in MEMORY_LEVEL_INDICES]
            terms += [grid[("T", lvl, dim)] for lvl in range(level)]
            grid.memo[key] = chain_prod(terms)
        return grid.memo[key]

    @classmethod
    def tile_words(cls, factors: LayerFactors, grid: FactorGrid, level: int, tensor: str):
        """Words of ``tensor`` resident at ``level`` (Equations 2-4)."""
        key = ("tile", level, tensor)
        if key not in grid.memo:
            grid.memo[key] = cls._tile_words(factors, grid, level, tensor)
        return grid.memo[key]

    @classmethod
    def _tile_words(cls, factors: LayerFactors, grid: FactorGrid, level: int, tensor: str):
        if tensor == "W":
            return chain_prod([cls.inner_extent(grid, level, d) for d in ("R", "S", "C", "K")])
        if tensor == "O":
            return chain_prod([cls.inner_extent(grid, level, d) for d in ("P", "Q", "K", "N")])
        base = cls.inner_extent(grid, level, "C") * cls.inner_extent(grid, level, "N")
        height = (factors.stride_p * (cls.inner_extent(grid, level, "P") - 1.0)
                  + cls.inner_extent(grid, level, "R"))
        width = (factors.stride_q * (cls.inner_extent(grid, level, "Q") - 1.0)
                 + cls.inner_extent(grid, level, "S"))
        return base * height * width

    # ------------------------------------------------------------------ #
    # Traffic (Equations 6-11)
    # ------------------------------------------------------------------ #
    @staticmethod
    def reload_factor(factors: LayerFactors, grid: FactorGrid, level: int, tensor: str):
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
        return chain_prod(terms)

    @staticmethod
    def distinct_tiles(grid: FactorGrid, level: int, tensor: str):
        """Number of distinct tiles of ``tensor`` above ``level``."""
        return chain_prod([grid[("T", walk_level, dim)]
                           for walk_level in range(level, LEVEL_DRAM + 1)
                           for dim in DIMENSIONS if dim in TENSOR_DIMS[tensor]])

    @staticmethod
    def spatial_irrelevant_product(grid: FactorGrid, level: int, tensor: str):
        """Equations 8/10: spatial broadcast / reduction factor at ``level``."""
        return chain_prod([grid[("S", level, dim)] for dim in DIMENSIONS
                           if dim not in TENSOR_DIMS[tensor]])

    @staticmethod
    def total_macs(grid: FactorGrid):
        """Equation 7: the product of every tiling factor."""
        if "macs" not in grid.memo:
            grid.memo["macs"] = chain_prod([grid[(kind, level, dim)] for dim in DIMENSIONS
                                            for level in MEMORY_LEVEL_INDICES
                                            for kind in ("T", "S")])
        return grid.memo["macs"]

    @classmethod
    def traffic(cls, factors: LayerFactors, grid: FactorGrid) -> dict:
        """Total accesses per memory level (reads + writes + updates)."""
        macs = cls.total_macs(grid)
        spatial_c = grid[("S", LEVEL_ACCUMULATOR, "C")]
        spatial_k = grid[("S", LEVEL_SCRATCHPAD, "K")]

        writes_w_registers = (cls.tile_words(factors, grid, LEVEL_REGISTERS, "W")
                              * cls.reload_factor(factors, grid, LEVEL_REGISTERS, "W"))
        writes_w_scratchpad = (cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "W")
                               * cls.reload_factor(factors, grid, LEVEL_SCRATCHPAD, "W"))
        writes_i_scratchpad = (cls.tile_words(factors, grid, LEVEL_SCRATCHPAD, "I")
                               * cls.reload_factor(factors, grid, LEVEL_SCRATCHPAD, "I"))

        output_tile = cls.tile_words(factors, grid, LEVEL_ACCUMULATOR, "O")
        reloads_o = cls.reload_factor(factors, grid, LEVEL_ACCUMULATOR, "O")
        distinct_o = cls.distinct_tiles(grid, LEVEL_ACCUMULATOR, "O")
        drains = output_tile * reloads_o
        refills = output_tile * ops.relu(reloads_o - distinct_o)

        return {
            LEVEL_REGISTERS: (
                writes_w_registers
                + macs / cls.spatial_irrelevant_product(grid, LEVEL_REGISTERS, "W")),
            LEVEL_ACCUMULATOR: macs / spatial_c + drains + refills,
            LEVEL_SCRATCHPAD: (
                writes_w_scratchpad + writes_i_scratchpad
                + writes_w_registers
                / cls.spatial_irrelevant_product(grid, LEVEL_SCRATCHPAD, "W")
                + macs / spatial_k),
            LEVEL_DRAM: writes_w_scratchpad + writes_i_scratchpad + drains + refills,
        }

    # ------------------------------------------------------------------ #
    # Latency / energy / EDP (Equations 12-14)
    # ------------------------------------------------------------------ #
    @classmethod
    def evaluate_layer(cls, factors: LayerFactors, hardware: ChainHardware,
                       grid: FactorGrid | None = None) -> LayerPerformance:
        """Differentiable latency and energy of one layer on ``hardware``.

        ``grid`` is the layer's factor grid when the caller already built it
        (one grid serves every ordering of a layer).
        """
        grid = grid if grid is not None else factors.factor_grid()
        macs = cls.total_macs(grid)
        accesses = cls.traffic(factors, grid)
        parallelism = chain_prod([grid[("S", level, dim)]
                                  for level in MEMORY_LEVEL_INDICES for dim in DIMENSIONS])
        latency = macs / parallelism
        for level in MEMORY_LEVEL_INDICES:
            latency = ops.maximum(latency, accesses[level] / hardware.bandwidth(level))
        energy = macs * hardware.mac_energy
        for level in MEMORY_LEVEL_INDICES:
            energy = energy + accesses[level] * hardware.energy_per_access(level)
        return LayerPerformance(latency=latency, energy=energy, accesses=accesses)

    # ------------------------------------------------------------------ #
    # Hardware derivation (Equation 1, Figure 3)
    # ------------------------------------------------------------------ #
    @classmethod
    def derive_hardware(cls, all_factors: Sequence[LayerFactors],
                        grids: Sequence[FactorGrid] | None = None) -> ChainHardware:
        """Minimal hardware supporting every layer, by chained per-layer maxima."""
        if not all_factors:
            raise ValueError("derive_hardware requires at least one layer")
        grids = grids if grids is not None else [f.factor_grid() for f in all_factors]
        side = accumulator_words = scratchpad_words = None
        for factors, grid in zip(all_factors, grids):
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
        return ChainHardware(
            num_pes=side * side,
            accumulator_kb=accumulator_words * (BYTES_PER_WORD[LEVEL_ACCUMULATOR] / 1024.0),
            scratchpad_kb=scratchpad_words * (BYTES_PER_WORD[LEVEL_SCRATCHPAD] / 1024.0),
        )

    @classmethod
    def evaluate_network(cls, all_factors: Sequence[LayerFactors],
                         hardware: ChainHardware | None = None,
                         grids: Sequence[FactorGrid] | None = None,
                         ) -> list[LayerPerformance]:
        """One :class:`LayerPerformance` of 0-d tensors per layer."""
        grids = grids if grids is not None else [f.factor_grid() for f in all_factors]
        if hardware is None:
            hardware = cls.derive_hardware(all_factors, grids)
        return [cls.evaluate_layer(factors, hardware, grid)
                for factors, grid in zip(all_factors, grids)]


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


def validity_penalty(all_factors: Sequence[LayerFactors],
                     grids: Sequence[FactorGrid] | None = None) -> Tensor:
    """Equation 18: sum of ``max(1 - f, 0)`` over every tiling factor."""
    grids = grids if grids is not None else [f.factor_grid() for f in all_factors]
    terms = []
    for grid in grids:
        for value in grid.values():
            if isinstance(value, Tensor):
                terms.append(ops.relu(1.0 - value))
    return total_sum(terms)


def ordering_candidates(factors: LayerFactors) -> list[LayerFactors]:
    """Views of ``factors`` under the WS / IS / OS loop orderings (all levels)."""
    return [factors.with_orderings([ordering] * 4) for ordering in CANDIDATE_ORDERINGS]


def softmax_ordering_loss(all_factors: Sequence[LayerFactors], repeats: Sequence[int],
                          hardware: ChainHardware | None = None,
                          grids: Sequence[FactorGrid] | None = None) -> Tensor:
    """Equations 15-17, one layer at a time."""
    grids = grids if grids is not None else [f.factor_grid() for f in all_factors]
    if hardware is None:
        hardware = LayerModel.derive_hardware(all_factors, grids)
    weighted_energies = []
    weighted_latencies = []
    for factors, grid, rep in zip(all_factors, grids, repeats):
        performances = [LayerModel.evaluate_layer(candidate, hardware, grid)
                        for candidate in ordering_candidates(factors)]
        energy_vector = ops.stack([perf.energy for perf in performances])
        latency_vector = ops.stack([perf.latency for perf in performances])
        weights = ops.softmax(1.0 / (energy_vector * latency_vector))
        weighted_energies.append((weights * energy_vector).sum() * float(rep))
        weighted_latencies.append((weights * latency_vector).sum() * float(rep))
    return total_sum(weighted_energies) * total_sum(weighted_latencies)


def best_ordering_per_layer(all_factors: Sequence[LayerFactors],
                            hardware: ChainHardware | None = None,
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
    Equation-18 penalty.  One factor grid per layer serves the whole loss.
    """
    grids = [f.factor_grid() for f in all_factors]
    hardware = LayerModel.derive_hardware(all_factors, grids)
    if settings.ordering_strategy is LoopOrderingStrategy.SOFTMAX:
        objective = softmax_ordering_loss(all_factors, repeats, hardware, grids)
    else:
        objective = network_edp_loss(
            LayerModel.evaluate_network(all_factors, hardware, grids), repeats)
    return objective + settings.penalty_weight * validity_penalty(all_factors, grids)
