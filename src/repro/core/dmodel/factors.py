"""Differentiable tiling factors (the GD optimization variables).

DOSA optimizes, for every unique layer, the temporal tiling factors at the
register, accumulator and scratchpad levels plus the two spatial factors of
the weight-stationary dataflow — roughly twenty variables per layer
(Section 5.1).  DRAM-level temporal factors are not free variables: they are
inferred as the remaining problem size so that per-dimension factor products
always match the layer (Section 5.3.3).

Factors are parameterized in log space (the optimizer stores ``log f``), which
keeps them strictly positive under unconstrained gradient updates; the
Equation-18 hinge penalty still discourages values below 1 so the inferred
DRAM factors stay valid.

:class:`MultiStartFactors` holds the factors of S independent gradient-descent
*start points* over the same L layers, stacked into ``(S, L, levels, dims)``
and ``(S, L, 2)`` leaf tensors.  The model reads them through one dense
``(2 * levels, dims, S, L)`` factor tensor
(:meth:`MultiStartFactors.factor_tensor`): the spatial factors of every
level, then the temporal ones, DRAM included, each factor slot a contiguous
``(S, L)`` plane.
One forward/backward pass therefore builds a single small graph of array ops
that advances every start point of a DOSA search at once; S=1 is the
single-start case.  Per-layer loop-ordering decisions become precomputed
gather-index arrays (re-derived only when mappings are re-snapped at
rounding points), and the per-factor structural masks are re-derived from
current values on every forward pass inside
:func:`repro.autodiff.ops.reload_product`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.arch.components import LEVEL_DRAM
from repro.autodiff import Tensor
from repro.mapping.mapping import (
    DEFAULT_ORDERINGS,
    DIM_INDEX,
    LoopOrdering,
    Mapping,
    NUM_DIMS,
    NUM_LEVELS,
    SPATIAL_DIMS,
    ordering_for_tensor,
)
from repro.mapping.rounding_walk import RoundingTables, round_factor_tensors
from repro.workloads.layer import DIMENSIONS, LayerDims

# Levels whose temporal factors are free optimization variables.
OPTIMIZED_LEVELS: tuple[int, ...] = (0, 1, 2)

# Rows of the dense factor tensor: level ``l``'s spatial factors sit in row
# ``SPATIAL_ROW + l`` and its temporal factors in row ``TEMPORAL_ROW + l``.
SPATIAL_ROW = 0
TEMPORAL_ROW = NUM_LEVELS
FACTOR_ROWS = 2 * NUM_LEVELS
# Rows and columns of the free spatial factors, in ``log_spatial`` order.
# Each sits in a different dimension, so a dimension's spatial product is
# its one free factor.
_SPATIAL_ROWS = np.array([SPATIAL_ROW + level for level, _ in SPATIAL_DIMS])
_SPATIAL_COLS = np.array([DIM_INDEX[dim] for _, dim in SPATIAL_DIMS])


def factor_slot(kind: str, level: int, dim: str) -> int:
    """Slot of one factor in the factor tensor.

    ``kind`` is ``"T"`` (temporal) or ``"S"`` (spatial); slots number the
    ``(2 * levels, dims)`` leading axes in C order.
    """
    row = (TEMPORAL_ROW if kind == "T" else SPATIAL_ROW) + level
    return row * NUM_DIMS + DIM_INDEX[dim]
_MIN_LOG_FACTOR = np.log(1e-3)
_MAX_LOG_FACTOR = np.log(1e9)


def _raw_factor_tensors(log_temporal: np.ndarray,
                        log_spatial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped-exp factor values in :class:`Mapping` layout.

    ``log_temporal`` is ``(..., len(OPTIMIZED_LEVELS), NUM_DIMS)`` and
    ``log_spatial`` is ``(..., len(SPATIAL_DIMS))``; the leading axes (start
    x layer) pass through.  Returns ``(temporal, spatial)`` arrays of shape
    ``(..., NUM_LEVELS, NUM_DIMS)`` holding the exp of the clamped log
    factors, with ones at every other position (the rounding walk ignores
    the DRAM temporal row and resets non-WS spatial positions itself).
    """
    shape = log_temporal.shape[:-2] + (NUM_LEVELS, NUM_DIMS)
    temporal = np.ones(shape)
    spatial = np.ones(shape)
    temporal[..., list(OPTIMIZED_LEVELS), :] = np.exp(
        np.clip(log_temporal, _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
    values = np.exp(np.clip(log_spatial, _MIN_LOG_FACTOR, _MAX_LOG_FACTOR))
    for position, (level, dim) in enumerate(SPATIAL_DIMS):
        spatial[..., level, DIM_INDEX[dim]] = values[..., position]
    return temporal, spatial


def _stacked_log_factors(mappings: Sequence[Mapping]) -> tuple[np.ndarray, np.ndarray]:
    """Stack one start's mappings into ``(L, levels, dims)`` / ``(L, 2)`` log arrays.

    The single source of the clamp and level-slice conventions shared by
    :meth:`MultiStartFactors.from_mapping_sets` and
    :meth:`MultiStartFactors.load_mapping_sets`.
    """
    log_temporal = np.stack([
        np.log(np.maximum(m.temporal[list(OPTIMIZED_LEVELS), :], 1e-12))
        for m in mappings
    ])
    log_spatial = np.stack([
        np.log(np.array([max(m.spatial_factor(level, dim), 1e-12)
                         for level, dim in SPATIAL_DIMS]))
        for m in mappings
    ])
    return log_temporal, log_spatial


class MultiStartFactors:
    """Differentiable tiling factors of S start points x L layers.

    The GD optimization variables of every start point of a DOSA search as
    two leaf tensors: ``log_temporal`` of shape
    ``(S, L, len(OPTIMIZED_LEVELS), NUM_DIMS)`` and ``log_spatial`` of shape
    ``(S, L, len(SPATIAL_DIMS))``.  One gradient step through this
    parameterization advances all S descents in a single array-op graph whose
    node count is independent of S and L.

    Start points are independent: no graph node mixes rows, every reduction
    (the sequence products and sums, :func:`~repro.autodiff.ops.fold_sum`,
    the hardware and roofline maxima,
    :func:`~repro.autodiff.ops.reload_product`) folds along the trailing axes
    only, and the scalar training loss is the fold of the per-start losses —
    whose gradient into each start is exactly the gradient of that start's own
    loss.  Per-start values and gradients are therefore bit-identical to S
    separate single-start (S=1) passes.

    Layers are heterogeneous: problem sizes and strides live in per-layer
    rows of ``dim_sizes``/stride arrays, shared across starts (every start
    descends the same network).  ``dim_mask`` marks which columns are real
    problem dimensions (size > 1), broadcast to ``(S, L, NUM_DIMS)``.
    Nothing reads it yet: padding columns (e.g. R/S/Q of a matmul layer) are
    free variables of the descent like any other, and the Eq.-18 penalty
    only pushes a factor *up* towards 1 — it does not keep one there, so
    padding factors drift below 1 during descent.  Loop orderings are
    tracked per start *and* per layer in ``start_orderings``; the compiled
    walk-order permutations are an ``(S, L, levels, dims)`` gather array.
    """

    def __init__(
        self,
        layers: Sequence[LayerDims],
        num_starts: int,
        log_temporal: np.ndarray | None = None,
        log_spatial: np.ndarray | None = None,
        orderings: "Sequence[Sequence[Sequence[LoopOrdering]]] | None" = None,
    ) -> None:
        if not layers:
            raise ValueError("MultiStartFactors requires at least one layer")
        if num_starts < 1:
            raise ValueError("MultiStartFactors requires at least one start point")
        self.layers = list(layers)
        self.num_starts = int(num_starts)
        count = len(self.layers)
        shape_t = (self.num_starts, count, len(OPTIMIZED_LEVELS), NUM_DIMS)
        shape_s = (self.num_starts, count, len(SPATIAL_DIMS))
        if log_temporal is None:
            log_temporal = np.zeros(shape_t)
        if log_spatial is None:
            log_spatial = np.zeros(shape_s)
        log_temporal = np.asarray(log_temporal, dtype=np.float64)
        log_spatial = np.asarray(log_spatial, dtype=np.float64)
        if log_temporal.shape != shape_t:
            raise ValueError(f"log_temporal must have shape {shape_t}, "
                             f"got {log_temporal.shape}")
        if log_spatial.shape != shape_s:
            raise ValueError(f"log_spatial must have shape {shape_s}, "
                             f"got {log_spatial.shape}")
        self.log_temporal = Tensor(log_temporal, requires_grad=True)
        self.log_spatial = Tensor(log_spatial, requires_grad=True)
        if orderings is None:
            orderings = [[DEFAULT_ORDERINGS] * count] * self.num_starts
        self.start_orderings: list[list[tuple[LoopOrdering, ...]]] = [
            [tuple(o) for o in start] for start in orderings]
        if (len(self.start_orderings) != self.num_starts
                or any(len(start) != count for start in self.start_orderings)):
            raise ValueError("orderings must hold one per-level tuple per "
                             "start point per layer")
        self.dim_sizes = np.array(
            [[float(layer.dim(d)) for d in DIMENSIONS] for layer in self.layers],
            dtype=np.float64,
        )
        self.stride_p = np.array([layer.stride_p for layer in self.layers],
                                 dtype=np.float64)
        self.stride_q = np.array([layer.stride_q for layer in self.layers],
                                 dtype=np.float64)
        self.dim_mask = np.broadcast_to(self.dim_sizes > 1.0,
                                        (self.num_starts, count, NUM_DIMS))
        self._order_perms: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction from / conversion to concrete mappings
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_mapping_sets(mapping_sets: Sequence[Sequence[Mapping]]) -> "MultiStartFactors":
        """Stack one list of concrete per-layer mappings per start point."""
        if not mapping_sets:
            raise ValueError("from_mapping_sets requires at least one start point")
        stacked = [_stacked_log_factors(list(mappings)) for mappings in mapping_sets]
        return MultiStartFactors(
            layers=[m.layer for m in mapping_sets[0]],
            num_starts=len(mapping_sets),
            log_temporal=np.stack([t for t, _ in stacked]),
            log_spatial=np.stack([s for _, s in stacked]),
            orderings=[[m.orderings for m in mappings] for mappings in mapping_sets],
        )

    def load_mapping_sets(self, mapping_sets: "dict[int, Sequence[Mapping]]") -> None:
        """Overwrite selected start points' parameters from concrete mappings.

        Used after periodic rounding: the same parameter tensors (and hence
        the optimizer's momentum state) continue from the snapped point.
        ``mapping_sets`` maps a start index to that start's per-layer rounded
        mappings; start points not in the dict (e.g. budget-frozen ones) keep
        their current values.  The orderings may change here, which
        invalidates the compiled permutation arrays — callers holding a
        :class:`~repro.autodiff.tape.Tape` over a graph built from this
        instance must re-trace it.
        """
        for start, mappings in mapping_sets.items():
            if not 0 <= start < self.num_starts:
                raise ValueError(f"start index {start} out of range "
                                 f"[0, {self.num_starts})")
            if len(mappings) != len(self.layers):
                raise ValueError(f"expected {len(self.layers)} mappings for "
                                 f"start {start}, got {len(mappings)}")
            log_temporal, log_spatial = _stacked_log_factors(list(mappings))
            self.log_temporal.data[start] = log_temporal
            self.log_spatial.data[start] = log_spatial
            self.start_orderings[start] = [tuple(m.orderings) for m in mappings]
        self._order_perms = None

    def parameters(self) -> list[Tensor]:
        return [self.log_temporal, self.log_spatial]

    # ------------------------------------------------------------------ #
    # Structure compilation
    # ------------------------------------------------------------------ #
    def order_perms(self) -> np.ndarray:
        """``(S, L, levels, dims)`` dimension indices in loop order (innermost first).

        The batched counterpart of ``Mapping.loop_order``: entry
        ``[s, l, level]`` permutes the dimension axis of start ``s``, layer
        ``l``'s temporal factors at ``level`` into that layer's walk order.
        Compiled lazily from the current orderings and cached until
        :meth:`load_mapping_sets` changes them.
        """
        if self._order_perms is None:
            self._order_perms = np.array(
                [[[[DIM_INDEX[d] for d in ordering_for_tensor(ordering)]
                   for ordering in layer_orderings]
                  for layer_orderings in start]
                 for start in self.start_orderings],
                dtype=np.intp,
            )
        return self._order_perms

    def positions(self, slots: np.ndarray) -> np.ndarray:
        """Flat positions in the factor tensor of per-entry ``slots``.

        ``slots`` has shape ``(S or 1, L or 1, *rest)`` (see
        :func:`factor_slot`); the result, ``(S, L, *rest)``, addresses each
        start's and layer's own entry of those slots, for
        :func:`~repro.autodiff.ops.gather`.
        """
        slots = np.asarray(slots, dtype=np.intp)
        entries = (np.arange(self.num_starts)[:, None] * len(self.layers)
                   + np.arange(len(self.layers))[None, :])
        entries = entries.reshape(entries.shape + (1,) * (slots.ndim - 2))
        return slots * (self.num_starts * len(self.layers)) + entries

    # ------------------------------------------------------------------ #
    # Differentiable factor access
    # ------------------------------------------------------------------ #
    def factor_tensor(self) -> Tensor:
        """Every tiling factor as one dense ``(2 * levels, dims, S, L)`` tensor.

        Rows ``SPATIAL_ROW + l`` hold level ``l``'s spatial factors: the two
        free weight-stationary factors (C at the accumulator, K at the
        scratchpad), exactly 1.0 elsewhere.  Rows ``TEMPORAL_ROW + l`` hold
        the temporal factors: ``exp`` of the free log factors at the
        optimized levels and, in the DRAM row, the remaining problem size
        ``dim_sizes / inner``, where ``inner`` is ``(T0 * T1) * T2`` times
        the dimension's spatial factor (Section 5.3.3), so the gradient of a
        DRAM factor flows into the inner ones.  Each factor slot is a
        contiguous ``(S, L)`` plane, so the model's products and sums over
        slots fold plane by plane and never across starts.  One node: its
        backward takes the gradient of every slot, through the DRAM row, to
        the two log-factor leaves, and drops the constant slots'.
        """
        log_temporal, log_spatial = self.log_temporal, self.log_spatial
        sizes = self.dim_sizes.T[:, None, :]            # (dims, 1, L)
        shape = (FACTOR_ROWS, NUM_DIMS, self.num_starts, len(self.layers))
        free_rows = slice(TEMPORAL_ROW, TEMPORAL_ROW + len(OPTIMIZED_LEVELS))
        dram_row = TEMPORAL_ROW + LEVEL_DRAM
        saved: list = [None]

        def forward():
            temporal = np.exp(log_temporal.data).transpose(2, 3, 0, 1)
            spatial = np.exp(log_spatial.data).transpose(2, 0, 1)
            out = np.ones(shape)
            out[free_rows] = temporal
            out[_SPATIAL_ROWS, _SPATIAL_COLS] = spatial
            inner = temporal[0] * temporal[1]
            for level in range(2, len(temporal)):
                inner = inner * temporal[level]
            inner[_SPATIAL_COLS] *= spatial
            np.divide(sizes, inner, out=out[dram_row])
            saved[0] = temporal, spatial, inner
            return out

        def backward(grad: np.ndarray):
            temporal, spatial, inner = saved[0]
            grad_inner = -grad[dram_row] * sizes / inner**2
            scaled = grad_inner * inner
            grad_temporal = grad[free_rows] + scaled / temporal
            grad_spatial = grad[_SPATIAL_ROWS, _SPATIAL_COLS] + scaled[_SPATIAL_COLS] / spatial
            return ((grad_temporal * temporal).transpose(2, 3, 0, 1)
                    if log_temporal.requires_grad else None,
                    (grad_spatial * spatial).transpose(1, 2, 0)
                    if log_spatial.requires_grad else None)

        return log_temporal._make_child(forward(), (log_temporal, log_spatial),
                                        backward, forward)

    # ------------------------------------------------------------------ #
    # Numeric snapshots
    # ------------------------------------------------------------------ #
    def rounded_mapping_sets(
        self,
        starts: Sequence[int] | None = None,
        max_spatial: float | None = None,
    ) -> list[list[Mapping]]:
        """Selected starts' nearest valid mappings (Section 5.3.2) in one walk.

        All selected starts' fractional factors go through a single ``(S, L)``
        pass of the integer-rounding kernel
        (:mod:`repro.mapping.rounding_walk`), producing mappings bit-identical
        to rounding each start alone.  ``starts`` defaults to every start
        point; the result is ordered like ``starts``.
        """
        if starts is None:
            starts = range(self.num_starts)
        starts = [int(start) for start in starts]
        for start in starts:
            if not 0 <= start < self.num_starts:
                raise ValueError(f"start index {start} out of range "
                                 f"[0, {self.num_starts})")
        temporal, spatial = _raw_factor_tensors(
            self.log_temporal.data[starts], self.log_spatial.data[starts])
        out_temporal, out_spatial = round_factor_tensors(
            temporal, spatial, RoundingTables.for_layers(self.layers),
            max_spatial=max_spatial)
        return [
            [Mapping(layer=layer, temporal=out_temporal[i, index].copy(),
                     spatial=out_spatial[i, index].copy(),
                     orderings=self.start_orderings[start][index])
             for index, layer in enumerate(self.layers)]
            for i, start in enumerate(starts)
        ]

    def with_uniform_orderings(self, ordering: LoopOrdering) -> "MultiStartFactors":
        """Shallow view sharing parameters, with ``ordering`` at every level.

        Used by the softmax loop-ordering loss and the iterative re-selection
        to evaluate the WS/IS/OS candidates of every start point and layer
        without duplicating parameter state.
        """
        view = MultiStartFactors.__new__(MultiStartFactors)
        view.__dict__.update(self.__dict__)
        view.start_orderings = [
            [(ordering,) * NUM_LEVELS] * len(self.layers)] * self.num_starts
        view._order_perms = None
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MultiStartFactors({self.num_starts} starts x "
                f"{len(self.layers)} layers)")
