"""The :class:`Mapping` container: tiling factors and loop orderings.

A mapping for one layer on the four-level Gemmini hierarchy consists of

* **temporal tiling factors** ``f_T[i, d]`` — the loop bound of dimension
  ``d`` at memory level ``i``,
* **spatial tiling factors** ``f_S[i, d]`` — the parallel (unrolled) bound of
  dimension ``d`` at level ``i``.  Gemmini's weight-stationary dataflow only
  parallelizes the input-channel dimension C (indexed at the accumulator
  level) and the output-channel dimension K (indexed at the scratchpad level),
  matching Equation 1 of the paper,
* a **loop ordering** per level, which fixes the relative order of that
  level's temporal loops and therefore which tensors enjoy temporal reuse.

For every dimension the product of all spatial and temporal factors must equal
the layer's problem size; :mod:`repro.mapping.rounding_walk` restores this
invariant after gradient-descent updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping as MappingType, Sequence

import numpy as np

from repro.arch.components import (
    LEVEL_ACCUMULATOR,
    LEVEL_DRAM,
    LEVEL_SCRATCHPAD,
    MEMORY_LEVEL_INDICES,
)
from repro.workloads.layer import DIMENSIONS, LayerDims, TENSOR_DIMS

NUM_LEVELS = len(MEMORY_LEVEL_INDICES)
NUM_DIMS = len(DIMENSIONS)
DIM_INDEX: dict[str, int] = {d: i for i, d in enumerate(DIMENSIONS)}

# Gemmini weight-stationary dataflow: C is parallelized along one side of the
# systolic array (indexed at the accumulator level) and K along the other
# (indexed at the scratchpad level).  All other spatial factors are fixed at 1.
SPATIAL_DIMS: tuple[tuple[int, str], ...] = (
    (LEVEL_ACCUMULATOR, "C"),
    (LEVEL_SCRATCHPAD, "K"),
)


class LoopOrdering(str, Enum):
    """Named loop orderings considered by DOSA (Section 5.2).

    Each ordering keeps one tensor "stationary" at a level by placing the
    loops of dimensions *irrelevant* to that tensor innermost, maximizing that
    tensor's temporal reuse at the level.
    """

    WEIGHT_STATIONARY = "WS"
    INPUT_STATIONARY = "IS"
    OUTPUT_STATIONARY = "OS"

    @property
    def tensor(self) -> str:
        return {"WS": "W", "IS": "I", "OS": "O"}[self.value]


def ordering_for_tensor(ordering: LoopOrdering) -> tuple[str, ...]:
    """Concrete dimension order (innermost first) realizing ``ordering``.

    Dimensions irrelevant to the stationary tensor come first (innermost),
    then the relevant dimensions; within each group the canonical dimension
    order is kept so orderings are deterministic.
    """
    relevant = TENSOR_DIMS[ordering.tensor]
    irrelevant_dims = tuple(d for d in DIMENSIONS if d not in relevant)
    relevant_dims = tuple(d for d in DIMENSIONS if d in relevant)
    return irrelevant_dims + relevant_dims


# Default per-level orderings: weight-stationary everywhere, matching the
# fixed Gemmini dataflow used before loop-ordering search is enabled.
DEFAULT_ORDERINGS: tuple[LoopOrdering, ...] = tuple(
    LoopOrdering.WEIGHT_STATIONARY for _ in MEMORY_LEVEL_INDICES
)


@dataclass
class Mapping:
    """Tiling factors and loop orderings of one layer's mapping."""

    layer: LayerDims
    temporal: np.ndarray = field(default=None)  # shape (levels, dims)
    spatial: np.ndarray = field(default=None)   # shape (levels, dims)
    orderings: tuple[LoopOrdering, ...] = DEFAULT_ORDERINGS

    def __post_init__(self) -> None:
        if self.temporal is None:
            self.temporal = np.ones((NUM_LEVELS, NUM_DIMS), dtype=np.float64)
        if self.spatial is None:
            self.spatial = np.ones((NUM_LEVELS, NUM_DIMS), dtype=np.float64)
        self.temporal = np.asarray(self.temporal, dtype=np.float64)
        self.spatial = np.asarray(self.spatial, dtype=np.float64)
        if self.temporal.shape != (NUM_LEVELS, NUM_DIMS):
            raise ValueError(
                f"temporal factors must have shape {(NUM_LEVELS, NUM_DIMS)}, "
                f"got {self.temporal.shape}"
            )
        if self.spatial.shape != (NUM_LEVELS, NUM_DIMS):
            raise ValueError(
                f"spatial factors must have shape {(NUM_LEVELS, NUM_DIMS)}, "
                f"got {self.spatial.shape}"
            )
        if len(self.orderings) != NUM_LEVELS:
            raise ValueError(f"expected {NUM_LEVELS} loop orderings, got {len(self.orderings)}")
        self.orderings = tuple(LoopOrdering(o) for o in self.orderings)

    # ------------------------------------------------------------------ #
    # Factor access
    # ------------------------------------------------------------------ #
    def temporal_factor(self, level: int, dim: str) -> float:
        return float(self.temporal[level, DIM_INDEX[dim]])

    def spatial_factor(self, level: int, dim: str) -> float:
        return float(self.spatial[level, DIM_INDEX[dim]])

    def set_temporal(self, level: int, dim: str, value: float) -> None:
        self.temporal[level, DIM_INDEX[dim]] = value

    def set_spatial(self, level: int, dim: str, value: float) -> None:
        self.spatial[level, DIM_INDEX[dim]] = value

    def factor_product(self, dim: str) -> float:
        """Product of all spatial and temporal factors of ``dim``."""
        j = DIM_INDEX[dim]
        return float(self.temporal[:, j].prod() * self.spatial[:, j].prod())

    def spatial_product(self) -> float:
        """Product of every spatial factor (the number of PEs utilized)."""
        return float(self.spatial.prod())

    def loop_order(self, level: int) -> tuple[str, ...]:
        """Dimension order of the temporal loops at ``level``, innermost first."""
        return ordering_for_tensor(self.orderings[level])

    # ------------------------------------------------------------------ #
    # Manipulation
    # ------------------------------------------------------------------ #
    def copy(self) -> "Mapping":
        return Mapping(
            layer=self.layer,
            temporal=self.temporal.copy(),
            spatial=self.spatial.copy(),
            orderings=self.orderings,
        )

    def with_orderings(self, orderings: Sequence[LoopOrdering]) -> "Mapping":
        """Copy of this mapping with different per-level loop orderings."""
        return Mapping(
            layer=self.layer,
            temporal=self.temporal.copy(),
            spatial=self.spatial.copy(),
            orderings=tuple(orderings),
        )

    def with_dram_inferred(self) -> "Mapping":
        """Copy whose DRAM temporal factors absorb the remaining problem size.

        DOSA does not optimize DRAM-level factors directly (Section 5.3.3);
        they are inferred so that factor products match the layer dimensions.
        The inferred factor is clamped below at 1.
        """
        updated = self.copy()
        for dim in DIMENSIONS:
            j = DIM_INDEX[dim]
            inner = 1.0
            for level in MEMORY_LEVEL_INDICES:
                inner *= updated.spatial[level, j]
                if level != LEVEL_DRAM:
                    inner *= updated.temporal[level, j]
            total = float(updated.layer.dim(dim))
            updated.temporal[LEVEL_DRAM, j] = max(total / max(inner, 1e-12), 1.0)
        return updated

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def is_integral(self, tolerance: float = 1e-9) -> bool:
        """True when every tiling factor is (numerically) an integer."""
        return bool(
            np.all(np.abs(self.temporal - np.round(self.temporal)) <= tolerance)
            and np.all(np.abs(self.spatial - np.round(self.spatial)) <= tolerance)
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly representation used by the experiment harnesses."""
        return {
            "layer": self.layer.dims() | {
                "stride_p": self.layer.stride_p,
                "stride_q": self.layer.stride_q,
                "name": self.layer.name,
                "repeats": self.layer.repeats,
            },
            "temporal": self.temporal.tolist(),
            "spatial": self.spatial.tolist(),
            "orderings": [o.value for o in self.orderings],
        }

    @staticmethod
    def from_dict(payload: MappingType[str, object]) -> "Mapping":
        layer_info = dict(payload["layer"])
        layer = LayerDims(
            R=int(layer_info["R"]), S=int(layer_info["S"]), P=int(layer_info["P"]),
            Q=int(layer_info["Q"]), C=int(layer_info["C"]), K=int(layer_info["K"]),
            N=int(layer_info["N"]), stride_p=int(layer_info.get("stride_p", 1)),
            stride_q=int(layer_info.get("stride_q", 1)),
            name=str(layer_info.get("name", "")),
            repeats=int(layer_info.get("repeats", 1)),
        )
        return Mapping(
            layer=layer,
            temporal=np.asarray(payload["temporal"], dtype=np.float64),
            spatial=np.asarray(payload["spatial"], dtype=np.float64),
            orderings=tuple(LoopOrdering(o) for o in payload["orderings"]),
        )

    def describe(self) -> str:
        """Loop-nest style pretty print (outermost level first)."""
        names = {0: "registers", 1: "accumulator", 2: "scratchpad", 3: "dram"}
        lines = [f"mapping of {self.layer}"]
        for level in reversed(MEMORY_LEVEL_INDICES):
            parts = []
            for dim in reversed(self.loop_order(level)):  # outermost first
                value = self.temporal_factor(level, dim)
                if value > 1.0 + 1e-9:
                    parts.append(f"for {dim.lower()} in [0:{value:g})")
            for spatial_level, dim in SPATIAL_DIMS:
                if spatial_level == level and self.spatial_factor(level, dim) > 1.0 + 1e-9:
                    parts.append(
                        f"spatial_for {dim.lower()} in [0:{self.spatial_factor(level, dim):g})"
                    )
            ordering = self.orderings[level].value
            body = "; ".join(parts) if parts else "(no loops)"
            lines.append(f"  {names[level]:<12} [{ordering}] {body}")
        return "\n".join(lines)


def identity_mapping(layer: LayerDims) -> Mapping:
    """A trivial valid mapping: everything tiled at DRAM, nothing parallel."""
    mapping = Mapping(layer=layer)
    for dim in DIMENSIONS:
        mapping.set_temporal(LEVEL_DRAM, dim, float(layer.dim(dim)))
    return mapping
