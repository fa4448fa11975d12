"""Rounding of fractional tiling factors to the nearest valid mapping.

Gradient descent produces real-valued tiling factors; before a mapping can be
evaluated (or hardware derived from it), every factor must be an integer
divisor of its problem dimension and the per-dimension product must equal the
problem size exactly.  The procedure follows Section 5.3.2 of the paper:
factors are rounded to the nearest divisor, iterating from the innermost to
the outermost memory level, never letting the running product exceed the
problem size; the outermost (DRAM) temporal factor absorbs the remainder.

The walk runs as NumPy array ops over stacked ``(S, L)`` factor tensors — all
S mapping sets x L layers at once — instead of one Python walk per mapping.
A per-mapping scalar walk is kept in ``tests/oracles/rounding.py`` as the
parity oracle: ``tests/test_rounding_parity.py`` fuzzes this kernel against it
and asserts bit-identity per mapping.

The trick is that every quantity the walk touches lives on a *finite lattice*:
each dimension's running ``remaining`` value is always a divisor of the layer's
problem size, and so is every candidate factor.  :class:`RoundingTables`
therefore precomputes, per (layer, dimension), the ascending divisor list of
the problem size plus a divisibility mask and a quotient-index table over it.
The walk then never manipulates integers directly — it carries ``remaining``
as an ``(S, L)`` array of *indices* into the divisor rows, selects each
position's factor with a masked ``argmin`` over the gap to the raw fractional
value (first minimum = smallest divisor, matching a scalar strict-``<``
tie-break), and advances the remainder through the quotient table.  The
``max_spatial`` cap and the WS reset of unsupported spatial positions are
masks; the DRAM factor is written last from the final remainder.

Walk order comes from :func:`_positions_for_dim`, which the scalar oracle
imports too, so the two implementations cannot drift apart on which position
is "innermost".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.arch.components import LEVEL_DRAM, MEMORY_LEVEL_INDICES
from repro.mapping.mapping import DIM_INDEX, NUM_DIMS, NUM_LEVELS, SPATIAL_DIMS
from repro.utils.math_utils import divisors
from repro.workloads.layer import DIMENSIONS, LayerDims

__all__ = [
    "RoundingTables",
    "round_factor_tensors",
]


def _positions_for_dim(dim: str) -> list[tuple[str, int]]:
    """Factor positions for ``dim`` ordered innermost to outermost.

    Spatial positions are interleaved at the level the WS dataflow assigns
    them; the DRAM temporal factor is excluded (it is inferred last).
    """
    positions: list[tuple[str, int]] = []
    spatial_levels = {d: level for level, d in SPATIAL_DIMS}
    for level in MEMORY_LEVEL_INDICES:
        if level != LEVEL_DRAM:
            positions.append(("T", level))
        if spatial_levels.get(dim) == level:
            positions.append(("S", level))
    return positions


class _DimTable:
    """Divisor lattice of one dimension across L layers.

    ``ints``/``floats``
        ``(L, m)`` ascending divisors of each layer's problem size, padded
        with zeros on the right (padding is never a candidate).
    ``divides``
        ``(L, m, m)`` mask: ``divides[l, r, k]`` is True when divisor ``k``
        divides divisor ``r`` (both real entries of layer ``l``).
    ``quotients``
        ``(L, m, m)`` index table: where ``divides[l, r, k]`` holds,
        ``quotients[l, r, k]`` is the row index of ``ints[l, r] // ints[l, k]``
        — how ``remaining`` advances after choosing factor ``k``.
    ``start_index``
        ``(L,)`` index of each layer's problem size itself (the walk's
        initial ``remaining``).
    """

    __slots__ = ("ints", "floats", "divides", "quotients", "start_index")

    def __init__(self, totals: tuple[int, ...]) -> None:
        div_lists = [divisors(total) for total in totals]
        count = len(totals)
        width = max(len(divs) for divs in div_lists)
        self.ints = np.zeros((count, width), dtype=np.int64)
        self.divides = np.zeros((count, width, width), dtype=bool)
        self.quotients = np.zeros((count, width, width), dtype=np.intp)
        self.start_index = np.empty(count, dtype=np.intp)
        for row, divs in enumerate(div_lists):
            self.ints[row, : len(divs)] = divs
            self.start_index[row] = len(divs) - 1
            index_of = {d: k for k, d in enumerate(divs)}
            for r, outer in enumerate(divs):
                for k, inner in enumerate(divs):
                    if outer % inner == 0:
                        self.divides[row, r, k] = True
                        self.quotients[row, r, k] = index_of[outer // inner]
        self.floats = self.ints.astype(np.float64)


@lru_cache(maxsize=128)
def _dim_table(totals: tuple[int, ...]) -> _DimTable:
    """One :class:`_DimTable` per distinct per-layer size tuple (shared
    across dimensions that happen to have the same sizes, e.g. R and S)."""
    return _DimTable(totals)


class RoundingTables:
    """Per-dimension divisor tables for a fixed layer stack.

    Problem dimensions are fixed for a whole search, so the tables are built
    once (and cached per layer tuple via :meth:`for_layers`) and reused at
    every rounding point.
    """

    __slots__ = ("num_layers", "dims")

    def __init__(self, layers: Sequence[LayerDims]) -> None:
        if not layers:
            raise ValueError("RoundingTables requires at least one layer")
        self.num_layers = len(layers)
        self.dims: dict[str, _DimTable] = {
            dim: _dim_table(tuple(layer.dim(dim) for layer in layers))
            for dim in DIMENSIONS
        }

    @staticmethod
    def for_layers(layers: Sequence[LayerDims]) -> "RoundingTables":
        """Cached tables for ``layers`` (hashable :class:`LayerDims`)."""
        return _tables_for_layers(tuple(layers))


@lru_cache(maxsize=32)
def _tables_for_layers(layers: tuple[LayerDims, ...]) -> RoundingTables:
    return RoundingTables(layers)


def _spatial_limit(remaining_values: np.ndarray, cap: int) -> np.ndarray:
    """Per-entry spatial limit: ``min(remaining, cap)``, like the scalar walk."""
    return np.minimum(remaining_values, cap)


def _advance_remaining(table: _DimTable, rows: np.ndarray, rem_index: np.ndarray,
                       choice: np.ndarray) -> np.ndarray:
    """Carry the remainder: index of ``remaining // chosen`` per entry."""
    return table.quotients[rows, rem_index, choice]


def round_factor_tensors(
    temporal: np.ndarray,
    spatial: np.ndarray,
    tables: RoundingTables,
    max_spatial: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Round stacked fractional factor tensors to valid integral factors.

    ``temporal``/``spatial`` hold S mapping sets in :class:`Mapping` layout,
    shape ``(S, L, NUM_LEVELS, NUM_DIMS)``; set ``s``, row ``l`` is the
    (possibly fractional) mapping of layer ``l`` of ``tables``.  Returns the
    rounded ``(temporal, spatial)`` pair of the same shape, entry-for-entry
    equal to walking each mapping alone: spatial factors outside the WS
    positions reset to 1, the DRAM temporal row inferred from the remainder
    (its input values are ignored), and fractional ``max_spatial`` caps (e.g.
    a mesh bound computed as ``15.999999...``) rounded to the nearest integer
    rather than truncated, so float noise cannot silently shrink the spatial
    tile.  Caps below 1 raise ``ValueError``.
    """
    if max_spatial is not None and max_spatial < 1:
        raise ValueError(f"max_spatial must be >= 1, got {max_spatial}")
    temporal = np.asarray(temporal, dtype=np.float64)
    spatial = np.asarray(spatial, dtype=np.float64)
    expected = (tables.num_layers, NUM_LEVELS, NUM_DIMS)
    if (temporal.ndim != 4 or temporal.shape[1:] != expected
            or spatial.shape != temporal.shape):
        raise ValueError(
            f"expected temporal/spatial of shape (S, {tables.num_layers}, "
            f"{NUM_LEVELS}, {NUM_DIMS}), got {temporal.shape} / {spatial.shape}")
    num_sets = temporal.shape[0]
    cap = None if max_spatial is None else int(round(max_spatial))

    out_temporal = np.ones_like(temporal)
    # Spatial positions outside SPATIAL_DIMS stay 1 (the WS reset); only the
    # walked positions below are ever written.
    out_spatial = np.ones_like(spatial)
    rows = np.arange(tables.num_layers)

    for dim in DIMENSIONS:
        j = DIM_INDEX[dim]
        table = tables.dims[dim]
        rem_index = np.broadcast_to(
            table.start_index, (num_sets, tables.num_layers)).copy()
        for kind, level in _positions_for_dim(dim):
            raw = (spatial if kind == "S" else temporal)[:, :, level, j]
            value = np.maximum(raw, 1.0)
            # Candidates: divisors of the current remainder...
            candidates = table.divides[rows, rem_index]
            if kind == "S" and cap is not None:
                # ...further capped (per entry) at min(remaining, cap).
                limit = _spatial_limit(table.ints[rows, rem_index], cap)
                candidates = candidates & (table.ints[None, :, :] <= limit[:, :, None])
            gaps = np.abs(value[:, :, None] - table.floats[None, :, :])
            gaps[~candidates] = np.inf
            # First minimum over ascending divisors = smallest divisor on a
            # tie, matching the scalar strict-< scan.
            choice = np.argmin(gaps, axis=2)
            # The scalar walk falls back to a factor of 1 when the cap
            # excludes every divisor; index 0 is each row's divisor 1.
            # (Unreachable while cap >= 1, but kept for exact oracle parity.)
            choice[~candidates.any(axis=2)] = 0
            rounded = table.ints[rows, choice]
            (out_spatial if kind == "S" else out_temporal)[:, :, level, j] = rounded
            rem_index = _advance_remaining(table, rows, rem_index, choice)
        out_temporal[:, :, LEVEL_DRAM, j] = table.ints[rows, rem_index]
    return out_temporal, out_spatial
