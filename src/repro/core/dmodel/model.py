"""Differentiable capacity, traffic, latency and energy model (Equations 1-14).

This mirrors the reference analysis of :mod:`repro.timeloop.loopnest` but over
autodiff tensors and with smooth semantics: tile extents are real-valued
products (no ceiling), DRAM energy is charged per element (no block rounding),
and maxima use the exact-max subgradient of
:func:`repro.autodiff.ops.fold_max_grad`.
The structural decisions — which loops provide temporal reuse given the loop
ordering — are made from the current numeric factor values inside the fused
:func:`~repro.autodiff.ops.reload_product`, so each forward pass is
differentiable on its active piece.

The model is dense.  Every quantity comes from the ``(2 * levels, dims, S,
L)`` factor tensor of a
:class:`~repro.core.dmodel.factors.MultiStartFactors` (S start points x L
layers) through a few array ops, so one gradient step is a graph of a few
dozen nodes whatever S and L are.  Per-(start, layer) quantities are
``(S, L)`` planes and ``(k, S, L)`` stacks of them; every product and sum
folds plane by plane along a leading axis, never across starts:

* inner extents (Equations 2-5): one prefix product over the level axis;
* the words of the four *buffered tiles* — weights at the registers and the
  scratchpad, inputs at the scratchpad, outputs at the accumulator — as one
  node: masked products of the extents, and the Eq.-4 input halo;
* the MAC count (Eq. 7), the parallelism, the spatial reduction and broadcast
  products (Eqs. 8 and 10) and the distinct output tiles: products of factor
  slots in listed orders (:func:`~repro.autodiff.ops.sequence_prod`);
* the reload factors (Eq. 6): one gather of the temporal rows in walk order,
  whose suffixes are the four tiles' walks, feeds one
  :func:`~repro.autodiff.ops.reload_product`;
* the accesses (Eqs. 6-11): elementwise expressions over ``(k, S, L)``
  stacks of terms, summed per level;
* the roofline latency and the energy (Eqs. 12-13): one node each,
  :func:`_roofline_latency` and :func:`_energy`, over the
  :class:`~repro.core.dmodel.hardware.DifferentiableHardware` tables.

Each product and sum runs the IEEE operations of the per-column formulas it
replaced (kept as the parity oracle in ``tests/oracles/layer_model.py``) in
their order: a product padded with factors of exactly 1.0, or a sum padded
with terms of 0.0, is bit-identical.  So losses equal the oracle's; only the
order in which gradients accumulate differs.  No op reduces over the start
axis, so each start's values equal an S=1 stack's.  The backwards of the
products hand each factor the product over that factor; every factor is
positive.  Everything after the accesses — the hardware tables, latency,
energy and the losses of :mod:`repro.core.dmodel.loss` — also keeps the
gradients of the chain of nodes it replaced (``tests/oracles/tail.py``) bit
for bit: each kernel takes its parents in the chain's order and repeats the
chain's backward operations in order, including the sums over the layer
axis that hand the ``(n, S, 1)`` tables their gradients.
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
)
from repro.autodiff import Tensor, ops
from repro.core.dmodel.factors import (
    TEMPORAL_ROW,
    MultiStartFactors,
    factor_slot,
)
from repro.core.dmodel.hardware import DifferentiableHardware
from repro.mapping.mapping import DIM_INDEX, NUM_DIMS, SPATIAL_DIMS
from repro.workloads.layer import DIMENSIONS, TENSOR_DIMS

_FACTOR_EPS = 1e-9

#: The buffered tiles, as ``(level, tensor)``, in the order of every
#: per-tile stack: tile words, reload factors and the fills they multiply to.
BUFFERED_TILES: tuple[tuple[int, str], ...] = (
    (LEVEL_REGISTERS, "W"),
    (LEVEL_SCRATCHPAD, "W"),
    (LEVEL_SCRATCHPAD, "I"),
    (LEVEL_ACCUMULATOR, "O"),
)
_OUTPUT_TILE = BUFFERED_TILES.index((LEVEL_ACCUMULATOR, "O"))
_SCRATCHPAD_TILES = [BUFFERED_TILES.index((LEVEL_SCRATCHPAD, tensor))
                     for tensor in ("W", "I")]

#: The traffic terms of Equations 6-11, in the order ``traffic`` stacks them
#: (``compute``, the compute latency, rides along in the MAC-driven rows and
#: no level reads it).
_TERMS = ("w_register_fill", "w_scratchpad_fill", "i_scratchpad_fill",
          "o_drain", "o_refill", "w_register_read", "compute",
          "o_update", "i_scratchpad_read")
#: Per level, the terms its accesses add up, in their summation order.
#: Register reads of W are one per MAC and scratchpad reads of W one per
#: register fill: the spatial broadcast of W (Eq. 8) is 1 at both levels,
#: since the weight-stationary array is spatial only in C and K.
_LEVEL_TERMS = {
    LEVEL_REGISTERS: ("w_register_fill", "w_register_read"),
    LEVEL_ACCUMULATOR: ("o_update", "o_drain", "o_refill"),
    LEVEL_SCRATCHPAD: ("w_scratchpad_fill", "i_scratchpad_fill",
                       "w_register_fill", "i_scratchpad_read"),
    LEVEL_DRAM: ("w_scratchpad_fill", "i_scratchpad_fill", "o_drain",
                 "o_refill"),
}
_LEVEL_TERM_TABLE = [[_TERMS.index(term) for term in _LEVEL_TERMS[level]]
                     for level in MEMORY_LEVEL_INDICES]

# The factor-slot sequences of the model's products, one row each of the
# (5, S, L) ``products`` stack.  Equation 7's MAC count takes every factor,
# dimension-major, each level's temporal factor before its spatial one; the
# parallelism every spatial factor; Equations 8 and 10 the spatial reduction
# of outputs at the accumulator and the spatial broadcast of inputs at the
# scratchpad; and the distinct output tiles above the accumulator.
_PRODUCT_SLOTS = [
    [factor_slot(kind, level, dim) for dim in DIMENSIONS
     for level in MEMORY_LEVEL_INDICES for kind in ("T", "S")],
    [factor_slot("S", level, dim) for level in MEMORY_LEVEL_INDICES
     for dim in DIMENSIONS],
    *[[factor_slot("S", level, dim) for dim in DIMENSIONS
       if dim not in TENSOR_DIMS[tensor]]
      for level, tensor in ((LEVEL_ACCUMULATOR, "O"), (LEVEL_SCRATCHPAD, "I"))],
    [factor_slot("T", level, dim) for level in range(LEVEL_ACCUMULATOR, LEVEL_DRAM + 1)
     for dim in DIMENSIONS if dim in TENSOR_DIMS["O"]],
]
_RELEVANT_DIMS = {tensor: np.array([dim in dims for dim in DIMENSIONS])
                  for tensor, dims in TENSOR_DIMS.items()}
# The accumulator and scratchpad spatial factors, interleaved per layer:
# the side-length candidates of the hardware derivation.
_SIDE_SLOTS = np.array([factor_slot("S", level, dim) for level, dim in SPATIAL_DIMS])


def _tile_words(extents: Tensor, stride_p: np.ndarray, stride_q: np.ndarray) -> Tensor:
    """Words of the :data:`BUFFERED_TILES` (Equations 2-4), ``(4, S, L)``, one node.

    ``extents`` are the prefix products of the factor tensor, whose row
    ``TEMPORAL_ROW - 1 + level`` holds each dimension's extent inside the
    level's tile.  Weight and output tiles multiply their tensor's extents
    in dimension order.  The input tile is the Eq.-4 halo product
    ``(C * N) * (stride_p * (P - 1) + R) * (stride_q * (Q - 1) + S)``.
    """
    c, n, p, q, r, s = (DIM_INDEX[dim] for dim in "CNPQRS")
    product_tiles = [(k, TEMPORAL_ROW - 1 + level,
                      np.array([dim in TENSOR_DIMS[tensor] for dim in DIMENSIONS])[:, None, None])
                     for k, (level, tensor) in enumerate(BUFFERED_TILES) if tensor != "I"]
    [(input_tile, input_row)] = [(k, TEMPORAL_ROW - 1 + level)
                                 for k, (level, tensor) in enumerate(BUFFERED_TILES)
                                 if tensor == "I"]
    saved: list = [None]

    def forward():
        data = extents.data
        out = np.empty((len(BUFFERED_TILES),) + data.shape[2:])
        for k, row, mask in product_tiles:
            np.multiply.reduce(np.where(mask, data[row], 1.0), axis=0, out=out[k])
        row = data[input_row]
        base = row[c] * row[n]
        height = stride_p * (row[p] - 1.0) + row[r]
        width = stride_q * (row[q] - 1.0) + row[s]
        base_height = base * height
        np.multiply(base_height, width, out=out[input_tile])
        saved[0] = out, base, height, width, base_height
        return out

    def backward(grad: np.ndarray):
        words, base, height, width, base_height = saved[0]
        data = extents.data
        out = np.zeros(data.shape)
        for k, row, mask in product_tiles:
            out[row] += np.where(mask, (grad[k] * words[k]) / data[row], 0.0)
        row = data[input_row]
        grad_words = grad[input_tile]
        grad_base_height = grad_words * width
        grad_base = grad_base_height * height
        grad_height = grad_base_height * base
        grad_width = grad_words * base_height
        out_row = out[input_row]
        out_row[c] += grad_base * row[n]
        out_row[n] += grad_base * row[c]
        out_row[p] += grad_height * stride_p
        out_row[r] += grad_height
        out_row[q] += grad_width * stride_q
        out_row[s] += grad_width
        return (out,)

    return extents._make_child(forward(), (extents,), backward, forward)



def _roofline_latency(per_mac: Tensor, accesses: Tensor, bandwidths: Tensor) -> Tensor:
    """Roofline latency (Equation 12), ``(S, L)``, one node.

    The left-fold maximum, down the leading axis, of the compute latency
    (``per_mac``'s first row) and every level's accesses over its bandwidth
    (the level rows of ``bandwidths``).  Forward and backward run the IEEE
    operations of the chain it replaced — a slice, a division, a concat and
    a fold maximum whose ties split 0.5/0.5 — in its order, including the
    sum over the layer axis that hands each ``(levels, S, 1)`` bandwidth its
    gradient.
    """
    levels = len(MEMORY_LEVEL_INDICES)
    saved: list = [None]

    def forward():
        terms = np.empty((1 + levels,) + accesses.data.shape[1:])
        terms[0] = per_mac.data[0]
        np.divide(accesses.data, bandwidths.data[:levels], out=terms[1:])
        running = np.maximum.accumulate(terms, axis=0)
        saved[0] = terms, running
        return running[-1]

    def backward(grad: np.ndarray):
        terms, running = saved[0]
        rates = bandwidths.data[:levels]
        grad_terms = ops.fold_max_grad(grad[None], terms, running)
        grad_per_mac = np.zeros(per_mac.data.shape)
        grad_per_mac[0] += grad_terms[0]
        grad_levels = grad_terms[1:]
        grad_bandwidths = None
        if bandwidths.requires_grad:
            grad_rates = -grad_levels * accesses.data / (rates**2)
            if grad_rates.shape != rates.shape:
                grad_rates = grad_rates.sum(axis=-1, keepdims=True)
            grad_bandwidths = np.zeros(bandwidths.data.shape)
            grad_bandwidths[:levels] = grad_rates
        return grad_per_mac, grad_levels / rates, grad_bandwidths

    return per_mac._make_child(forward(), (per_mac, accesses, bandwidths), backward, forward)


def _energy(macs: Tensor, accesses: Tensor, action_energies: Tensor) -> Tensor:
    """Energy (Equation 13), ``(S, L)``, one node.

    The left-fold sum of the MAC count and every level's accesses, each times
    its row of ``action_energies``, with the IEEE operations of the chain it
    replaced (a concat, a product and a fold sum) in its order, including the
    sum over the layer axis that hands each ``(1 + levels, S, 1)`` energy its
    gradient.
    """
    saved: list = [None]

    def forward():
        counts = np.concatenate([macs.data, accesses.data])
        products = counts * action_energies.data
        total = products[0] + products[1]
        for product in products[2:]:
            total += product
        saved[0] = counts
        return total

    def backward(grad: np.ndarray):
        grad_counts = grad * action_energies.data
        grad_energies = None
        if action_energies.requires_grad:
            grad_energies = grad * saved[0]
            if grad_energies.shape != action_energies.data.shape:
                grad_energies = grad_energies.sum(axis=-1, keepdims=True)
        return grad_counts[:1], grad_counts[1:], grad_energies

    return macs._make_child(forward(), (macs, accesses, action_energies), backward, forward)


class DenseTerms:
    """The ordering-independent terms of the model over one factor tensor.

    Built once per loss graph and shared by the hardware derivation, every
    candidate ordering's evaluation and the validity penalty.  Fields (all
    tensors over ``(S, L)`` planes):

    * ``tensor`` — the factor tensor (:meth:`MultiStartFactors.factor_tensor`);
    * ``extents`` — its prefix products over the rows; row
      ``TEMPORAL_ROW - 1 + level`` holds the inner extents of ``level``;
    * ``tiles`` — the :data:`BUFFERED_TILES`' words, ``(4, S, L)``, and
      ``output_tile``, the accumulator's, ``(S, L)``;
    * ``macs`` and ``distinct_outputs`` — ``(1, S, L)``;
    * ``per_mac`` — the MAC count over the parallelism (the compute latency,
      Eq. 12), over the output reduction at the accumulator (its output
      updates) and over the input broadcast at the scratchpad (its input
      reads), ``(3, S, L)``.
    """

    def __init__(self, factors: MultiStartFactors) -> None:
        self.tensor = factors.factor_tensor()
        self.extents = ops.cumprod(self.tensor)
        self.tiles = _tile_words(self.extents, factors.stride_p, factors.stride_q)
        self.output_tile = self.tiles[_OUTPUT_TILE]
        products = ops.sequence_prod(self.tensor, _PRODUCT_SLOTS, slot_ndim=2)
        self.macs = products[:1]
        self.distinct_outputs = products[4:]
        self.per_mac = self.macs / products[1:4]


@dataclass
class LayerPerformance:
    """Differentiable per-layer latency/energy: ``(S, L)`` tensors (start x layer).

    ``accesses`` stacks every memory level's accesses, ``(levels, S, L)``.
    """

    latency: Tensor
    energy: Tensor
    accesses: Tensor

    @property
    def edp(self) -> Tensor:
        return self.latency * self.energy


class DifferentiableModel:
    """Evaluates :class:`MultiStartFactors` into differentiable performance."""

    # ------------------------------------------------------------------ #
    # Traffic (Equations 6-11)
    # ------------------------------------------------------------------ #
    @staticmethod
    def reload_factors(factors: MultiStartFactors, terms: DenseTerms) -> Tensor:
        """Times each buffered tile is refetched (loop-order aware, Eq. 6), ``(4, S, L)``.

        The walk visits the temporal factors levels outward, innermost loop
        first within each level, in each start's and layer's orderings: one
        :func:`~repro.autodiff.ops.gather` of static flat positions in the
        factor tensor, positions first.  A tile's walk is the suffix from
        its level, so the positions below that level are marked irrelevant,
        which keeps them out of its product.  The value-dependent skip rules
        (near-1 factors, irrelevant loops inside the first relevant one)
        live inside :func:`~repro.autodiff.ops.reload_product`, which
        re-derives them from current values on every forward pass.
        """
        perms = factors.order_perms()                           # (S, L, levels, dims)
        levels = np.arange(len(MEMORY_LEVEL_INDICES))
        slots = (TEMPORAL_ROW + levels[:, None]) * NUM_DIMS + perms
        positions = factors.positions(slots.reshape(perms.shape[:2] + (-1,)))
        walk = ops.gather(terms.tensor, np.moveaxis(positions, -1, 0)[:, None])
        walk_levels = np.repeat(levels, NUM_DIMS)[:, None, None]
        relevant = np.stack([
            (walk_levels >= level)
            & np.moveaxis(_RELEVANT_DIMS[tensor][perms].reshape(perms.shape[:2] + (-1,)),
                          -1, 0)
            for level, tensor in BUFFERED_TILES], axis=1)       # (positions, 4, S, L)
        return ops.reload_product(walk, relevant, eps=_FACTOR_EPS, axis=0)

    @classmethod
    def traffic(cls, factors: MultiStartFactors, terms: DenseTerms | None = None) -> Tensor:
        """Accesses per memory level (reads + writes + updates), ``(levels, S, L)``.

        Each buffered tile's fills are its words times its reloads (Eq. 6);
        the accumulator refills outputs for every reload past the distinct
        tiles (Eq. 9); MAC-driven reads and updates divide the MAC count by
        the spatial broadcast or reduction (Eqs. 8 and 10).  Each level then
        adds up its terms in the order of ``_LEVEL_TERMS``.
        """
        terms = terms if terms is not None else DenseTerms(factors)
        reloads = cls.reload_factors(factors, terms)
        fills = terms.tiles * reloads
        output_reloads = reloads[_OUTPUT_TILE:_OUTPUT_TILE + 1]
        refills = terms.output_tile * ops.relu(output_reloads - terms.distinct_outputs)
        stacked = ops.concat([fills, refills, terms.macs, terms.per_mac])
        return ops.sequence_sum(stacked, _LEVEL_TERM_TABLE)

    # ------------------------------------------------------------------ #
    # Latency / energy / EDP (Equations 12-14)
    # ------------------------------------------------------------------ #
    @classmethod
    def evaluate_layer(
        cls,
        factors: MultiStartFactors,
        hardware: DifferentiableHardware,
        terms: DenseTerms | None = None,
    ) -> LayerPerformance:
        """Differentiable latency and energy of every start's layers on ``hardware``.

        The latency is the left-fold maximum of the compute latency (MACs
        over parallelism) and each level's accesses over its bandwidth; the
        energy is the left-fold sum of the MAC energy and each level's
        accesses times its energy per access: one node each.  ``terms`` lets
        several orderings of one factor tensor (``factors`` views) share its
        terms and one derived ``hardware``.
        """
        terms = terms if terms is not None else DenseTerms(factors)
        accesses = cls.traffic(factors, terms)
        return LayerPerformance(
            latency=_roofline_latency(terms.per_mac, accesses, hardware.bandwidths),
            energy=_energy(terms.macs, accesses, hardware.action_energies),
            accesses=accesses)

    # ------------------------------------------------------------------ #
    # Hardware derivation (Equation 1, Figure 3) over a set of layers
    # ------------------------------------------------------------------ #
    @classmethod
    def derive_hardware(cls, factors: MultiStartFactors,
                        terms: DenseTerms | None = None) -> DifferentiableHardware:
        """Minimal hardware supporting every layer's current factors (differentiably).

        One independently-derived configuration per start point: each start's
        candidates fold left to right over its layers (each layer's
        accumulator-C then scratchpad-K spatial factor, then the capacity
        maxima), with values and tie subgradients equal to the chained
        per-layer maxima (:func:`~repro.autodiff.ops.fold_max_grad`).  The
        Table-2 costs come back as two nodes of ``(n, S, 1)`` tables that
        broadcast over the ``(S, L)`` factor grid
        (:class:`~repro.core.dmodel.hardware.DifferentiableHardware`).
        ``terms`` lets one set of terms serve hardware derivation, evaluation
        and the validity penalty within a single loss graph.
        """
        terms = terms if terms is not None else DenseTerms(factors)
        slots = np.broadcast_to(_SIDE_SLOTS, (1, len(factors.layers), len(_SIDE_SLOTS)))
        sides = factors.positions(slots).reshape(factors.num_starts, 1, -1)
        return DifferentiableHardware.from_requirements(
            terms.tensor, sides, terms.output_tile, terms.tiles, _SCRATCHPAD_TILES)

    @classmethod
    def evaluate_network(
        cls,
        factors: MultiStartFactors,
        hardware: DifferentiableHardware | None = None,
        terms: DenseTerms | None = None,
    ) -> LayerPerformance:
        """Evaluate every layer, deriving minimal hardware if none is given.

        Returns one :class:`LayerPerformance` whose fields are ``(S, L)``
        tensors — one graph for all start points of a search.
        """
        terms = terms if terms is not None else DenseTerms(factors)
        if hardware is None:
            hardware = cls.derive_hardware(factors, terms=terms)
        return cls.evaluate_layer(factors, hardware, terms)

