"""The node-per-operation graphs that the fused autodiff kernels stand for.

Each function builds, out of plain :class:`~repro.autodiff.Tensor` ops, the
graph one fused op of :mod:`repro.autodiff.ops` replaces, so the parity
tests can compare fused and chained values and gradients as ``tobytes()``:

* :func:`chain_prod` — ``((t0 * t1) * t2) * ...``, one multiplication node
  per term: what :func:`repro.autodiff.ops.cumprod` and
  :func:`repro.autodiff.ops.sequence_prod` stand for, and the products of
  the per-column model (:mod:`oracles.layer_model`).
* :func:`sliced_gather` — a basic-index slice node followed by an
  advanced-index gather node, whose backward scatters through
  ``np.add.at``: what :func:`repro.autodiff.ops.gather` stands for in the
  reload walk.
* :func:`recomputing_reload_product` — the reload product whose backward
  re-derives its inclusion mask (the ``seen_relevant`` state machine as an
  int64 ``cumsum``), gated values and product from the walk, where
  :func:`repro.autodiff.ops.reload_product` keeps them from its forward
  (and finds the first active relevant position with an ``argmax``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autodiff import Tensor


def chain_prod(values: Iterable[Tensor | float | np.ndarray]) -> Tensor:
    """Product of the terms as a chain of one multiplication node per term.

    The chain starts at the first term and skips literal ``1.0`` terms (no
    terms give ``Tensor(1.0)``; one term is returned as is).
    """
    out = None
    for value in values:
        if isinstance(value, (int, float)) and value == 1.0:
            continue
        out = Tensor.as_tensor(value) if out is None else out * value
    return Tensor(1.0) if out is None else out


def sliced_gather(x: Tensor, index: tuple) -> Tensor:
    """``x[index]`` with every leading integer of ``index`` taken as a slice node.

    ``index`` is ``(rows..., level, perm)`` as the reload walk indexes the
    stacked temporal factors: the integer ``level`` first becomes a basic
    ``x[:, :, level, :]`` node, and the array indexes then gather from it.
    Without an integer the gather reads ``x`` directly (the DRAM factors).
    """
    levels = [axis for axis, item in enumerate(index) if isinstance(item, int)]
    if not levels:
        return x[index]
    axis = levels[0]
    sliced = x[(slice(None),) * axis + (index[axis],)]
    return sliced[index[:axis] + index[axis + 1:]]


def recomputing_reload_product(walk: Tensor, relevant: np.ndarray,
                               eps: float = 1e-9) -> Tensor:
    """The reload product that re-derives everything in its backward."""
    relevant = np.asarray(relevant, dtype=bool)

    def include_mask() -> np.ndarray:
        active = walk.data > 1.0 + eps
        relevant_active = active & relevant
        seen_before = (np.cumsum(relevant_active, axis=-1) - relevant_active) > 0
        return active & (relevant | seen_before)

    def forward():
        gated = np.where(include_mask(), walk.data, 1.0)
        return np.multiply.reduce(gated, axis=-1)

    def backward(grad: np.ndarray):
        include = include_mask()
        gated = np.where(include, walk.data, 1.0)
        product = np.multiply.reduce(gated, axis=-1)
        partials = (grad * product)[..., None] / gated
        return (np.where(include, partials, 0.0),)

    return walk._make_child(forward(), (walk,), backward, forward)
