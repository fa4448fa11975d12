"""The node-per-operation graphs that the fused autodiff kernels stand for.

Each function builds, out of plain :class:`~repro.autodiff.Tensor` ops, the
graph one fused op of :mod:`repro.autodiff.ops` replaces, so the parity
tests can compare fused and chained values and gradients as ``tobytes()``:

* :func:`chain_prod` — ``((t0 * t1) * t2) * ...``, one multiplication node
  per term: what :func:`repro.autodiff.ops.total_prod` stands for.
* :func:`sliced_gather` — a basic-index slice node followed by an
  advanced-index gather node, whose backward scatters through
  ``np.add.at``: what :func:`repro.autodiff.ops.gather` stands for in the
  reload walk.
* :func:`recomputing_reload_product` — the reload product whose backward
  re-derives its inclusion mask (the ``seen_relevant`` state machine as an
  int64 ``cumsum``), gated values and product from the walk, where
  :func:`repro.autodiff.ops.reload_product` keeps them from its forward
  (and finds the first active relevant position with an ``argmax``).

It also keeps two fused kernels of the per-column model that the dense
model no longer calls, checked against their chains in the same way:
:func:`total_prod` (one node for :func:`chain_prod`) and
:func:`hinge_below` (the stacked Eq.-18 hinges ``relu(threshold - v)``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.tensor import _unbroadcast


def chain_prod(values: Iterable[Tensor | float | np.ndarray]) -> Tensor:
    """Product of the terms as a chain of one multiplication node per term.

    The chain starts at the first term and skips literal ``1.0`` terms (no
    terms give ``Tensor(1.0)``; one term is returned as is), as
    ``ops.total_prod`` does.
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


def total_prod(values: Iterable) -> Tensor:
    """Product of an iterable of tensors/scalars (empty product is 1.0), as one node.

    Literal ``1.0`` terms are skipped: ``x * 1.0`` is ``x`` and ``g * 1.0``
    is ``g`` bit for bit in IEEE arithmetic.  No terms give ``Tensor(1.0)``
    and one term is returned as is.  Otherwise one node stands for the chain
    ``((t0 * t1) * t2) * ...`` of one multiplication node per term, bit for
    bit.  The forward runs the same left-to-right multiplies and keeps the
    partial products.  The backward walks the chain in reverse: term ``k``
    receives the incoming gradient times the partial product before it, and
    the gradient passed on is the incoming one times term ``k``, summed back
    to that partial product's shape as the chain's own ``_unbroadcast``
    would.  The walk stops where the partial product stops needing a
    gradient (a constant leading run of terms).  The node's parents are the
    terms in order, so the terms receive their shares in term order where
    the chain delivers them last term first: the same sums whenever the
    terms are distinct tensors, as in every product of the model.  A tensor
    repeated within one product gets its shares summed in the other order,
    so its gradient may differ from the chain's in the last bit.
    """
    terms = [Tensor.as_tensor(value) for value in values
             if not (isinstance(value, (int, float)) and value == 1.0)]
    if not terms:
        return Tensor(1.0)
    if len(terms) == 1:
        return terms[0]
    count = len(terms)
    prefixes: list = [None] * (count - 1)

    def forward():
        product = terms[0].data
        for k in range(1, count):
            prefixes[k - 1] = product
            product = product * terms[k].data
        return product

    out = terms[0]._make_child(forward(), tuple(terms), None, forward)
    if not out.requires_grad:
        return out
    first_live = next(k for k, term in enumerate(terms) if term.requires_grad)

    def backward(grad: np.ndarray):
        contributions: list = [None] * count
        for k in range(count - 1, 0, -1):
            prefix = prefixes[k - 1]
            if terms[k].requires_grad:
                contributions[k] = grad * prefix
            if k == first_live:
                break
            grad = grad * terms[k].data
            if grad.shape != prefix.shape:
                grad = _unbroadcast(grad, prefix.shape)
        else:
            contributions[0] = grad
        return contributions

    return out._set_backward(backward)


def hinge_below(values: Sequence, threshold: float = 1.0) -> Tensor:
    """The hinges ``max(threshold - v, 0)`` of same-shape tensors, as one node.

    This is the validity penalty of Equation 18, which discourages the
    optimizer from pushing tiling factors below 1.  The result stacks one
    hinge per value along a new *last* axis (shape ``(*shape, len(values))``).
    It is value- and gradient-identical to stacking ``relu(threshold - v)``
    per value: the forward computes the same two IEEE operations per element
    (and keeps the ``threshold - v > 0`` mask), and the backward hands each
    value ``-(g * mask)``, exactly what a subtraction node and a relu node
    emit between them.
    """
    tensors = [Tensor.as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("hinge_below of an empty sequence")
    mask: list = [None]

    def forward():
        gaps = threshold - np.stack([t.data for t in tensors], axis=-1)
        mask[0] = gaps > 0
        return np.maximum(gaps, 0.0)

    def backward(grad: np.ndarray):
        shares = -(grad * mask[0])
        return tuple(shares[..., i] if t.requires_grad else None
                     for i, t in enumerate(tensors))

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)
