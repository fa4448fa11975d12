"""Functional operations on :class:`~repro.autodiff.tensor.Tensor` values.

These are the building blocks of the DOSA differentiable model: products of
tiling factors, maxima for the roofline latency, the softmax used for
gradient-based loop-ordering (paper Section 5.2.2), and the hinge penalty used
to keep tiling factors valid (Equation 18).

Every op records a forward-recompute closure (see
:mod:`repro.autodiff.tensor`), so graphs built from these functions can be
replayed by :class:`repro.autodiff.tape.Tape` without re-tracing.  The
fused ops — :func:`hinge_below` and the reductions at the bottom,
:func:`fold_max` and :func:`reload_product` — replace long chains of nodes
in the stacked DOSA model with a single array node each, while reproducing
the chained ops' values and (sub)gradients exactly; :func:`total_prod`
records no node for a literal ``1.0`` factor.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor

TensorLike = "Tensor | float | int | np.ndarray"


def _as_tensor(value: TensorLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# --------------------------------------------------------------------------- #
# Elementwise functions
# --------------------------------------------------------------------------- #
def exp(x: TensorLike) -> Tensor:
    return _as_tensor(x).exp()


def log(x: TensorLike) -> Tensor:
    return _as_tensor(x).log()


def sqrt(x: TensorLike) -> Tensor:
    return _as_tensor(x).sqrt()


def relu(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (x.data > 0),)

    return x._make_child(forward(), (x,), backward, forward)


def sigmoid(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return 1.0 / (1.0 + np.exp(-x.data))

    out = x._make_child(forward(), (x,), None, forward)

    def backward(grad: np.ndarray):
        return (grad * out.data * (1.0 - out.data),)

    return out._set_backward(backward)


def tanh(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return np.tanh(x.data)

    out = x._make_child(forward(), (x,), None, forward)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out.data**2),)

    return out._set_backward(backward)


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise maximum with subgradient split evenly at ties."""
    a = _as_tensor(a)
    b = _as_tensor(b)

    def forward():
        return np.maximum(a.data, b.data)

    def backward(grad: np.ndarray):
        tie = (a.data == b.data) * 0.5
        return (grad * ((a.data > b.data) + tie) if a.requires_grad else None,
                grad * ((b.data > a.data) + tie) if b.requires_grad else None)

    return a._make_child(forward(), (a, b), backward, forward)


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise minimum (dual of :func:`maximum`)."""
    return -maximum(-_as_tensor(a), -_as_tensor(b))


def where(condition: np.ndarray, a: TensorLike, b: TensorLike) -> Tensor:
    """Differentiable selection: ``a`` where ``condition`` is true, else ``b``.

    ``condition`` is a plain boolean array (no gradient flows through it).
    The condition is captured statically, so this op is tape-replayable only
    when the condition does not depend on values that change between replays;
    for the value-dependent structural masks of the DOSA model use
    :func:`reload_product`, which re-derives its masks every pass.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    a_mask = cond.astype(np.float64)
    b_mask = 1.0 - a_mask

    def forward():
        return np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray):
        return (grad * a_mask if a.requires_grad else None,
                grad * b_mask if b.requires_grad else None)

    return a._make_child(forward(), (a, b), backward, forward)


def hinge_below(values: Sequence[TensorLike], threshold: float = 1.0) -> Tensor:
    """The hinges ``max(threshold - v, 0)`` of same-shape tensors, as one node.

    This is the validity penalty of Equation 18, which discourages the
    optimizer from pushing tiling factors below 1.  The result stacks one
    hinge per value along a new *last* axis (shape ``(*shape, len(values))``).
    It is value- and gradient-identical to stacking ``relu(threshold - v)``
    per value: the forward computes the same two IEEE operations, and the
    backward hands each value ``-g * [threshold - v > 0]``, exactly what a
    subtraction node and a relu node emit between them.
    """
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("hinge_below of an empty sequence")

    def forward():
        return np.stack([np.maximum(threshold - t.data, 0.0) for t in tensors],
                        axis=-1)

    def backward(grad: np.ndarray):
        return tuple(-(grad[..., i] * (threshold - t.data > 0))
                     if t.requires_grad else None
                     for i, t in enumerate(tensors))

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)


# --------------------------------------------------------------------------- #
# Reductions and combinations
# --------------------------------------------------------------------------- #
def total_prod(values: Iterable[TensorLike]) -> Tensor:
    """Product of an iterable of tensors/scalars (empty product is 1.0).

    The chain starts at the first term and skips literal ``1.0`` terms:
    ``x * 1.0`` is ``x`` and ``g * 1.0`` is ``g`` bit for bit in IEEE
    arithmetic, so dropping those nodes changes no value and no gradient.
    """
    out = None
    for value in values:
        if isinstance(value, (int, float)) and value == 1.0:
            continue
        out = _as_tensor(value) if out is None else out * value
    return Tensor(1.0) if out is None else out


def stack(values: Sequence[TensorLike]) -> Tensor:
    """Stack same-shape tensors (scalars, vectors, matrices) into a new leading axis."""
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("stack of an empty sequence")
    shapes = [t.data.shape for t in tensors]

    def forward():
        return np.stack([t.data for t in tensors])

    def backward(grad: np.ndarray):
        return tuple(grad[i].reshape(shape) for i, shape in enumerate(shapes))

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)


def concat(values: Sequence[TensorLike], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum([0] + sizes)

    def forward():
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = []
        for i in range(len(tensors)):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(int(boundaries[i]), int(boundaries[i + 1]))
            pieces.append(grad[tuple(index)])
        return tuple(pieces)

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)


def transpose(x: TensorLike, axes: Sequence[int]) -> Tensor:
    """Permute the axes of a tensor (``np.transpose`` with explicit axes).

    Used by the multi-start model to interleave per-layer columns inside each
    start's row (e.g. ``(2, S, L) -> (S, L, 2)`` before flattening to the
    per-start candidate order of the hardware derivation).
    """
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    inverse = tuple(int(a) for a in np.argsort(axes))

    def forward():
        return np.transpose(x.data, axes)

    def backward(grad: np.ndarray):
        return (np.transpose(grad, inverse),)

    return x._make_child(forward(), (x,), backward, forward)


def softmax(x: TensorLike, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Used by the gradient-based loop-ordering strategy (Equation 16) to weight
    per-ordering energies/latencies by their inverse EDP.
    """
    x = _as_tensor(x)

    def forward():
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=axis, keepdims=True)

    out = x._make_child(forward(), (x,), None, forward)

    def backward(grad: np.ndarray):
        dot = (grad * out.data).sum(axis=axis, keepdims=True)
        return (out.data * (grad - dot),)

    return out._set_backward(backward)


# --------------------------------------------------------------------------- #
# Fused reductions for the stacked DOSA model
# --------------------------------------------------------------------------- #
def fold_sum(x: TensorLike, axis: int = -1) -> Tensor:
    """Left-fold sum along ``axis``, as a single node.

    Value-identical to chaining ``x[0] + x[1] + ...`` as one node per
    addition, left to right (NumPy's ``sum`` uses pairwise summation, which
    rounds differently).  On a 1-D tensor this reduces to a
    scalar; on an ``(S, L)`` stack it reduces every row independently (the
    multi-start model folds each start's layers exactly as the per-start fold
    would).  The backward pass broadcasts the incoming gradient along the
    reduced axis, which is order-independent.
    """
    x = _as_tensor(x)
    if x.data.ndim == 0 or x.data.size == 0:
        raise ValueError(f"fold_sum expects a non-empty tensor with ndim >= 1, "
                         f"got shape {x.shape}")
    axis_n = axis % x.data.ndim

    def forward():
        return np.asarray(np.take(np.cumsum(x.data, axis=axis_n), -1, axis=axis_n))

    def backward(grad: np.ndarray):
        grad = np.expand_dims(np.asarray(grad, dtype=np.float64), axis_n)
        return (np.broadcast_to(grad, x.data.shape),)

    return x._make_child(forward(), (x,), backward, forward)


def fold_max(x: TensorLike, axis: int = -1) -> Tensor:
    """Left-fold maximum along ``axis``, as a single node.

    Equivalent — in value *and* subgradient — to chaining
    ``maximum(maximum(x[0], x[1]), x[2]) ...`` the way the per-layer hardware
    derivation folds its candidates: at every pairwise tie the gradient splits
    0.5/0.5, so earlier tied candidates receive geometrically smaller shares
    (unlike :meth:`Tensor.max`, which splits evenly among *all* ties).  Like
    :func:`fold_sum`, rows of an N-D tensor fold independently, so each start
    of a multi-start stack sees exactly the per-start fold semantics.
    """
    x = _as_tensor(x)
    if x.data.ndim == 0:
        raise ValueError(f"fold_max expects a tensor with ndim >= 1, got shape {x.shape}")
    axis_n = axis % x.data.ndim

    def forward():
        return np.asarray(np.maximum.reduce(x.data, axis=axis_n))

    def backward(grad: np.ndarray):
        data = np.moveaxis(x.data, axis_n, -1)
        grad = np.asarray(grad, dtype=np.float64)[..., None]
        n = data.shape[-1]
        if n == 1:
            contribution = np.broadcast_to(grad, data.shape)
            return (np.moveaxis(contribution, -1, axis_n),)
        running = np.maximum.accumulate(data, axis=-1)
        prev, new = running[..., :-1], data[..., 1:]
        # Share of the gradient taken by each newcomer / kept by the running
        # max at every fold step (ties split evenly, as in ops.maximum).
        take = (new > prev) + 0.5 * (new == prev)
        keep = 1.0 - take
        suffix = np.ones_like(data)
        np.multiply.accumulate(keep[..., ::-1], axis=-1, out=suffix[..., -2::-1])
        shares = np.empty_like(data)
        shares[..., 0] = suffix[..., 0]
        shares[..., 1:] = take * suffix[..., 1:]
        return (np.moveaxis(grad * shares, -1, axis_n),)

    return x._make_child(forward(), (x,), backward, forward)


def reload_product(walk: Tensor, relevant: np.ndarray, eps: float = 1e-9) -> Tensor:
    """Loop-order-aware reload-factor product over a ``(..., positions)`` walk.

    ``walk`` holds, per batch row, the temporal factors in walk order (levels
    outward, innermost loop first within each level); ``relevant`` marks the
    positions whose dimension is relevant to the tensor being analyzed.  Any
    number of leading batch axes is supported — ``(S, L, positions)`` in
    the start-batched model — with each row reduced independently along the
    last axis.  A position
    multiplies into the product iff its factor exceeds ``1 + eps`` and it is
    either relevant or preceded by an active relevant position — exactly the
    ``seen_relevant`` state machine of
    :func:`repro.timeloop.loopnest.reload_factor` and its differentiable
    counterpart.  Excluded positions contribute a factor of exactly 1.0 and
    receive zero gradient, matching the per-layer graph that simply omits
    them.  The inclusion masks are re-derived from ``walk.data`` on every
    forward/backward pass, so the op stays correct under tape replay while
    the graph wiring remains static.
    """
    relevant = np.asarray(relevant, dtype=bool)
    if walk.data.shape != relevant.shape:
        raise ValueError(
            f"walk/relevant shape mismatch: {walk.data.shape} vs {relevant.shape}")

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
        prefix = np.ones_like(gated)
        suffix = np.ones_like(gated)
        if gated.shape[-1] > 1:
            np.multiply.accumulate(gated[..., :-1], axis=-1, out=prefix[..., 1:])
            np.multiply.accumulate(gated[..., :0:-1], axis=-1, out=suffix[..., -2::-1])
        partials = grad[..., None] * prefix * suffix
        return (np.where(include, partials, 0.0),)

    return walk._make_child(forward(), (walk,), backward, forward)
