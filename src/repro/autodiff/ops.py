"""Functional operations on :class:`~repro.autodiff.tensor.Tensor` values.

These are the building blocks of the DOSA differentiable model: products of
tiling factors, smooth maxima for the roofline latency, the softmax used for
gradient-based loop-ordering (paper Section 5.2.2), and the hinge penalty used
to keep tiling factors valid (Equation 18).

Every op records a forward-recompute closure (see
:mod:`repro.autodiff.tensor`), so graphs built from these functions can be
replayed by :class:`repro.autodiff.tape.Tape` without re-tracing.  The two
fused reductions at the bottom — :func:`fold_max` and :func:`reload_product` —
replace long chains of scalar nodes in the stacked DOSA model with a
single array node each, while reproducing the chained ops' values and
(sub)gradients exactly.
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
        return ((x, grad * (x.data > 0)),)

    return x._make_child(forward(), (x,), backward, forward)


def sigmoid(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return 1.0 / (1.0 + np.exp(-x.data))

    out = x._make_child(forward(), (x,), None, forward)

    def backward(grad: np.ndarray):
        return ((x, grad * out.data * (1.0 - out.data)),)

    return out._set_backward(backward)


def tanh(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return np.tanh(x.data)

    out = x._make_child(forward(), (x,), None, forward)

    def backward(grad: np.ndarray):
        return ((x, grad * (1.0 - out.data**2)),)

    return out._set_backward(backward)


def maximum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise maximum with subgradient split evenly at ties."""
    a = _as_tensor(a)
    b = _as_tensor(b)

    def forward():
        return np.maximum(a.data, b.data)

    def backward(grad: np.ndarray):
        tie = (a.data == b.data) * 0.5
        a_mask = (a.data > b.data) + tie
        b_mask = (b.data > a.data) + tie
        return ((a, grad * a_mask), (b, grad * b_mask))

    return a._make_child(forward(), (a, b), backward, forward)


def minimum(a: TensorLike, b: TensorLike) -> Tensor:
    """Elementwise minimum (dual of :func:`maximum`)."""
    return -maximum(-_as_tensor(a), -_as_tensor(b))


def clamp_min(x: TensorLike, lower: float) -> Tensor:
    """Clamp ``x`` from below at ``lower`` (gradient passes where x > lower)."""
    return maximum(_as_tensor(x), Tensor(lower))


def clamp_max(x: TensorLike, upper: float) -> Tensor:
    """Clamp ``x`` from above at ``upper``."""
    return minimum(_as_tensor(x), Tensor(upper))


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
        return ((a, grad * a_mask), (b, grad * b_mask))

    return a._make_child(forward(), (a, b), backward, forward)


def hinge_below(x: TensorLike, threshold: float = 1.0) -> Tensor:
    """``max(threshold - x, 0)`` summed over all elements.

    This is the validity penalty of Equation 18, which discourages the
    optimizer from pushing tiling factors below 1.
    """
    x = _as_tensor(x)
    return relu(Tensor(threshold) - x).sum()


# --------------------------------------------------------------------------- #
# Reductions and combinations
# --------------------------------------------------------------------------- #
def total_prod(values: Iterable[TensorLike]) -> Tensor:
    """Product of an iterable of tensors/scalars (empty product is 1.0)."""
    values = [_as_tensor(v) for v in values]
    out = Tensor(1.0)
    for value in values:
        out = out * value
    return out


def stack(values: Sequence[TensorLike]) -> Tensor:
    """Stack same-shape tensors (scalars, vectors, matrices) into a new leading axis."""
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("stack of an empty sequence")
    shapes = [t.data.shape for t in tensors]

    def forward():
        return np.stack([t.data for t in tensors])

    def backward(grad: np.ndarray):
        return tuple((t, grad[i].reshape(shapes[i])) for i, t in enumerate(tensors))

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
        for i, t in enumerate(tensors):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(int(boundaries[i]), int(boundaries[i + 1]))
            pieces.append((t, grad[tuple(index)]))
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
        return ((x, np.transpose(grad, inverse)),)

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
        return ((x, out.data * (grad - dot)),)

    return out._set_backward(backward)


def log_sum_exp(x: TensorLike, axis: int = -1) -> Tensor:
    """Numerically stable log-sum-exp reduction along ``axis``.

    Not tape-replayable: the stabilizing shift is captured as a constant at
    trace time (the default DOSA model uses the exact max instead).
    """
    x = _as_tensor(x)
    max_data = x.data.max(axis=axis, keepdims=True)
    shifted = x - Tensor(max_data)
    summed = shifted.exp().sum(axis=axis, keepdims=True)
    return summed.log() + Tensor(max_data.reshape(summed.data.shape))


def smooth_max(values: Sequence[TensorLike], sharpness: float = 32.0) -> Tensor:
    """Differentiable approximation of max via log-sum-exp.

    As ``sharpness`` grows this approaches the exact maximum; it is offered as
    an alternative to the piecewise-linear :func:`maximum` for experiments on
    gradient smoothness, though the paper (and our default model) uses the
    exact max with subgradients.
    """
    stacked = stack(values) * sharpness
    return log_sum_exp(stacked, axis=0).reshape(()) / sharpness


def dot(a: Sequence[TensorLike] | Tensor, b: Sequence[TensorLike] | Tensor) -> Tensor:
    """Inner product of two vectors (lists of scalars or 1-D tensors)."""
    a_tensor = a if isinstance(a, Tensor) else stack(list(a))
    b_tensor = b if isinstance(b, Tensor) else stack(list(b))
    return (a_tensor * b_tensor).sum()


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
        return ((x, np.broadcast_to(grad, x.data.shape)),)

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
            return ((x, np.moveaxis(contribution, -1, axis_n)),)
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
        return ((x, np.moveaxis(grad * shares, -1, axis_n)),)

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
        return ((walk, np.where(include, partials, 0.0)),)

    return walk._make_child(forward(), (walk,), backward, forward)
