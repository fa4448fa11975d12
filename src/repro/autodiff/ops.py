"""Functional operations on :class:`~repro.autodiff.tensor.Tensor` values.

These are the building blocks of the DOSA differentiable model and the
surrogate's MLP: :func:`relu` (the MLP's activation, and the refills past
the distinct output tiles), the softmax used for gradient-based
loop-ordering (paper Section 5.2.2), :func:`stack` and :func:`concat`, and
the dense kernels below.  :func:`exp`, :func:`maximum` and :func:`transpose`
serve the per-column model that the parity tests compare the dense one
against, and the chains the kernels stand for.

Every op records a forward-recompute closure (see
:mod:`repro.autodiff.tensor`), so graphs built from these functions can be
replayed by :class:`repro.autodiff.tape.Tape` without re-tracing.  The dense
DOSA model runs on a handful of array ops, each one node with a fused
backward: :func:`cumprod` (prefix products along the leading axis),
:func:`sequence_prod` and :func:`sequence_sum` (left-fold products and sums
of leading-axis slots taken in listed orders), :func:`gather` (distinct flat positions),
and the reductions :func:`fold_sum` and :func:`reload_product`.  Each runs
its IEEE operations in the order of the chain of nodes it stands for, so its
values match that chain bit for bit; only the order in which gradients
accumulate may differ.  A product of positive factors hands each factor the
product over that factor, one division, instead of a walk over prefix and
suffix products.  Masks select (``np.where``) in every backward and never
multiply, so an infinite factor cannot turn a masked-out gradient into
``NaN``.  Masks and prefix products are computed once per forward, and the
backward reuses them.  :func:`fold_max_grad` is the tie split of a left-fold
maximum over arrays, which the model's hardware and roofline kernels run
inside their own nodes.
"""

from __future__ import annotations

from typing import Sequence

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


def relu(x: TensorLike) -> Tensor:
    x = _as_tensor(x)

    def forward():
        return np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (x.data > 0),)

    return x._make_child(forward(), (x,), backward, forward)


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


# --------------------------------------------------------------------------- #
# Reductions and combinations
# --------------------------------------------------------------------------- #
def gather(x: Tensor, positions: np.ndarray) -> Tensor:
    """The elements of ``x`` at distinct flat (C-order) ``positions``, as one node.

    The result has the shape of ``positions``.  Every position is read at
    most once, so the backward writes the incoming gradient into a zero
    array of ``x``'s shape instead of scatter-adding it: ``grad + 0.0``
    reproduces ``np.add.at``'s ``0.0 + g``, which turns ``-0.0`` into
    ``0.0``.  The node is bit-identical, in value and gradient, to an
    advanced-index ``x[...]`` node, with or without a basic-index slice node
    in front of it (a slice adds ``0.0 + g`` once more, which changes
    nothing after the first).
    """
    positions = np.asarray(positions, dtype=np.intp)
    if np.unique(positions).size != positions.size:
        raise ValueError("gather positions must be distinct")
    shape = x.data.shape

    def forward():
        return x.data.ravel().take(positions)

    def backward(grad: np.ndarray):
        full = np.zeros(shape)
        full.reshape(-1)[positions] = grad + 0.0
        return (full,)

    return x._make_child(forward(), (x,), backward, forward)


def stack(values: Sequence[TensorLike]) -> Tensor:
    """Stack tensors along a new leading axis, broadcasting them to one shape first.

    Scalars and constants broadcast against the tensors (e.g. a level's
    fixed bandwidth beside the ``(S, 1)`` derived ones); each parent's
    gradient slice is summed back to its own shape by the backward program.
    """
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("stack of an empty sequence")
    shape = (len(tensors),) + np.broadcast_shapes(*(t.data.shape for t in tensors))

    def forward():
        out = np.empty(shape)
        for i, t in enumerate(tensors):
            out[i] = t.data
        return out

    def backward(grad: np.ndarray):
        return tuple(grad[i] if t.requires_grad else None
                     for i, t in enumerate(tensors))

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)


def concat(values: Sequence[TensorLike]) -> Tensor:
    """Concatenate tensors along the leading axis."""
    tensors = [_as_tensor(v) for v in values]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    boundaries = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def forward():
        return np.concatenate([t.data for t in tensors])

    def backward(grad: np.ndarray):
        return tuple(grad[start:stop] for start, stop in zip(boundaries[:-1], boundaries[1:]))

    return tensors[0]._make_child(forward(), tuple(tensors), backward, forward)


def transpose(x: TensorLike, axes: Sequence[int]) -> Tensor:
    """Permute the axes of a tensor (``np.transpose`` with explicit axes).

    The parity tests build the chains of the fold maximum and
    :func:`reload_product` with it (e.g. ``(k, S, L) -> (S, L, k)`` to put
    the folded axis last).
    """
    x = _as_tensor(x)
    axes = tuple(int(a) % x.data.ndim for a in axes)
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
    out: list = [None]

    def forward():
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out[0] = exps / exps.sum(axis=axis, keepdims=True)
        return out[0]

    def backward(grad: np.ndarray):
        weights = out[0]
        dot = (grad * weights).sum(axis=axis, keepdims=True)
        return (weights * (grad - dot),)

    return x._make_child(forward(), (x,), backward, forward)


def cumprod(x: TensorLike) -> Tensor:
    """Prefix products along the leading axis, as one node.

    Entry ``k`` is ``((x[0] * x[1]) * ...) * x[k]``, the chain of
    multiplications, bit for bit.  The factors must be positive: the
    backward hands ``x[j]`` the sum, over the prefixes ``k >= j``, of each
    prefix's gradient times the prefix, divided by ``x[j]``.
    """
    x = _as_tensor(x)
    prefixes: list = [None]

    def forward():
        out = np.empty_like(x.data)
        out[0] = x.data[0]
        for k in range(1, len(out)):
            np.multiply(out[k - 1], x.data[k], out=out[k])
        prefixes[0] = out
        return out

    def backward(grad: np.ndarray):
        weighted = grad * prefixes[0]
        for k in range(len(weighted) - 2, -1, -1):
            weighted[k] += weighted[k + 1]
        return (weighted / x.data,)

    return x._make_child(forward(), (x,), backward, forward)


def _sequence_table(sequences) -> tuple[bool, list[np.ndarray]]:
    """``(single, rows)``: whether one bare sequence was given, and the rows.

    Each row is an array of distinct slot numbers; one bare sequence (1-D)
    stands for a one-row table whose result drops the row axis.
    """
    single = np.ndim(sequences[0]) == 0
    rows = [np.asarray(row, dtype=np.intp) for row in ([sequences] if single else sequences)]
    for row in rows:
        if row.ndim != 1 or row.size == 0:
            raise ValueError("each sequence must list at least one slot")
        if np.unique(row).size != row.size:
            raise ValueError("a sequence may name each slot at most once")
    return single, rows


def sequence_prod(x: TensorLike, sequences, slot_ndim: int = 1) -> Tensor:
    """Left-fold products of ``x``'s slots in listed orders, as one node.

    The leading ``slot_ndim`` axes of ``x`` flatten (C order) into slots,
    each a plane over the remaining axes.  ``sequences`` lists slot numbers:
    one sequence (1-D) gives one product plane, a list of ``k`` sequences a
    ``(k, ...)`` stack.  Each product multiplies its slots left to right,
    bit for bit the chain of one multiplication per slot (a slot holding
    exactly 1.0 changes nothing).  The factors must be positive: the
    backward hands each slot the incoming gradient times the product,
    divided by the slot.
    """
    x = _as_tensor(x)
    single, rows = _sequence_table(sequences)
    size = int(np.prod(x.data.shape[:slot_ndim], dtype=np.intp))
    plane = x.data.shape[slot_ndim:]
    # The backward addresses each sequence's slots in slot order, as a slice
    # when they are contiguous.
    targets = [slice(row.min(), row.max() + 1) if row.max() - row.min() + 1 == row.size
               else np.sort(row) for row in rows]
    products: list = [None]

    def forward():
        slots = x.data.reshape((size,) + plane)
        out = np.empty((len(rows),) + plane)
        for i, row in enumerate(rows):
            np.multiply.reduce(slots.take(row, axis=0), axis=0, out=out[i, ...])
        products[0] = out
        return out[0] if single else out

    def backward(grad: np.ndarray):
        slots = x.data.reshape((size,) + plane)
        scaled = grad * products[0][0] if single else grad * products[0]
        full = np.zeros((size,) + plane)
        for i, target in enumerate(targets):
            full[target] += (scaled if single else scaled[i]) / slots[target]
        return (full.reshape(x.data.shape),)

    return x._make_child(forward(), (x,), backward, forward)


def sequence_sum(x: TensorLike, sequences) -> Tensor:
    """Left-fold sums of ``x``'s leading-axis slices in listed orders, as one node.

    The additive sibling of :func:`sequence_prod` (with one slot axis): each
    sum adds its slices left to right, bit for bit the chain of one addition
    per slice.  Each slice's gradient is the sum of the gradients of the
    sequences that name it.
    """
    x = _as_tensor(x)
    single, rows = _sequence_table(sequences)
    plane = x.data.shape[1:]
    slot_lists = [row.tolist() for row in rows]

    def forward():
        data = x.data
        out = np.empty((len(rows),) + plane)
        for i, row in enumerate(slot_lists):
            total = out[i, ...]
            np.add(data[row[0]], data[row[1]], out=total) if len(row) > 1 else \
                np.copyto(total, data[row[0]])
            for index in row[2:]:
                total += data[index]
        return out[0] if single else out

    def backward(grad: np.ndarray):
        grads = [grad] if single else grad
        full = np.zeros(x.data.shape)
        for row, row_grad in zip(slot_lists, grads):
            for index in row:
                full[index] += row_grad
        return (full,)

    return x._make_child(forward(), (x,), backward, forward)


# --------------------------------------------------------------------------- #
# Folds and the reload product
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
    shape = x.data.shape
    axis_n = axis % len(shape)
    last = (slice(None),) * axis_n + (-1,)
    kept = shape[:axis_n] + (1,) + shape[axis_n + 1:]

    def forward():
        data = x.data
        if axis_n == 0 and data.ndim > 1:
            # Leading-axis fold: one vectorized addition per slice.
            total = data[0] + data[1] if len(data) > 1 else data[0].copy()
            for value in data[2:]:
                total += value
            return total
        return np.asarray(np.cumsum(data, axis=axis_n)[last])

    def backward(grad: np.ndarray):
        out = np.empty(shape)
        out[...] = np.reshape(grad, kept)
        return (out,)

    return x._make_child(forward(), (x,), backward, forward)


def fold_max_grad(grad: np.ndarray, data: np.ndarray, running: np.ndarray) -> np.ndarray:
    """Gradient of the left-fold maximum of ``data`` down its leading axis.

    ``running`` is the fold's running maxima, ``np.maximum.accumulate(data,
    axis=0)``, whose last row is the fold's value, and ``grad`` the incoming
    gradient with a leading axis of length 1.  The shares are those of the
    chain ``maximum(maximum(x[0], x[1]), x[2]) ...`` of :func:`maximum`
    nodes, the way the per-layer hardware derivation folds its candidates:
    at every fold step the newcomer takes 1, 0.5 or 0 of the gradient
    reaching it and the running maximum keeps 0, 0.5 or 1, so earlier tied
    candidates receive geometrically smaller shares, not an even split among
    *all* ties, and a step with a ``NaN`` operand hands neither side
    anything.  Every share is a product of 0, 0.5 and 1, so one reversed
    ``np.multiply.accumulate`` over the kept parts computes them exactly,
    and the gradient equals the chain's bit for bit.  Without ties or
    ``NaN`` the whole gradient goes to the one entry equal to the maximum
    and every other entry gets ``0.0``.
    """
    if len(data) == 1:
        return grad + np.zeros(data.shape)
    prev, new = running[:-1], data[1:]
    ties = new == prev
    if not np.count_nonzero(ties) and not np.count_nonzero(np.isnan(running[-1])):
        return np.where(data == running[-1], grad, 0.0)
    split = 0.5 * ties
    shares = np.empty(data.shape)
    shares[-1] = 1.0
    shares[-2::-1] = np.multiply.accumulate(((prev > new) + split)[::-1], axis=0)
    shares[1:] *= (new > prev) + split
    return grad * shares


def reload_product(walk: Tensor, relevant: np.ndarray, eps: float = 1e-9,
                   axis: int = -1) -> Tensor:
    """Loop-order-aware reload-factor product over a walk along ``axis``.

    ``walk`` holds, per batch entry, the temporal factors in walk order
    (levels outward, innermost loop first within each level) along
    ``axis``; ``relevant`` marks the positions whose dimension is relevant
    to the tensor being analyzed.  Every other axis is a batch axis, reduced
    independently.  ``walk`` may also broadcast against ``relevant``: the
    dense model reads several tensors' walks, each a suffix of one walk,
    from a single gather, with the positions below each walk's level marked
    irrelevant (so excluded); the backward program sums their gradients
    back.  A position multiplies into the product iff its factor exceeds
    ``1 + eps`` and it is either relevant or preceded by an active relevant
    position — exactly the ``seen_relevant`` state machine of
    :func:`repro.timeloop.loopnest.reload_factor` and its differentiable
    counterpart; since an irrelevant position before the first active
    relevant one is out, the included positions are the active ones from
    that first one on.  Excluded positions contribute a factor of exactly
    1.0 and receive zero gradient, matching the per-layer graph that simply
    omits them.  Every forward re-derives the inclusion mask from
    ``walk.data`` and keeps it with the gated factors and their product,
    which the backward reuses (each included factor's gradient is the
    incoming one times the product over the factor); so the op stays
    correct under tape replay while the graph wiring remains static.
    """
    relevant = np.asarray(relevant, dtype=bool)
    if np.broadcast_shapes(walk.data.shape, relevant.shape) != relevant.shape:
        raise ValueError(
            f"walk/relevant shape mismatch: {walk.data.shape} vs {relevant.shape}")
    ndim = relevant.ndim
    axis_n = axis % ndim
    front = (axis_n,) + tuple(a for a in range(ndim) if a != axis_n)
    back = tuple(int(a) for a in np.argsort(front))
    relevant_first = relevant.transpose(front)
    count = relevant_first.shape[0]
    # Positions as small ints: comparing them with the first position is
    # several times faster than with the platform's index type.
    order = np.arange(count, dtype=np.int16).reshape((count,) + (1,) * (ndim - 1))
    # The active relevant positions, plus one always-true row past the end:
    # its first true row is the first active relevant position, or ``count``.
    flags = np.ones((count + 1,) + relevant_first.shape[1:], dtype=bool)
    state: list = [None, None, None]  # inclusion mask, gated factors, product

    def forward():
        data = walk.data.transpose(front)
        active = data > 1.0 + eps
        np.logical_and(active, relevant_first, out=flags[:-1])
        include = active & (order >= flags.argmax(axis=0).astype(np.int16))
        gated = np.where(include, data, 1.0)
        product = np.multiply.reduce(gated, axis=0)
        state[:] = include, gated, product
        return product

    def backward(grad: np.ndarray):
        include, gated, product = state
        partials = np.where(include, (grad * product) / gated, 0.0)
        return (partials.transpose(back),)

    return walk._make_child(forward(), (walk,), backward, forward)
