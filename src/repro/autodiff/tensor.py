"""The :class:`Tensor` type: a NumPy array with reverse-mode autodiff.

Every differentiable quantity in the DOSA model — tiling factors, capacities,
access counts, latencies, energies, and the final EDP loss — is represented as
a ``Tensor``.  Calling :meth:`Tensor.backward` on a scalar loss walks the
recorded computation graph in reverse topological order and accumulates
gradients into every leaf tensor created with ``requires_grad=True``.

The implementation intentionally mirrors the small, explicit style of
micro-autograd engines: each operation stores its parents, a closure that
propagates the incoming gradient, and a closure that recomputes its forward
value from the parents' *current* ``.data``.  The recompute closures are what
make :class:`repro.autodiff.tape.Tape` possible: a captured graph can be
replayed forward and backward with fresh parameter values instead of being
re-traced from Python every optimizer step.  To keep replay faithful, backward
closures read ``.data`` at call time rather than capturing arrays at trace
time.  Broadcasting is supported; gradients are summed back to the parent's
shape before accumulation.

Backward closures follow a positional contract: ``backward(grad)`` returns one
contribution per entry of ``_parents``, in the same order: an array for every
parent that requires grad, and ``None`` (never read) for a constant one, so
the constant side of ``x * c`` is never computed.  A backward may reuse what
its own forward computed last (masks, gated values, prefix products, running
maxima) instead of re-deriving it from the parents, because a backward always
follows the forward it belongs to: :meth:`Tensor.backward` runs on a graph
whose forwards ran when it was built, and the tape replays every forward
before its backward.

Reverse accumulation has one implementation, :class:`BackwardProgram`: it
compiles a topological order once into a flat list of steps — per node its
slot, its backward closure, and its live edges (per parent that requires
grad, its position, slot and shape) — and runs over a plain list of per-slot
gradients.  :meth:`Tensor.backward` compiles and runs a program once; the
tape compiles one per trace and reruns it every step.  Contributions to a
node are summed in the order they arrive, so a replayed backward is
bit-identical to a fresh one.

That order is also what lets a fused node (one node doing the work of a
chain of ops, e.g. :func:`repro.autodiff.ops.sequence_prod`) reproduce its
chain's values bit for bit: its forward runs the chain's IEEE operations in
the chain's order.  Its gradients match the chain's bit for bit only if its
backward also runs the chain's operations in order, it stands for a chain
of single-consumer nodes, and it takes its parents in the chain's order, so
:func:`topological_order` visits every other node in the same order.  The
DOSA model's kernels after the traffic terms keep gradients exact too (see
:mod:`repro.core.dmodel.hardware`); the dense kernels before them keep only
the values exact.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator

import numpy as np

ArrayLike = "Tensor | np.ndarray | float | int | list | tuple"

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    Raises ``ValueError`` when the summed gradient still differs from
    ``shape``: a backward that hands a parent a gradient of the wrong shape
    is a bug, and reshaping it would silently scramble the values.
    """
    if grad.shape == shape:
        return grad
    reduced = grad
    # Remove leading broadcast axes.
    while reduced.ndim > len(shape):
        reduced = reduced.sum(axis=0)
    # Sum over axes that were size 1 in the original shape.
    if reduced.ndim == len(shape):
        for axis, size in enumerate(shape):
            if size == 1 and reduced.shape[axis] != 1:
                reduced = reduced.sum(axis=axis, keepdims=True)
    if reduced.shape != shape:
        raise ValueError(f"a gradient of shape {grad.shape} does not reduce "
                         f"to its parent's shape {shape}")
    return reduced


def _is_basic_index(index) -> bool:
    """Whether ``index`` is basic indexing (ints, slices, ``None``, ``...``).

    A basic index is a view that selects each element at most once; anything
    else (integer arrays, masks, bools) is advanced indexing.
    """
    items = index if isinstance(index, tuple) else (index,)
    return all(item is None or item is Ellipsis or isinstance(item, slice)
               or (isinstance(item, (int, np.integer))
                   and not isinstance(item, (bool, np.bool_)))
               for item in items)


def topological_order(root: "Tensor") -> list["Tensor"]:
    """Ancestors of ``root`` that require grad, parents before children.

    This is the order :class:`BackwardProgram` compiles; it is exposed so
    :class:`repro.autodiff.tape.Tape` can cache it once and replay the same
    schedule every step.
    """
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


class BackwardProgram:
    """Reverse accumulation compiled from a topological order.

    Slot ``i`` is the ``i``-th node in reverse topological order, so the root
    is slot 0 and every parent's slot is larger than its child's.  Each step
    holds a node, its backward closure and its *live edges*: per parent that
    requires grad, the parent's position in ``_parents``, its slot and its
    shape.  They are compiled once, so :meth:`run` never visits a constant
    parent; it walks the steps over a plain list of per-slot gradients,
    summing contributions in arrival order and handing each leaf (a node
    without live edges) its total through :meth:`Tensor._accumulate`.
    """

    __slots__ = ("_steps",)

    def __init__(self, order: list["Tensor"]) -> None:
        nodes = order[::-1]
        slot_of = {id(node): slot for slot, node in enumerate(nodes)}
        self._steps = [
            (node, node._backward,
             tuple((position, slot_of[id(parent)], parent.data.shape)
                   for position, parent in enumerate(node._parents)
                   if parent.requires_grad))
            for node in nodes
        ]

    def run(self, grad: np.ndarray) -> None:
        """Backpropagate ``grad`` from the root (slot 0) into every leaf."""
        grads: list = [None] * len(self._steps)
        grads[0] = grad
        for slot, (node, backward, edges) in enumerate(self._steps):
            node_grad = grads[slot]
            if node_grad is None:
                continue
            grads[slot] = None
            if not edges:
                # Leaf tensor: expose the accumulated gradient via ``.grad``.
                node._accumulate(node_grad)
                continue
            contributions = backward(node_grad)
            for position, target, shape in edges:
                contribution = contributions[position]
                if contribution.shape != shape:
                    contribution = _unbroadcast(contribution, shape)
                existing = grads[target]
                grads[target] = (contribution if existing is None
                                 else existing + contribution)


class Tensor:
    """A NumPy-backed tensor participating in a dynamic autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_recompute", "name")

    # Make numpy defer to Tensor for mixed operations such as ``2.0 * tensor``.
    __array_priority__ = 200

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str | None = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._recompute: Callable[[], np.ndarray] | None = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def as_tensor(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self) -> float:
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _make_child(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], tuple],
        forward: Callable[[], np.ndarray],
    ) -> "Tensor":
        """Create an op result wired into the graph when grad is enabled.

        ``backward`` maps an incoming gradient to one contribution per
        parent, positionally, with ``None`` for a parent that needs no
        gradient; ``forward`` recomputes this node's value from the parents'
        current ``.data`` (used by tape replay).  A backward that needs the
        output value reads what ``forward`` kept in its closure.
        """
        child = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            child.requires_grad = True
            child._parents = parents
            child._backward = backward
            child._recompute = forward
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # Gradients are initialized on first accumulation (``zero_grad``
            # drops them to ``None``), so no per-step zero buffers are
            # allocated.  The copy keeps ``.grad`` an owned, writable array:
            # the incoming contribution may be a read-only broadcast view or
            # an array also delivered to a sibling leaf.
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient of this tensor (drops it to None)."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1.0 and must match this tensor's shape otherwise.
        Gradients accumulate into ``.grad`` of every reachable tensor that was
        created with ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape).copy()
        BackwardProgram(topological_order(self)).run(grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data + other.data

        def backward(grad: np.ndarray):
            return (grad, grad)

        return self._make_child(forward(), (self, other), backward, forward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) + self

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data - other.data

        def backward(grad: np.ndarray):
            return (grad, -grad if other.requires_grad else None)

        return self._make_child(forward(), (self, other), backward, forward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data * other.data

        def backward(grad: np.ndarray):
            return (grad * other.data if self.requires_grad else None,
                    grad * self.data if other.requires_grad else None)

        return self._make_child(forward(), (self, other), backward, forward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) * self

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data / other.data

        def backward(grad: np.ndarray):
            return (grad / other.data if self.requires_grad else None,
                    -grad * self.data / (other.data**2)
                    if other.requires_grad else None)

        return self._make_child(forward(), (self, other), backward, forward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor.as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        def forward():
            return self.data**exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make_child(forward(), (self,), backward, forward)

    # ------------------------------------------------------------------ #
    # Matrix multiply, reshaping, indexing
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor.as_tensor(other)

        def forward():
            return self.data @ other.data

        def backward(grad: np.ndarray):
            self_data, other_data = self.data, other.data
            want_self, want_other = self.requires_grad, other.requires_grad
            if self_data.ndim == 1 and other_data.ndim == 1:
                # inner product: grad is scalar
                return (grad * other_data if want_self else None,
                        grad * self_data if want_other else None)
            if self_data.ndim == 1:
                return (grad @ other_data.T if want_self else None,
                        np.outer(self_data, grad) if want_other else None)
            if other_data.ndim == 1:
                return (np.outer(grad, other_data) if want_self else None,
                        self_data.T @ grad if want_other else None)
            return (grad @ np.swapaxes(other_data, -1, -2) if want_self else None,
                    np.swapaxes(self_data, -1, -2) @ grad if want_other else None)

        return self._make_child(forward(), (self, other), backward, forward)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.data.shape

        def forward():
            return self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(original_shape),)

        return self._make_child(forward(), (self,), backward, forward)

    def __getitem__(self, index) -> "Tensor":
        shape = self.data.shape
        # A basic (slice/int) index selects each element at most once, so a
        # plain in-place add scatters exactly what ``np.add.at`` would.
        basic = _is_basic_index(index)

        def forward():
            return self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros(shape, dtype=np.float64)
            if basic:
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            return (full,)

        return self._make_child(forward(), (self,), backward, forward)

    # ------------------------------------------------------------------ #
    # Reductions and elementwise functions (method forms)
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape

        def forward():
            return self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad = np.asarray(grad, dtype=np.float64)
            if axis is None:
                expanded = np.broadcast_to(grad, shape)
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                if not keepdims:
                    for ax in sorted(a % len(shape) for a in axes):
                        grad = np.expand_dims(grad, ax)
                expanded = np.broadcast_to(grad, shape)
            return (expanded,)

        return self._make_child(forward(), (self,), backward, forward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def exp(self) -> "Tensor":
        out: list = [None]

        def forward():
            out[0] = np.exp(self.data)
            return out[0]

        def backward(grad: np.ndarray):
            return (grad * out[0],)

        return self._make_child(forward(), (self,), backward, forward)
