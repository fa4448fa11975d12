"""Compiled-tape replay of a traced autodiff graph.

Re-tracing the DOSA loss every gradient step rebuilds the same Python graph —
the same ops, the same wiring — hundreds of times with fresh ``Tensor``
allocations, closure objects and a fresh topological sort.  Between rounding
points the graph *structure* is static (loop orderings only change when a
mapping is re-snapped), so all of that work can be paid once: :class:`Tape`
traces the loss closure a single time and compiles it into two flat
programs, then **replays** the graph — forward by re-executing each node's
recompute closure against the parents' current ``.data``, backward by running
the compiled :class:`~repro.autodiff.tensor.BackwardProgram`: per node its
slot, its backward closure, and per parent that parent's slot (``None`` when
it needs no gradient) and shape, executed over a plain list of per-slot
gradients.  :meth:`Tensor.backward` runs the same program class, so there is
one reverse-accumulation implementation.

The graph itself is kept small by exact folding only: an op is dropped or
fused when IEEE arithmetic makes the result bit-identical — ``x * 1.0`` is
``x`` (so :func:`~repro.autodiff.ops.total_prod` skips literal ``1.0``
terms), and a fused node whose forward and backward compute the same IEEE
operations as the chain it replaces
(:func:`~repro.autodiff.ops.hinge_below`) — so a smaller graph replays the
same losses, gradients and updates, bit for bit.

Replay is exact, not approximate: recompute closures read parent data at call
time and value-dependent masks (``ops.relu``, ``ops.maximum`` subgradients,
``ops.reload_product`` inclusion masks) are re-derived on every pass, so a
replayed forward/backward is bit-identical to re-tracing the same closure —
the regression tests assert ``==``, not a tolerance.  What must stay fixed is
the *wiring*: the traced closure may not branch on parameter values or bake
them into constants (e.g. a :func:`repro.autodiff.ops.where` condition computed
from parameter values is captured at trace time and not replayable).  When the structure does change —
DOSA re-selects loop orderings at a rounding point — call :meth:`invalidate`
and the next :meth:`forward` re-traces.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.autodiff.tensor import BackwardProgram, Tensor, topological_order


class TapeError(RuntimeError):
    """Raised when a traced graph cannot be replayed."""


class Tape:
    """Trace a loss closure once, then replay its forward/backward cheaply.

    ``build`` is a zero-argument closure returning a scalar loss ``Tensor``
    over a fixed set of leaf parameters.  Typical use, mirroring the usual
    re-tracing loop::

        tape = Tape(lambda: model_loss(factors))
        for _ in range(steps):
            optimizer.zero_grad()
            loss = tape.forward()     # first call traces, later calls replay
            tape.backward()           # == loss.backward() on a fresh trace
            optimizer.step()

    The tape holds the traced output tensor and the cached topological order;
    parameters keep their identity across steps, so optimizer state attached
    to them stays valid.
    """

    def __init__(self, build: Callable[[], Tensor]) -> None:
        self._build = build
        self._output: Tensor | None = None
        self._order: list[Tensor] = []
        self._replay: list[tuple[Tensor, Callable[[], np.ndarray]]] = []
        self._program: BackwardProgram | None = None

    # ------------------------------------------------------------------ #
    @property
    def recorded(self) -> bool:
        """Whether a traced graph is currently cached."""
        return self._output is not None

    @property
    def num_nodes(self) -> int:
        """Number of graph nodes in the cached topological order."""
        return len(self._order)

    def invalidate(self) -> None:
        """Drop the cached graph; the next :meth:`forward` re-traces.

        Call this whenever the graph *structure* may have changed — for DOSA,
        after a rounding point re-selects loop orderings (the walk-order
        gather indices are baked into the wiring).
        """
        self._output = None
        self._order = []
        self._replay = []
        self._program = None

    # ------------------------------------------------------------------ #
    def forward(self) -> Tensor:
        """Return the loss tensor: trace on first use, replay afterwards."""
        if self._output is None:
            return self._trace()
        for node, recompute in self._replay:
            node.data = recompute()
        return self._output

    def backward(self) -> None:
        """Run the compiled backward program (grads into leaves)."""
        if self._output is None:
            raise TapeError("backward() before forward(): nothing is recorded")
        self._program.run(np.ones_like(self._output.data))

    # ------------------------------------------------------------------ #
    def _trace(self) -> Tensor:
        output = self._build()
        if not isinstance(output, Tensor):
            raise TapeError(f"traced closure must return a Tensor, got {type(output).__name__}")
        if not output.requires_grad:
            raise TapeError("traced closure returned a tensor that does not require grad "
                            "(no differentiable parameters reached the output)")
        if output.data.size != 1:
            raise TapeError(f"traced loss must be a scalar, got shape {output.shape}")
        order = topological_order(output)
        replay = []
        for node in order:
            if node._parents and node._recompute is None:
                raise TapeError(
                    "traced graph contains an op without a forward-recompute "
                    "closure and cannot be replayed"
                    + (f" (node {node.name!r})" if node.name else ""))
            if node._recompute is not None:
                replay.append((node, node._recompute))
        self._output = output
        self._order = order
        self._replay = replay
        self._program = BackwardProgram(order)
        return output
