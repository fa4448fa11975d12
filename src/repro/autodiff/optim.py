"""First-order optimizers operating on :class:`Tensor` parameters.

The paper uses Adam ("an optimizer similar to gradient descent with momentum",
Section 6.1) to descend the differentiable EDP model; plain SGD is provided as
well for comparison and for the tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor


class Optimizer:
    """Base class: tracks parameters and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: list[Tensor] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")
        for parameter in self.parameters:
            if not parameter.requires_grad:
                raise ValueError("all optimized parameters must require grad")

    def zero_grad(self) -> None:
        """Drop every parameter's gradient to ``None`` (torch semantics).

        No zero arrays are allocated: ``backward`` initializes each gradient
        on its first accumulation, so clearing costs nothing per step.
        """
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self._velocity: list[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self.parameters, self._velocity):
            if parameter.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.lr * parameter.grad
            parameter.data = parameter.data + velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) — the descent algorithm used by DOSA.

    The update is allocation-free: moments and the parameter arrays are
    updated in place through two preallocated scratch buffers per
    parameter, so ``parameter.data`` is mutated rather than replaced (a
    caller holding a reference to the array sees it change).  The values
    are those of the textbook formula, operation for operation.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: list[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._v: list[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[tuple[np.ndarray, np.ndarray]] = [
            (np.empty_like(p.data), np.empty_like(p.data)) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter, m, v, (s1, s2) in zip(self.parameters, self._m, self._v,
                                             self._scratch):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            m *= self.beta1
            m += s1
            np.multiply(grad, grad, out=s1)
            s1 *= 1.0 - self.beta2
            v *= self.beta2
            v += s1
            np.divide(v, bias2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bias1, out=s2)
            s2 *= self.lr
            s2 /= s1
            parameter.data -= s2


class LearningRateSchedule:
    """Simple multiplicative step decay schedule for an optimizer's ``lr``."""

    def __init__(self, optimizer: SGD | Adam, decay: float = 1.0, every: int = 100) -> None:
        if not (0.0 < decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.optimizer = optimizer
        self.decay = decay
        self.every = every
        self._steps = 0

    def step(self) -> None:
        """Advance one optimization step; decay the learning rate on schedule."""
        self._steps += 1
        if self._steps % self.every == 0:
            self.optimizer.lr *= self.decay
