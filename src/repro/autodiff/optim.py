"""The Adam optimizer operating on :class:`Tensor` parameters.

The paper uses Adam ("an optimizer similar to gradient descent with momentum",
Section 6.1) to descend the differentiable EDP model; the DNN latency
surrogate trains with it too.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor


class Adam:
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
        self.parameters: list[Tensor] = [p for p in parameters]
        if not self.parameters:
            raise ValueError("optimizer created with no parameters")
        for parameter in self.parameters:
            if not parameter.requires_grad:
                raise ValueError("all optimized parameters must require grad")
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

    def zero_grad(self) -> None:
        """Drop every parameter's gradient to ``None`` (torch semantics).

        No zero arrays are allocated: ``backward`` initializes each gradient
        on its first accumulation, so clearing costs nothing per step.
        """
        for parameter in self.parameters:
            parameter.zero_grad()

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
