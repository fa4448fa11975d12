"""A minimal neural-network layer library on top of the autodiff engine.

The paper's learned latency-difference predictor (Section 4.7) is a small
fully-connected network "similar to that of the model used in Mind Mappings...
7 hidden fully-connected layers and a total of 5737 parameters".  This module
provides the :class:`Linear`, :class:`MLP` and the mean-squared-error loss
needed to train such a model from scratch, plus feature standardization.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.utils.rng import SeedLike, make_rng


class Module:
    """Base class for layers: exposes parameters and train/eval switching."""

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def num_parameters(self) -> int:
        """Total number of trainable scalars in the module."""
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with Kaiming-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, seed: SeedLike = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = make_rng(seed)
        bound = float(np.sqrt(6.0 / in_features))
        weight = rng.uniform(-bound, bound, size=(in_features, out_features))
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(weight, requires_grad=True, name="weight")
        self.bias = Tensor(np.zeros(out_features), requires_grad=True, name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return x.matmul(self.weight) + self.bias


class MLP(Module):
    """Multi-layer perceptron with a ReLU after every hidden layer.

    ``hidden_sizes`` lists the width of each hidden layer; the Mind-Mappings
    style predictor used for the Gemmini-RTL experiments uses seven hidden
    layers sized so that the parameter count lands near the paper's 5737.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int = 1,
        seed: SeedLike = None,
    ) -> None:
        rng = make_rng(seed)
        sizes = [in_features, *hidden_sizes, out_features]
        self.layers = [
            Linear(sizes[i], sizes[i + 1], seed=rng) for i in range(len(sizes) - 1)
        ]

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.layers[:-1]:
            out = ops.relu(layer(out))
        return self.layers[-1](out)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    diff = prediction - target
    return (diff * diff).mean()


class StandardScaler:
    """Feature standardization fitted on training data (mean 0, std 1)."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "StandardScaler":
        features = np.asarray(features, dtype=np.float64)
        self.mean_ = features.mean(axis=0)
        std = features.std(axis=0)
        self.std_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise RuntimeError("StandardScaler.transform called before fit")
        return (np.asarray(features, dtype=np.float64) - self.mean_) / self.std_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
