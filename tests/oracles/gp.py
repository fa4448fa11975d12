"""The GP built on the broadcast RBF kernel: the parity oracle.

This is :class:`repro.search.gp.GaussianProcessRegressor` before its kernel
was built in row blocks: one broadcast materialises the whole ``(n, m, d)``
pairwise-difference tensor (480 MB for the Bayesian baseline's 2,000 x 15
fit), and the observation noise is added as ``noise * np.eye(n)``.  The
production GP must reproduce its kernel, ``alpha`` and posterior mean bit
for bit.
"""

from __future__ import annotations

import numpy as np


def rbf_kernel(a: np.ndarray, b: np.ndarray, signal_variance: float,
               length_scale: float) -> np.ndarray:
    """The ``(len(a), len(b))`` RBF kernel in one broadcast."""
    sq_dist = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    return signal_variance * np.exp(-0.5 * sq_dist / length_scale**2)


class BroadcastGP:
    """Exact GP regression, standardised as the production GP does."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0,
                 noise: float = 1e-4) -> None:
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise = noise

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return rbf_kernel(a, b, self.signal_variance, self.length_scale)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "BroadcastGP":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        self.x_mean = features.mean(axis=0)
        std = features.std(axis=0)
        self.x_std = np.where(std > 1e-12, std, 1.0)
        x = (features - self.x_mean) / self.x_std
        self.y_mean = float(targets.mean())
        self.y_std = float(targets.std()) or 1.0
        y = (targets - self.y_mean) / self.y_std
        self.gram = self._kernel(x, x) + self.noise * np.eye(len(x))
        self.alpha = np.linalg.solve(self.gram, y)
        self.train_x = x
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Posterior mean at ``features``."""
        x = (np.asarray(features, dtype=float) - self.x_mean) / self.x_std
        return self._kernel(x, self.train_x) @ self.alpha * self.y_std + self.y_mean
