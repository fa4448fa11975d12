"""Gaussian-process regression: the Bayesian baseline's surrogate.

A small exact GP (RBF kernel with automatic-relevance-style shared length
scale, linear solves via NumPy) used as the surrogate of the Bayesian
optimization baseline, which picks the candidate with the lowest posterior
mean.  Targets are modelled in log space since layer EDPs span many orders
of magnitude.

The kernel is built in row blocks: each block's pairwise-difference
temporary holds at most :data:`_KERNEL_BLOCK_ELEMENTS` elements, so a fit's
memory is the ``(n, n)`` gram plus one block (about 40 MiB for the Bayesian
baseline's 2,000 x 15 fit, where the whole ``(n, n, 15)`` difference tensor
would take 480 MB).  Every kernel entry is the same IEEE operations in the
same order as the broadcast formula in ``tests/oracles/gp.py``, so the gram,
its solve and every prediction are bit-identical to it.
"""

from __future__ import annotations

import numpy as np

# Elements of one kernel block's ``(rows, m, d)`` difference temporary (8 MiB
# of float64): a fit of 2,000 x 15 points takes 59 blocks, and a predict of
# up to 34 candidates against it takes one.
_KERNEL_BLOCK_ELEMENTS = 2**20


class GaussianProcessRegressor:
    """Exact GP regression with an RBF kernel and observation noise."""

    def __init__(self, length_scale: float = 1.0, signal_variance: float = 1.0,
                 noise: float = 1e-4) -> None:
        if length_scale <= 0 or signal_variance <= 0 or noise <= 0:
            raise ValueError("kernel hyperparameters must be positive")
        self.length_scale = length_scale
        self.signal_variance = signal_variance
        self.noise = noise
        self._train_x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._x_mean: np.ndarray | None = None
        self._x_std: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty((len(a), len(b)))
        rows = max(1, _KERNEL_BLOCK_ELEMENTS // max(1, b.size))
        for lo in range(0, len(a), rows):
            sq_dist = ((a[lo:lo + rows, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
            out[lo:lo + rows] = self.signal_variance * np.exp(
                -0.5 * sq_dist / self.length_scale**2)
        return out

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GaussianProcessRegressor":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if features.ndim != 2 or len(features) != len(targets):
            raise ValueError("features must be 2-D and aligned with targets")
        self._x_mean = features.mean(axis=0)
        std = features.std(axis=0)
        self._x_std = np.where(std > 1e-12, std, 1.0)
        x = (features - self._x_mean) / self._x_std
        self._y_mean = float(targets.mean())
        self._y_std = float(targets.std()) or 1.0
        y = (targets - self._y_mean) / self._y_std
        gram = self._kernel(x, x)
        gram.flat[::len(x) + 1] += self.noise
        self._alpha = np.linalg.solve(gram, y)
        self._train_x = x
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Posterior mean at ``features``."""
        if self._train_x is None:
            raise RuntimeError("predict called before fit")
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != len(self._x_mean):
            raise ValueError(f"features must be 2-D with {len(self._x_mean)} "
                             f"columns, got shape {features.shape}")
        x = (features - self._x_mean) / self._x_std
        cross = self._kernel(x, self._train_x)
        return cross @ self._alpha * self._y_std + self._y_mean
