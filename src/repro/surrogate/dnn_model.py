"""The Mind-Mappings-style DNN latency predictor (Section 4.7).

The paper's model has "7 hidden fully-connected layers and a total of 5737
parameters".  With our 40-dimensional feature encoding, seven hidden layers of
width 16 plus the output head land in the same parameter-count ballpark.  Two
variants are trained for the Section 6.5 study:

* **difference mode** (the paper's main proposal) — the DNN predicts the log
  ratio between RTL latency and the analytical model's latency, and the final
  prediction multiplies the analytical latency by the exponentiated output,
* **direct mode** (the "DNN-only" baseline) — the DNN predicts log RTL latency
  outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autodiff import Adam, Tensor, nn
from repro.surrogate.dataset import LatencySample
from repro.utils.rng import SeedLike, make_rng


DEFAULT_HIDDEN_SIZES: tuple[int, ...] = (16, 16, 16, 16, 16, 16, 16)


@dataclass
class TrainingSettings:
    """Hyperparameters for training the latency predictor."""

    epochs: int = 600
    learning_rate: float = 3e-3
    batch_size: int = 64
    weight_decay: float = 1e-5
    seed: SeedLike = 0


class LatencyPredictorDNN:
    """MLP predicting RTL latency, either directly or as a correction factor."""

    def __init__(
        self,
        mode: str = "difference",
        hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES,
        seed: SeedLike = 0,
    ) -> None:
        if mode not in ("difference", "direct"):
            raise ValueError(f"mode must be 'difference' or 'direct', got {mode!r}")
        from repro.surrogate.features import FEATURE_SIZE

        self.mode = mode
        self.scaler = nn.StandardScaler()
        self.network = nn.MLP(FEATURE_SIZE, list(hidden_sizes), 1, seed=seed)
        self._trained = False

    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        return self.network.num_parameters()

    def _targets(self, samples: list[LatencySample]) -> np.ndarray:
        if self.mode == "difference":
            return np.array([s.log_ratio for s in samples])
        return np.array([np.log(s.rtl_latency) for s in samples])

    # ------------------------------------------------------------------ #
    def train(self, samples: list[LatencySample],
              settings: TrainingSettings | None = None) -> list[float]:
        """Train on ``samples``; returns the per-epoch loss curve."""
        if len(samples) < 2:
            raise ValueError("need at least two samples to train")
        settings = settings or TrainingSettings()
        if not isinstance(settings.seed, (int, np.integer, np.random.Generator)):
            raise TypeError(
                "TrainingSettings.seed must be an int or numpy Generator for "
                f"reproducible training, got {type(settings.seed).__name__}")
        rng = make_rng(settings.seed)
        features = np.stack([s.features for s in samples])
        targets = self._targets(samples)
        features = self.scaler.fit_transform(features)

        optimizer = Adam(self.network.parameters(), lr=settings.learning_rate,
                         weight_decay=settings.weight_decay)
        losses: list[float] = []
        count = len(samples)
        for _ in range(settings.epochs):
            order = rng.permutation(count)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, count, settings.batch_size):
                batch = order[start:start + settings.batch_size]
                optimizer.zero_grad()
                predictions = self.network(Tensor(features[batch])).reshape(-1)
                loss = nn.mse_loss(predictions, Tensor(targets[batch]))
                loss.backward()
                optimizer.step()
                epoch_loss += float(loss.data)
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        self._trained = True
        return losses

    # ------------------------------------------------------------------ #
    def predict_latency(self, features: np.ndarray,
                        analytical_latency: np.ndarray | float) -> np.ndarray:
        """Predicted RTL latency for encoded features.

        In difference mode the analytical latency is required and multiplied
        by the learned correction; in direct mode it is ignored.
        """
        if not self._trained:
            raise RuntimeError("predict_latency called before train()")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        scaled = self.scaler.transform(features)
        outputs = self.network(Tensor(scaled)).data.reshape(-1)
        if self.mode == "difference":
            analytical = np.broadcast_to(np.asarray(analytical_latency, dtype=float),
                                         outputs.shape)
            return analytical * np.exp(outputs)
        return np.exp(outputs)
