"""The three latency models compared in Section 6.5.

* :class:`AnalyticalLatencyModel` — the differentiable/analytical model alone,
* :class:`DnnOnlyLatencyModel` — an MLP trained to predict RTL latency directly,
* :class:`CombinedLatencyModel` — the analytical model corrected by an MLP
  trained on the analytical-vs-RTL difference (the paper's proposal).

All three expose the same interface (``latency(mapping, hardware)``), so the
accuracy studies of Figures 10-11 score them alike and the Figure-12 harness
re-ranks one DOSA search's candidates with each of them.
"""

from __future__ import annotations

from typing import Protocol

from repro.arch.config import HardwareConfig
from repro.eval.batch import evaluate_mappings_batched
from repro.mapping.mapping import Mapping
from repro.surrogate.dataset import LatencySample
from repro.surrogate.dnn_model import LatencyPredictorDNN, TrainingSettings
from repro.surrogate.features import encode_features
from repro.utils.math_utils import spearman_rank_correlation


class LatencyModel(Protocol):
    """Common interface of the latency models used in the RTL study."""

    name: str

    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        """Predicted latency (cycles) of ``mapping`` on ``hardware``."""
        ...


class AnalyticalLatencyModel:
    """Latency straight from the analytical model (Sections 4.1-4.5)."""

    name = "analytical"

    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        [result] = evaluate_mappings_batched([mapping], hardware)
        return result.latency_cycles


class DnnOnlyLatencyModel:
    """Latency from an MLP trained directly on RTL measurements."""

    name = "dnn_only"

    def __init__(self, seed: int = 0) -> None:
        self.predictor = LatencyPredictorDNN(mode="direct", seed=seed)

    def train(self, samples: list[LatencySample],
              settings: TrainingSettings | None = None) -> list[float]:
        return self.predictor.train(samples, settings)

    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        features = encode_features(mapping, hardware)
        return float(self.predictor.predict_latency(features, analytical_latency=0.0)[0])


class CombinedLatencyModel:
    """Analytical latency corrected by a learned difference model (Section 4.7)."""

    name = "analytical_dnn"

    def __init__(self, seed: int = 0) -> None:
        self.predictor = LatencyPredictorDNN(mode="difference", seed=seed)
        self._analytical = AnalyticalLatencyModel()

    def train(self, samples: list[LatencySample],
              settings: TrainingSettings | None = None) -> list[float]:
        return self.predictor.train(samples, settings)

    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        analytical = self._analytical.latency(mapping, hardware)
        features = encode_features(mapping, hardware)
        return float(self.predictor.predict_latency(features, analytical)[0])


def evaluate_model_accuracy(model: LatencyModel, samples: list[LatencySample]) -> float:
    """Spearman rank correlation of the model's predictions vs RTL latency.

    This is the accuracy metric of Figures 10 and 11.
    """
    predictions = [model.latency(s.mapping, s.hardware) for s in samples]
    measurements = [s.rtl_latency for s in samples]
    return spearman_rank_correlation(predictions, measurements)

