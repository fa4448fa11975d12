"""DOSA core: the differentiable performance model and the one-loop optimizer."""

from repro.core.dmodel import (
    DifferentiableHardware,
    DifferentiableModel,
    LayerPerformance,
    MultiStartFactors,
    network_edp_loss,
    validity_penalty,
)
from repro.core.optimizer import (
    DosaSearcher,
    DosaSettings,
    LoopOrderingStrategy,
    SearchOutcome,
    SearchTrace,
)

__all__ = [
    "DifferentiableHardware",
    "DifferentiableModel",
    "LayerPerformance",
    "MultiStartFactors",
    "network_edp_loss",
    "validity_penalty",
    "DosaSearcher",
    "DosaSettings",
    "LoopOrderingStrategy",
    "SearchOutcome",
    "SearchTrace",
]
