"""The DOSA differentiable performance model (paper Section 4).

Implements Equations 1-18 over :class:`repro.autodiff.Tensor` values so that
the whole-model energy-delay product is differentiable with respect to every
layer's spatial and temporal tiling factors — which is what enables the
one-loop, mapping-first gradient-descent search.

One parameterization serves the whole search: :class:`MultiStartFactors`
stacks S start points x L layers, and the model evaluates them as one graph
of dense array ops over their factor tensor (S=1 is the single-start case).
"""

from repro.core.dmodel.hardware import DifferentiableHardware
from repro.core.dmodel.factors import MultiStartFactors
from repro.core.dmodel.model import DenseTerms, DifferentiableModel, LayerPerformance
from repro.core.dmodel.loss import (
    best_ordering_per_layer,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)

__all__ = [
    "DifferentiableHardware",
    "MultiStartFactors",
    "DenseTerms",
    "DifferentiableModel",
    "LayerPerformance",
    "best_ordering_per_layer",
    "network_edp_loss",
    "softmax_ordering_loss",
    "validity_penalty",
]
