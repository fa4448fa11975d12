"""Feature encoding for the learned latency predictors.

Following Section 4.7, the model's inputs are "the layer's dimensions, a
mapping (represented as in Section 3.1.2), and a hardware configuration".  All
counts are log2-scaled because layer sizes and tiling factors span many orders
of magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import HardwareConfig
from repro.mapping.mapping import Mapping, NUM_DIMS, NUM_LEVELS, SPATIAL_DIMS
from repro.workloads.layer import DIMENSIONS

# Layer dims (7) + strides (2) + hardware (3) + temporal factors (4x7) + spatial (2).
FEATURE_SIZE = 7 + 2 + 3 + NUM_LEVELS * NUM_DIMS + len(SPATIAL_DIMS)


def encode_features(mapping: Mapping, hardware: HardwareConfig) -> np.ndarray:
    """Encode a (layer, mapping, hardware) triple as a flat feature vector."""
    layer = mapping.layer
    layer_features = [np.log2(layer.dim(d)) for d in DIMENSIONS]
    stride_features = [float(layer.stride_p), float(layer.stride_q)]
    hardware_features = [
        np.log2(hardware.pe_dim),
        np.log2(hardware.accumulator_kb),
        np.log2(hardware.scratchpad_kb),
    ]
    temporal_features = list(np.log2(np.maximum(mapping.temporal, 1.0)).ravel())
    spatial_features = [
        np.log2(max(mapping.spatial_factor(level, dim), 1.0)) for level, dim in SPATIAL_DIMS
    ]
    features = np.array(
        layer_features + stride_features + hardware_features
        + temporal_features + spatial_features,
        dtype=np.float64,
    )
    if features.shape[0] != FEATURE_SIZE:
        raise AssertionError(
            f"feature encoding produced {features.shape[0]} values, expected {FEATURE_SIZE}"
        )
    return features
