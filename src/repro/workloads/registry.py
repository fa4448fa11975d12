"""Cross-network layer collections.

The model-correlation study (Figure 4) draws random mappings for a pool of
unique layers collected across several networks; this module provides that
pooling.
"""

from __future__ import annotations

from typing import Iterable

from repro.workloads.layer import LayerDims
from repro.workloads.networks import Network, target_networks, training_networks


def unique_layers_across(networks: Iterable[Network]) -> list[LayerDims]:
    """All layers with distinct dimensions across ``networks`` (repeats reset to 1)."""
    seen: dict[tuple[int, ...], LayerDims] = {}
    for network in networks:
        for layer in network.layers:
            key = layer.dims_key()
            if key not in seen:
                seen[key] = layer.with_repeats(1)
    return list(seen.values())


def correlation_layer_pool() -> list[LayerDims]:
    """Layer pool used for the differentiable-model correlation study (Fig. 4).

    The paper samples 73 unique matrix-multiplication and convolution layers;
    pooling the target and training networks here yields a comparable set.
    """
    return unique_layers_across(target_networks() + training_networks())

