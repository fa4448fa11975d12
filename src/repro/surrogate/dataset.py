"""Dataset generation for the learned latency predictors (Section 6.5.1).

The paper collects 1,567 random mappings roughly evenly distributed over the
training workloads of Table 6, measures their Gemmini-RTL latency with
FireSim, and trains the predictors on that data.  Here the measurements come
from the synthetic RTL simulator; everything else (random mappings of the
training networks, per-sample analytical latency, train/test split) follows
the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import HardwareConfig
from repro.eval.batch import evaluate_mappings_batched
from repro.mapping.mapping import Mapping
from repro.mapping.random_mapper import random_mapping
from repro.surrogate.features import encode_features
from repro.surrogate.rtl_sim import RtlSimulator
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.networks import Network


@dataclass
class LatencySample:
    """One training example: a mapping with analytical and RTL latencies."""

    mapping: Mapping
    hardware: HardwareConfig
    features: np.ndarray
    analytical_latency: float
    rtl_latency: float

    @property
    def log_ratio(self) -> float:
        """Log of RTL / analytical latency — the difference the DNN predicts."""
        return float(np.log(self.rtl_latency / self.analytical_latency))


def generate_dataset(
    networks: list[Network],
    hardware: HardwareConfig,
    samples_per_layer: int = 4,
    simulator: RtlSimulator | None = None,
    seed: SeedLike = None,
) -> list[LatencySample]:
    """Random-mapping latency dataset over the unique layers of ``networks``.

    Every mapping is drawn first; the analytical and RTL latencies are then
    computed in one batch each.
    """
    if samples_per_layer < 1:
        raise ValueError("samples_per_layer must be positive")
    simulator = simulator or RtlSimulator()
    rng = make_rng(seed)
    mappings = [random_mapping(layer, seed=rng, max_spatial=hardware.pe_dim)
                for network in networks
                for layer in network.layers
                for _ in range(samples_per_layer)]
    analytical = evaluate_mappings_batched(mappings, hardware)
    rtl = simulator.latencies(mappings, hardware)
    return [
        LatencySample(
            mapping=mapping,
            hardware=hardware,
            features=encode_features(mapping, hardware),
            analytical_latency=result.latency_cycles,
            rtl_latency=rtl_latency,
        )
        for mapping, result, rtl_latency in zip(mappings, analytical, rtl)
    ]


def train_test_split(
    samples: list[LatencySample],
    test_fraction: float = 0.25,
    seed: SeedLike = None,
) -> tuple[list[LatencySample], list[LatencySample]]:
    """Shuffle and split samples into train and held-out test sets."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    if len(samples) < 2:
        raise ValueError("need at least two samples to split")
    rng = make_rng(seed)
    order = rng.permutation(len(samples))
    cut = max(1, int(round(len(samples) * test_fraction)))
    test_idx = set(order[:cut].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test
