"""Gradient-descent start-point generation with rejection (Section 5.3.1).

Each start point pairs a randomly sampled valid hardware configuration with
CoSA-style mappings of every unique layer onto it.  A start point whose
model-predicted EDP is more than ``rejection_threshold`` times the best start
point seen so far is rejected and a fresh hardware configuration is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

import numpy as np

from repro.arch.config import HardwareConfig, random_hardware_config
from repro.autodiff import no_grad
from repro.core.dmodel.factors import MultiStartFactors
from repro.core.dmodel.loss import network_edp_loss
from repro.core.dmodel.model import DifferentiableModel
from repro.mapping.cosa import cosa_mapping
from repro.mapping.mapping import Mapping
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.networks import Network


@dataclass
class StartPoint:
    """One GD start point: the sampled hardware and per-layer seed mappings."""

    hardware: HardwareConfig
    mappings: list[Mapping]
    predicted_edp: float


def predicted_edp_of_mapping_sets(
    mapping_sets: Sequence[Sequence[Mapping]], repeats: list[int],
) -> np.ndarray:
    """Model-predicted whole-network EDPs of several start points at once.

    Stacks every start point's mappings into one
    :class:`~repro.core.dmodel.factors.MultiStartFactors` and runs the
    start-batched model with gradients disabled: one ``(S, L)`` array-op
    forward pass for all candidates, no graph construction.  Per-start values
    are bit-identical to scoring each start alone, so rejection decisions do
    not depend on how many candidates are scored together.  Returns the
    ``(S,)`` EDP array.
    """
    with no_grad():
        factors = MultiStartFactors.from_mapping_sets(mapping_sets)
        grid = factors.factor_grid()
        hardware = DifferentiableModel.derive_hardware(factors, grid=grid)
        performances = DifferentiableModel.evaluate_network(factors, hardware,
                                                            grid=grid)
        return network_edp_loss(performances, repeats).data


def predicted_edp_of_mappings(mappings: list[Mapping], repeats: list[int]) -> float:
    """Model-predicted whole-network EDP of one set of mappings (minimal hardware)."""
    return float(predicted_edp_of_mapping_sets([mappings], repeats)[0])


def stack_start_points(start_points: Sequence[StartPoint]) -> MultiStartFactors:
    """Stack accepted start points into one start-batched parameterization."""
    return MultiStartFactors.from_mapping_sets(
        [point.mappings for point in start_points])


def generate_start_points(
    network: Network,
    count: int,
    seed: SeedLike = None,
    rejection_threshold: float = 10.0,
    max_rejections: int = 20,
    fixed_pe_dim: int | None = None,
) -> list[StartPoint]:
    """Generate ``count`` start points for ``network`` with rejection sampling.

    ``fixed_pe_dim`` pins the PE array (used by the Gemmini-RTL experiments
    where only buffer sizes and mappings are searched).
    """
    if count < 1:
        raise ValueError("need at least one start point")
    rng = make_rng(seed)
    repeats = [layer.repeats for layer in network.layers]
    start_points: list[StartPoint] = []
    best_predicted = float("inf")

    for _ in range(count):
        candidate: StartPoint | None = None
        for _attempt in range(max_rejections + 1):
            hardware = random_hardware_config(seed=rng)
            if fixed_pe_dim is not None:
                hardware = HardwareConfig(
                    pe_dim=fixed_pe_dim,
                    accumulator_kb=hardware.accumulator_kb,
                    scratchpad_kb=hardware.scratchpad_kb,
                )
            mappings = [cosa_mapping(layer, hardware) for layer in network.layers]
            predicted = predicted_edp_of_mappings(mappings, repeats)
            candidate = StartPoint(hardware=hardware, mappings=mappings, predicted_edp=predicted)
            if predicted <= rejection_threshold * best_predicted:
                break
        best_predicted = min(best_predicted, candidate.predicted_edp)
        start_points.append(candidate)
    return start_points
