"""Synthetic Gemmini-RTL latency simulator (FireSim substitute).

Real RTL latency deviates from an analytical model through effects that the
closed-form model does not capture.  The simulator below layers the main such
effects, documented in the Gemmini and FireSim literature, on top of the
reference analytical latency:

* **systolic-array fill/drain** — each weight tile loaded into the array costs
  extra cycles proportional to the array side,
* **DRAM burst inefficiency** — DRAM traffic is served in bursts, and small or
  poorly-shaped tiles waste part of each burst, inflating memory latency,
* **utilization-dependent stalls** — mappings that keep the array poorly
  utilized suffer additional control/dependency stalls,
* **fixed per-layer overhead** — configuration and instruction dispatch,
* **configuration-dependent jitter** — a small deterministic pseudo-random
  perturbation keyed on the mapping and hardware, standing in for the many
  micro-architectural details a learned model can absorb but a closed-form
  model cannot.

All effects are deterministic functions of the mapping and hardware so that a
DNN trained on (features -> RTL/analytical gap) can genuinely learn them,
which is what the paper's Sections 4.7 and 6.5 rely on.  A batch of mappings
is simulated in one pass: the analytical latency and the traffic come from
the batch evaluator, the tile sizes from the tile-word kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.arch.components import LEVEL_DRAM, LEVEL_REGISTERS, LEVEL_SCRATCHPAD
from repro.arch.config import HardwareConfig
from repro.eval.batch import batch_analyze_traffic, evaluate_mappings_batched
from repro.mapping.constraints import factor_stacks, tile_word_arrays
from repro.mapping.mapping import Mapping
from repro.timeloop.model import PerformanceResult


@dataclass(frozen=True)
class RtlSimSettings:
    """Strengths of the individual RTL effects (dimensionless multipliers)."""

    fill_drain_cycles_per_tile: float = 2.0   # x array side, per weight-tile load
    dram_burst_words: int = 64
    dram_inefficiency_weight: float = 0.35
    stall_weight: float = 0.6
    fixed_overhead_cycles: float = 2000.0
    jitter_amplitude: float = 0.08            # +/- 8% deterministic jitter

    def __post_init__(self) -> None:
        if self.dram_burst_words < 1:
            raise ValueError("dram_burst_words must be at least 1")
        if not (0.0 <= self.jitter_amplitude < 1.0):
            raise ValueError("jitter_amplitude must lie in [0, 1)")


class RtlSimulator:
    """Cycle-level latency of a mapping on "real" Gemmini hardware."""

    def __init__(self, settings: RtlSimSettings | None = None) -> None:
        self.settings = settings or RtlSimSettings()

    # ------------------------------------------------------------------ #
    def latencies(self, mappings: list[Mapping], hardware: HardwareConfig) -> list[float]:
        """Simulated RTL latency in cycles of each of ``mappings`` on ``hardware``."""
        if not mappings:
            return []
        analytical = evaluate_mappings_batched(mappings, hardware)
        return self._distort(mappings, hardware, analytical).tolist()

    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        """Simulated RTL latency in cycles for ``mapping`` on ``hardware``."""
        return self.latencies([mapping], hardware)[0]

    # ------------------------------------------------------------------ #
    def _distort(self, mappings: list[Mapping], hardware: HardwareConfig,
                 analytical: list[PerformanceResult]) -> np.ndarray:
        settings = self.settings
        traffic = batch_analyze_traffic(mappings)
        temporal, spatial, stride_p, stride_q = factor_stacks(mappings)
        tiles = tile_word_arrays(temporal, spatial, stride_p, stride_q)

        # Systolic-array fill/drain: every reload of the stationary weights
        # into the array pays a pipeline fill proportional to the array side.
        weight_tile_loads = (traffic.writes[LEVEL_REGISTERS]["W"]
                             / np.maximum(tiles["W"][:, LEVEL_REGISTERS], 1.0))
        fill_drain = (settings.fill_drain_cycles_per_tile * hardware.pe_dim
                      * weight_tile_loads)

        # DRAM burst inefficiency: short per-tensor transfers waste bursts.
        dram_words = traffic.per_level_accesses()[:, LEVEL_DRAM]
        scratchpad_tile = np.maximum(tiles["I"][:, LEVEL_SCRATCHPAD], 1.0)
        burst_utilization = np.minimum(1.0, scratchpad_tile / settings.dram_burst_words)
        dram_penalty = (settings.dram_inefficiency_weight
                        * (1.0 - burst_utilization)
                        * dram_words / 8.0)

        # Utilization-dependent stalls: poorly utilized arrays stall more.
        utilization = np.minimum(
            1.0, spatial.reshape(len(mappings), -1).prod(axis=1) / hardware.num_pes)
        compute_latency = np.array([result.compute_latency for result in analytical])
        stall_penalty = settings.stall_weight * (1.0 - utilization) * compute_latency

        jitter = 1.0 + settings.jitter_amplitude * np.array(
            [self._jitter(mapping, hardware) for mapping in mappings])
        latency = (np.array([result.latency_cycles for result in analytical])
                   + fill_drain + dram_penalty + stall_penalty
                   + settings.fixed_overhead_cycles)
        return latency * jitter

    @staticmethod
    def _jitter(mapping: Mapping, hardware: HardwareConfig) -> float:
        """Deterministic pseudo-random value in [-1, 1] keyed on the design."""
        payload = (
            tuple(np.round(mapping.temporal, 6).ravel())
            + tuple(np.round(mapping.spatial, 6).ravel())
            + (hardware.pe_dim, hardware.accumulator_kb, hardware.scratchpad_kb)
            + mapping.layer.dims_key()
        )
        digest = hashlib.sha256(repr(payload).encode()).digest()
        value = int.from_bytes(digest[:8], "little") / 2**64
        return 2.0 * value - 1.0
