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
which is what the paper's Sections 4.7 and 6.5 rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.arch.components import LEVEL_DRAM, LEVEL_REGISTERS, LEVEL_SCRATCHPAD
from repro.arch.config import HardwareConfig
from repro.arch.gemmini import GemminiSpec
from repro.mapping.mapping import Mapping
from repro.timeloop.loopnest import analyze_traffic, tile_words
from repro.timeloop.model import PerformanceResult, evaluate_mapping


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
    def latency(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        """Simulated RTL latency in cycles for ``mapping`` on ``hardware``."""
        spec = GemminiSpec(hardware)
        analytical = evaluate_mapping(mapping, spec, check_validity=False)
        return self._distort(mapping, hardware, analytical)

    def latency_ratio(self, mapping: Mapping, hardware: HardwareConfig) -> float:
        """RTL latency divided by analytical latency (the quantity the DNN learns)."""
        spec = GemminiSpec(hardware)
        analytical = evaluate_mapping(mapping, spec, check_validity=False)
        return self._distort(mapping, hardware, analytical) / analytical.latency_cycles

    # ------------------------------------------------------------------ #
    def _distort(self, mapping: Mapping, hardware: HardwareConfig,
                 analytical: PerformanceResult) -> float:
        settings = self.settings
        traffic = analyze_traffic(mapping)

        # Systolic-array fill/drain: every reload of the stationary weights
        # into the array pays a pipeline fill proportional to the array side.
        weight_tile_loads = (traffic.writes[LEVEL_REGISTERS]["W"]
                             / max(tile_words(mapping, LEVEL_REGISTERS, "W"), 1))
        fill_drain = (settings.fill_drain_cycles_per_tile * hardware.pe_dim
                      * weight_tile_loads)

        # DRAM burst inefficiency: short per-tensor transfers waste bursts.
        dram_words = traffic.accesses(LEVEL_DRAM)
        scratchpad_tile = max(tile_words(mapping, LEVEL_SCRATCHPAD, "I"), 1.0)
        burst_utilization = min(1.0, scratchpad_tile / settings.dram_burst_words)
        dram_penalty = (settings.dram_inefficiency_weight
                        * (1.0 - burst_utilization)
                        * dram_words / 8.0)

        # Utilization-dependent stalls: poorly utilized arrays stall more.
        utilization = min(1.0, mapping.spatial_product() / hardware.num_pes)
        stall_penalty = settings.stall_weight * (1.0 - utilization) * analytical.compute_latency

        jitter = 1.0 + settings.jitter_amplitude * self._jitter(mapping, hardware)
        latency = (analytical.latency_cycles + fill_drain + dram_penalty
                   + stall_penalty + settings.fixed_overhead_cycles)
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
