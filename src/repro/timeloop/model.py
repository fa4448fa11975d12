"""Latency, energy and EDP evaluation of mappings (reference model).

Latency follows the roofline composition of Equation 12: compute latency is
the MAC count divided by the utilized parallelism, each memory level's latency
is its access count divided by its bandwidth, and the layer latency is the
maximum of all of these.  Energy is event-based (Equation 13, via
:mod:`repro.timeloop.accelergy`), and whole-network EDP multiplies the summed
energy by the summed latency (Equation 14), scaling repeated layers by their
repetition count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.arch.components import MEMORY_LEVEL_INDICES, level_bandwidth
from repro.arch.config import HardwareConfig
from repro.mapping.constraints import validate_mapping
from repro.mapping.mapping import Mapping
from repro.timeloop.accelergy import energy_breakdown
from repro.timeloop.loopnest import TrafficBreakdown, analyze_traffic


@dataclass(frozen=True)
class PerformanceResult:
    """Latency/energy/EDP of one layer's mapping on one hardware config."""

    latency_cycles: float
    energy: float
    compute_latency: float
    memory_latency: dict[int, float]
    accesses: dict[int, float]
    macs: float

    @property
    def edp(self) -> float:
        return self.latency_cycles * self.energy


def evaluate_mapping(mapping: Mapping, hardware: HardwareConfig) -> PerformanceResult:
    """Evaluate one integral mapping on a hardware configuration.

    Raises if the mapping violates structural constraints (it does *not*
    check that the mapping fits the hardware — the mapping-first flow derives
    hardware from mappings, so capacity is a derived quantity).
    """
    problems = validate_mapping(mapping)
    if problems:
        raise ValueError(
            "cannot evaluate an invalid mapping: " + "; ".join(problems)
        )
    traffic = analyze_traffic(mapping)
    return _result_from_traffic(traffic, mapping, hardware)


def _result_from_traffic(
    traffic: TrafficBreakdown, mapping: Mapping, hardware: HardwareConfig
) -> PerformanceResult:
    parallelism = max(mapping.spatial_product(), 1.0)
    compute_latency = traffic.macs / parallelism
    memory_latency = {level: traffic.accesses(level) / level_bandwidth(level, hardware.num_pes)
                      for level in MEMORY_LEVEL_INDICES}
    latency = max(compute_latency, max(memory_latency.values()))
    energy = energy_breakdown(traffic, hardware).total
    return PerformanceResult(
        latency_cycles=latency,
        energy=energy,
        compute_latency=compute_latency,
        memory_latency=memory_latency,
        accesses=traffic.per_level_accesses(),
        macs=traffic.macs,
    )


@dataclass(frozen=True)
class NetworkPerformance:
    """Aggregate performance of a whole network (Equation 14)."""

    total_latency: float
    total_energy: float
    per_layer: tuple[PerformanceResult, ...]

    @property
    def edp(self) -> float:
        return self.total_latency * self.total_energy

    @classmethod
    def from_layers(
        cls, results: Sequence[PerformanceResult], mappings: Sequence[Mapping]
    ) -> "NetworkPerformance":
        """Compose per-layer results, one per mapping, into network totals.

        Each layer's latency and energy are multiplied by its repetition
        count and summed left to right, in layer order, so every caller that
        composes the same layers gets bit-identical totals.
        """
        return cls(
            total_latency=sum(r.latency_cycles * m.layer.repeats
                              for r, m in zip(results, mappings)),
            total_energy=sum(r.energy * m.layer.repeats
                             for r, m in zip(results, mappings)),
            per_layer=tuple(results),
        )


def evaluate_network_mappings(
    mappings: list[Mapping], hardware: HardwareConfig,
) -> NetworkPerformance:
    """Evaluate one mapping per unique layer and compose whole-network EDP.

    Each layer's energy and latency are multiplied by its repetition count
    before summation, then EDP = (sum of energies) x (sum of latencies).
    """
    if not mappings:
        raise ValueError("evaluate_network_mappings requires at least one mapping")
    results = [evaluate_mapping(m, hardware) for m in mappings]
    return NetworkPerformance.from_layers(results, mappings)
