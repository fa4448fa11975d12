"""Timeloop-style text reports for a mapping's per-level statistics.

The original Timeloop prints, for every memory level, the tile sizes, access
counts, bandwidth demand and energy split of the evaluated mapping.  These
reports are what architects actually read when debugging a design point, so
the reproduction provides the same view on top of its reference model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.components import MEMORY_LEVEL_INDICES
from repro.arch.config import HardwareConfig
from repro.arch.gemmini import GemminiSpec
from repro.mapping.constraints import capacity_requirements
from repro.mapping.mapping import Mapping
from repro.timeloop.accelergy import energy_breakdown
from repro.timeloop.loopnest import analyze_traffic
from repro.timeloop.model import evaluate_mapping
from repro.utils.formatting import format_si, format_table
from repro.workloads.layer import TENSORS

_LEVEL_NAMES = {0: "registers", 1: "accumulator", 2: "scratchpad", 3: "dram"}


@dataclass(frozen=True)
class LevelReport:
    """Per-level statistics of one evaluated mapping."""

    level: int
    name: str
    capacity_required_words: float
    capacity_available_words: float
    reads: float
    writes: float
    updates: float
    bandwidth_demand_words_per_cycle: float
    bandwidth_available_words_per_cycle: float
    energy: float

    @property
    def accesses(self) -> float:
        return self.reads + self.writes + self.updates

    @property
    def occupancy(self) -> float:
        """Fraction of the level's capacity used by the mapping's tiles."""
        if self.capacity_available_words == float("inf"):
            return 0.0
        if self.capacity_available_words <= 0:
            return 0.0
        return self.capacity_required_words / self.capacity_available_words


@dataclass(frozen=True)
class MappingReport:
    """Full report: per-level statistics plus the headline metrics."""

    mapping: Mapping
    hardware: HardwareConfig
    levels: tuple[LevelReport, ...]
    latency_cycles: float
    compute_latency: float
    energy: float
    macs: float
    bound: str

    @property
    def edp(self) -> float:
        return self.latency_cycles * self.energy

    @property
    def pe_utilization(self) -> float:
        """Utilized PEs divided by available PEs."""
        return min(1.0, self.mapping.spatial_product() / self.hardware.num_pes)

    def to_text(self) -> str:
        """Render the report as the loop nest plus an aligned per-level table."""
        rows = []
        for level in self.levels:
            capacity = ("inf" if level.capacity_available_words == float("inf")
                        else format_si(level.capacity_available_words, "w"))
            rows.append([
                level.name,
                format_si(level.capacity_required_words, "w"),
                capacity,
                f"{100.0 * level.occupancy:.1f}%",
                format_si(level.reads),
                format_si(level.writes),
                format_si(level.updates),
                f"{level.bandwidth_demand_words_per_cycle:.2f}/{level.bandwidth_available_words_per_cycle:.0f}",
                format_si(level.energy),
            ])
        table = format_table(
            ["level", "tile", "capacity", "occupancy", "reads", "writes", "updates",
             "bw demand/avail", "energy"],
            rows,
        )
        summary = (
            f"latency = {self.latency_cycles:,.0f} cycles ({self.bound}-bound, "
            f"compute {self.compute_latency:,.0f}); "
            f"energy = {self.energy:,.1f}; EDP = {self.edp:.4e}; "
            f"PE utilization = {100.0 * self.pe_utilization:.1f}%"
        )
        return "\n".join([self.mapping.describe(), "", table, "", summary])


def mapping_report(mapping: Mapping, hardware: HardwareConfig) -> MappingReport:
    """Evaluate ``mapping`` on ``hardware`` and collect the per-level statistics."""
    spec = GemminiSpec(hardware)
    result = evaluate_mapping(mapping, spec)
    traffic = analyze_traffic(mapping)
    energy = energy_breakdown(traffic, spec)
    requirements = capacity_requirements(mapping)

    levels = []
    for level in MEMORY_LEVEL_INDICES:
        reads = sum(traffic.reads.get(level, {}).get(t, 0.0) for t in TENSORS)
        writes = sum(traffic.writes.get(level, {}).get(t, 0.0) for t in TENSORS)
        updates = sum(traffic.updates.get(level, {}).get(t, 0.0) for t in TENSORS)
        accesses = reads + writes + updates
        levels.append(LevelReport(
            level=level,
            name=_LEVEL_NAMES[level],
            capacity_required_words=requirements[level],
            capacity_available_words=spec.capacity_words(level),
            reads=reads,
            writes=writes,
            updates=updates,
            bandwidth_demand_words_per_cycle=(accesses / result.latency_cycles
                                              if result.latency_cycles > 0 else 0.0),
            bandwidth_available_words_per_cycle=spec.bandwidth(level),
            energy=energy.level_energy[level],
        ))
    return MappingReport(
        mapping=mapping,
        hardware=hardware,
        levels=tuple(levels),
        latency_cycles=result.latency_cycles,
        compute_latency=result.compute_latency,
        energy=result.energy,
        macs=result.macs,
        bound=result.bound,
    )
