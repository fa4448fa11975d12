"""Figure 12 with one DOSA search per latency model.

The harness runs one search per workload and lets each latency model pick
its design from that search's candidates.  This oracle is the path it
replaced: a searcher that rescales each candidate's latency with the model
as it offers the candidate, so the search's own best-so-far is the model's
pick.  The model's latencies never reach the descent, so both paths see the
same candidates and must pick the same designs.
"""

from __future__ import annotations

from repro.core.optimizer.dosa import DosaSearcher, DosaSettings
from repro.experiments.fig12_rtl import RtlDesignPoint, rtl_edp
from repro.surrogate.combined import LatencyModel
from repro.surrogate.rtl_sim import RtlSimulator
from repro.timeloop.model import NetworkPerformance
from repro.workloads import get_network


class LatencyRankedDosaSearcher(DosaSearcher):
    """A :class:`DosaSearcher` that scores candidates with ``latency_model``'s
    latency and the reference model's energy."""

    def __init__(self, network, settings: DosaSettings,
                 latency_model: LatencyModel) -> None:
        super().__init__(network, settings)
        self.latency_model = latency_model

    def _candidate_from(self, rounded, hardware, performance, session):
        latencies = [self.latency_model.latency(mapping, hardware)
                     for mapping in rounded]
        total_latency = sum(latency * mapping.layer.repeats
                            for latency, mapping in zip(latencies, rounded))
        performance = NetworkPerformance(total_latency=total_latency,
                                         total_energy=performance.total_energy,
                                         per_layer=performance.per_layer)
        return super()._candidate_from(rounded, hardware, performance, session)


def search_per_model(workload: str, latency_models: list[LatencyModel],
                     settings: DosaSettings,
                     simulator: RtlSimulator) -> list[RtlDesignPoint]:
    """One search per model; each search's best design, scored on the RTL."""
    designs = []
    for model in latency_models:
        best = LatencyRankedDosaSearcher(get_network(workload), settings,
                                         model).search().best
        designs.append(RtlDesignPoint(
            workload=workload, model_name=model.name, hardware=best.hardware,
            mappings=best.mappings,
            edp=rtl_edp(best.mappings, best.hardware, simulator)))
    return designs
