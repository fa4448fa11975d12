"""Random two-loop hardware/mapping co-search (the "Random" baseline).

Following Section 6.1: the baseline evaluates a number of random hardware
designs, and for each design samples a number of random valid mappings per
layer, keeping the best mapping per layer.  Every reference-model evaluation
counts as one sample, making the traces directly comparable to DOSA's.

Reference evaluations run through the :class:`~repro.eval.engine
.EvaluationEngine` in-process (per-design candidate batches are vectorized
and exact repeats are served from cache); sample accounting and seeded
candidate selection are unchanged.

Registered as strategy ``"random"`` in the unified search API.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import random_hardware_config
from repro.eval.cache import EvaluationCache
from repro.eval.engine import EvaluationEngine
from repro.mapping.mapping import Mapping
from repro.mapping.random_mapper import random_mappings_for_hardware
from repro.search.api import (
    CandidateDesign,
    SearchBudget,
    SearchOutcome,
    SearchSession,
    register_searcher,
)
from repro.search.batching import best_of_random_mappings
from repro.timeloop.model import NetworkPerformance, PerformanceResult
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.networks import Network


@dataclass
class RandomSearchSettings:
    """Paper defaults: 10 hardware designs x 1000 mappings per layer."""

    num_hardware_designs: int = 10
    mappings_per_layer: int = 1000
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.num_hardware_designs < 1 or self.mappings_per_layer < 1:
            raise ValueError("search settings must be positive")


@register_searcher("random")
class RandomSearcher:
    """Two-loop random search over hardware configs and mappings."""

    settings_type = RandomSearchSettings

    def __init__(self, network: Network, settings: RandomSearchSettings | None = None,
                 cache: EvaluationCache | None = None) -> None:
        self.network = network
        self.settings = settings or RandomSearchSettings()
        self.cache = cache

    def search(self, budget: SearchBudget | int | None = None,
               callbacks=None) -> SearchOutcome:
        settings = self.settings
        rng = make_rng(settings.seed)
        session = SearchSession("random", budget=budget, callbacks=callbacks,
                                settings=settings, network=self.network)

        engine = EvaluationEngine(cache=self.cache)
        with session.absorb_interrupt():
            for _ in range(settings.num_hardware_designs):
                if session.exhausted():
                    break
                hardware = random_hardware_config(seed=rng)
                chosen: list[Mapping] = []
                per_layer: list[PerformanceResult] = []
                feasible = True
                for layer in self.network.layers:
                    best_layer, best_layer_result = best_of_random_mappings(
                        session, engine, hardware,
                        attempts=settings.mappings_per_layer,
                        generate=lambda count, layer=layer: random_mappings_for_hardware(
                            layer, hardware, count, seed=rng, max_attempts=20),
                    )
                    if best_layer is None:
                        feasible = False
                        break
                    chosen.append(best_layer)
                    per_layer.append(best_layer_result)
                if not feasible:
                    session.checkpoint()
                    continue
                session.offer(CandidateDesign(
                    hardware=hardware,
                    mappings=chosen,
                    performance=NetworkPerformance.from_layers(per_layer, chosen),
                ))

        return session.finish()
