"""Random-pruned mapping search for a fixed hardware design.

Used to give each expert baseline accelerator of Figure 8 a well-tuned set of
mappings: the paper searches 10,000 valid mappings per layer with Timeloop's
random-pruned mapper; this module performs the analogous random mapping search
against our reference model.

Registered as strategy ``"fixed_hw_random"`` in the unified search API; the
target hardware is passed as a constructor keyword, e.g.::

    repro.optimize(network, strategy="fixed_hw_random",
                   hardware=repro.arch.GEMMINI_DEFAULT, seed=0)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import HardwareConfig
from repro.eval.cache import EvaluationCache
from repro.eval.engine import EvaluationEngine
from repro.mapping.mapping import Mapping
from repro.mapping.random_mapper import random_mapping, random_mapping_for_hardware
from repro.search.api import (
    CandidateDesign,
    SearchBudget,
    SearchOutcome,
    SearchSession,
    register_searcher,
)
from repro.search.batching import best_of_random_mappings
from repro.timeloop.model import NetworkPerformance
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.networks import Network


@dataclass
class FixedHardwareSettings:
    """Best-of-N random mappings per layer on a fixed accelerator."""

    mappings_per_layer: int = 1000
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.mappings_per_layer < 1:
            raise ValueError("mappings_per_layer must be positive")


@register_searcher("fixed_hw_random")
class FixedHardwareMapperSearcher:
    """Random mapping search with the hardware held fixed (mapping-only DSE).

    Layers for which no fitting mapping is found fall back to the best mapping
    sampled regardless of fit (pessimistic but keeps the comparison defined).
    """

    settings_type = FixedHardwareSettings

    def __init__(self, network: Network,
                 settings: FixedHardwareSettings | None = None,
                 hardware: HardwareConfig | None = None,
                 cache: EvaluationCache | None = None) -> None:
        if hardware is None:
            raise TypeError("FixedHardwareMapperSearcher requires hardware=...")
        self.network = network
        self.settings = settings or FixedHardwareSettings()
        self.hardware = hardware
        self.cache = cache

    def search(self, budget: SearchBudget | int | None = None,
               callbacks=None) -> SearchOutcome:
        settings = self.settings
        rng = make_rng(settings.seed)
        session = SearchSession("fixed_hw_random", budget=budget, callbacks=callbacks,
                                settings=settings, network=self.network)
        chosen: list[Mapping] = []
        per_layer = []
        engine = EvaluationEngine(cache=self.cache)
        with session.absorb_interrupt():
            for layer in self.network.layers:

                def generate(count, layer=layer):
                    # One candidate at a time: a candidate that finds no fit
                    # draws its fallback before the next candidate draws.
                    mappings = []
                    for _ in range(count):
                        mapping = random_mapping_for_hardware(
                            layer, self.hardware, seed=rng, max_attempts=10)
                        if mapping is None:
                            # Fall back to the best mapping regardless of fit
                            # (pessimistic but keeps the comparison defined).
                            mapping = random_mapping(layer, seed=rng,
                                                     max_spatial=self.hardware.pe_dim)
                        mappings.append(mapping)
                    return mappings

                best_mapping, best_result = best_of_random_mappings(
                    session, engine, self.hardware,
                    attempts=settings.mappings_per_layer,
                    generate=generate,
                )
                chosen.append(best_mapping)
                per_layer.append(best_result)
            # Inside the interrupt guard: a Ctrl-C mid-run leaves `chosen`
            # partial, in which case no (complete) design is ever offered and
            # finish() re-raises the KeyboardInterrupt.
            session.offer(CandidateDesign(
                hardware=self.hardware,
                mappings=chosen,
                performance=NetworkPerformance.from_layers(per_layer, chosen),
            ))
        return session.finish()

