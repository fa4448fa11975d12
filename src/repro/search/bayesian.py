"""Two-loop Bayesian-optimization baseline (BB-BO).

Mirrors the setup of Section 6.1 (hyperparameters chosen after Spotlight): a
Gaussian-process surrogate is trained on randomly sampled hardware designs,
each paired with randomly sampled per-layer mappings evaluated on the
reference model; the trained surrogate then scores a larger pool of candidate
hardware/mapping combinations, and the combination with the best predicted
whole-network EDP is evaluated for real.

Features given to the GP are log-scaled hardware parameters, layer dimensions
and mapping summary statistics (spatial parallelism, per-level tile sizes),
which is the same information a black-box optimizer would observe.

Reference evaluations (training-data collection and the final candidate
scoring) run through the :class:`~repro.eval.engine.EvaluationEngine`
in-process, so repeated candidates hit the cache and batches are vectorized;
sample accounting is unchanged.

Registered as strategy ``"bayesian"`` in the unified search API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.components import LEVEL_ACCUMULATOR, LEVEL_DRAM, LEVEL_SCRATCHPAD
from repro.arch.config import HardwareConfig, random_hardware_config
from repro.eval.cache import EvaluationCache
from repro.eval.engine import EvaluationEngine
from repro.mapping.constraints import factor_stacks, tile_word_arrays
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
from repro.search.gp import GaussianProcessRegressor
from repro.timeloop.model import NetworkPerformance, PerformanceResult
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.layer import DIMENSIONS
from repro.workloads.networks import Network


@dataclass
class BayesianSettings:
    """Paper defaults: 100 hardware designs, 100 mappings/layer, 1000 candidates."""

    num_training_hardware: int = 100
    mappings_per_layer: int = 100
    num_candidates: int = 1000
    candidate_mappings_per_layer: int = 20
    max_gp_points: int = 2000
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if min(self.num_training_hardware, self.mappings_per_layer,
               self.num_candidates, self.candidate_mappings_per_layer) < 1:
            raise ValueError("search settings must be positive")


def mapping_features(hardware: HardwareConfig, mappings: list[Mapping]) -> np.ndarray:
    """``(len(mappings), 15)`` features of each (hardware, layer, mapping) triple.

    Log-scaled hardware parameters, then the mapping's layer dimensions, then
    its spatial parallelism, accumulator output tile, scratchpad weight and
    input tiles and DRAM iteration count; the tiles come from one kernel pass
    over all ``mappings``.
    """
    temporal, spatial, stride_p, stride_q = factor_stacks(mappings)
    tiles = tile_word_arrays(temporal, spatial, stride_p, stride_q)
    hardware_features = np.log2([hardware.pe_dim, hardware.accumulator_kb,
                                 hardware.scratchpad_kb])
    layer_features = np.log2([[m.layer.dim(d) for d in DIMENSIONS] for m in mappings])
    mapping_features_ = np.log2(np.maximum(np.column_stack([
        spatial.reshape(len(mappings), -1).prod(axis=1),
        tiles["O"][:, LEVEL_ACCUMULATOR],
        tiles["W"][:, LEVEL_SCRATCHPAD],
        tiles["I"][:, LEVEL_SCRATCHPAD],
        temporal[:, LEVEL_DRAM].prod(axis=1),
    ]), 1.0))
    return np.column_stack([
        np.broadcast_to(hardware_features, (len(mappings), 3)),
        layer_features,
        mapping_features_,
    ])


@register_searcher("bayesian")
class BayesianSearcher:
    """Gaussian-process-guided two-loop hardware/mapping co-search."""

    settings_type = BayesianSettings

    def __init__(self, network: Network, settings: BayesianSettings | None = None,
                 cache: EvaluationCache | None = None) -> None:
        self.network = network
        self.settings = settings or BayesianSettings()
        self.cache = cache

    # ------------------------------------------------------------------ #
    def search(self, budget: SearchBudget | int | None = None,
               callbacks=None) -> SearchOutcome:
        settings = self.settings
        rng = make_rng(settings.seed)
        session = SearchSession("bayesian", budget=budget, callbacks=callbacks,
                                settings=settings, network=self.network)
        with session.absorb_interrupt():
            self._run_phases(session, EvaluationEngine(cache=self.cache), rng)
        return session.finish()

    def _run_phases(self, session: SearchSession, engine: EvaluationEngine,
                    rng) -> None:
        settings = self.settings

        # ---- Phase 1: collect training data (counts as samples). --------- #
        features: list[np.ndarray] = []
        targets: list[float] = []

        for _ in range(settings.num_training_hardware):
            if session.exhausted():
                break
            hardware = random_hardware_config(seed=rng)
            chosen: list[Mapping] = []
            per_layer: list[PerformanceResult] = []
            evaluated: list[Mapping] = []
            feasible = True
            for layer in self.network.layers:

                def record_training_point(mapping, result, layer=layer):
                    evaluated.append(mapping)
                    targets.append(np.log10(result.edp * max(layer.repeats, 1)))

                best_layer, best_layer_result = best_of_random_mappings(
                    session, engine, hardware,
                    attempts=settings.mappings_per_layer,
                    generate=lambda count, layer=layer: random_mappings_for_hardware(
                        layer, hardware, count, seed=rng, max_attempts=10),
                    on_evaluated=record_training_point,
                )
                if best_layer is None:
                    feasible = False
                    break
                chosen.append(best_layer)
                per_layer.append(best_layer_result)
            if evaluated:
                features.append(mapping_features(hardware, evaluated))
            if feasible:
                session.offer(CandidateDesign(
                    hardware=hardware,
                    mappings=chosen,
                    performance=NetworkPerformance.from_layers(per_layer, chosen),
                ))
            else:
                session.checkpoint()

        if not features or session.exhausted():
            return

        # ---- Phase 2: fit the GP surrogate. ------------------------------ #
        feature_matrix = np.concatenate(features)
        target_vector = np.asarray(targets)
        if len(feature_matrix) > settings.max_gp_points:
            keep = rng.choice(len(feature_matrix), size=settings.max_gp_points, replace=False)
            feature_matrix = feature_matrix[keep]
            target_vector = target_vector[keep]
        gp = GaussianProcessRegressor(length_scale=2.0, noise=1e-2)
        gp.fit(feature_matrix, target_vector)

        # ---- Phase 3: pick the best predicted candidate and evaluate it. -- #
        best_predicted: tuple[float, HardwareConfig, list[Mapping]] | None = None
        for _ in range(settings.num_candidates):
            # GP scoring spends no reference samples but does take wall time,
            # so the wall-clock budget still applies here.
            if session.exhausted():
                break
            hardware = random_hardware_config(seed=rng)
            candidate_mappings: list[Mapping] = []
            predicted_total = 0.0
            feasible = True
            for layer in self.network.layers:
                options = [mapping for mapping in random_mappings_for_hardware(
                    layer, hardware, settings.candidate_mappings_per_layer,
                    seed=rng, max_attempts=5) if mapping is not None]
                if not options:
                    feasible = False
                    break
                predictions = gp.predict(mapping_features(hardware, options))
                best_index = int(np.argmin(predictions))
                candidate_mappings.append(options[best_index])
                predicted_total += float(predictions[best_index])
            if not feasible:
                continue
            if best_predicted is None or predicted_total < best_predicted[0]:
                best_predicted = (predicted_total, hardware, candidate_mappings)

        if best_predicted is not None:
            _, hardware, mappings = best_predicted
            results = engine.evaluate_many(mappings, hardware)
            session.spend(len(results))
            session.offer(CandidateDesign(
                hardware=hardware,
                mappings=mappings,
                performance=NetworkPerformance.from_layers(results, mappings),
            ))
