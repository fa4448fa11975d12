"""Tests for the unified search API: registry, budget, callbacks, outcomes."""

import pytest

from repro.arch.config import DEFAULT_BOUNDS, HardwareConfig
from repro.core.optimizer import DosaSearcher, DosaSettings
from repro.search import (
    BayesianSearcher,
    FixedHardwareMapperSearcher,
    RandomSearcher,
    RandomSearchSettings,
)
from repro.search.api import (
    CandidateDesign,
    SearchBudget,
    SearchCallback,
    Searcher,
    SearchOutcome,
    SearchTrace,
    available_strategies,
    get_searcher,
    optimize,
    register_searcher,
)
from repro.utils.serialization import (
    load_outcome,
    outcome_from_dict,
    outcome_to_dict,
    save_outcome,
)
from repro.workloads.layer import conv2d_layer, matmul_layer
from repro.workloads.networks import Network


def tiny_network() -> Network:
    return Network(name="tiny", layers=[
        conv2d_layer(32, 64, 14, name="conv"),
        matmul_layer(64, 128, 256, name="fc"),
    ])


class TestRegistry:
    def test_builtin_strategies_registered(self):
        strategies = available_strategies()
        for name in ("dosa", "random", "bayesian", "fixed_hw_random"):
            assert name in strategies

    def test_get_searcher_roundtrip(self):
        assert get_searcher("dosa") is DosaSearcher
        assert get_searcher("random") is RandomSearcher
        assert get_searcher("bayesian") is BayesianSearcher
        assert get_searcher("fixed_hw_random") is FixedHardwareMapperSearcher

    def test_unknown_strategy_raises_with_options(self):
        with pytest.raises(KeyError, match="unknown search strategy"):
            get_searcher("annealing")
        with pytest.raises(KeyError, match="dosa"):
            get_searcher("annealing")

    def test_register_and_use_custom_strategy(self):
        @register_searcher("_test_stub")
        class StubSearcher:
            def __init__(self, network, settings=None):
                self.network = network

            def search(self, budget=None, callbacks=None):
                raise NotImplementedError

        try:
            assert get_searcher("_test_stub") is StubSearcher
            assert "_test_stub" in available_strategies()
            assert isinstance(get_searcher("_test_stub")(tiny_network()), Searcher)
        finally:
            from repro.search import api
            del api._SEARCHERS["_test_stub"]

    def test_searchers_satisfy_protocol(self):
        assert isinstance(RandomSearcher(tiny_network()), Searcher)
        assert isinstance(DosaSearcher(tiny_network()), Searcher)


class TestSearchBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_samples=0)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-1.0)
        # A NaN time budget never compares as spent, so it would never expire.
        for seconds in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                SearchBudget(max_seconds=seconds)

    def test_exhaustion(self):
        budget = SearchBudget(max_samples=10, max_seconds=60.0)
        assert not budget.exhausted(9, 0.0)
        assert budget.exhausted(10, 0.0)
        assert budget.exhausted(0, 60.0)
        assert not SearchBudget().exhausted(10**9, 10**9)

    def test_coerce(self):
        assert SearchBudget.coerce(None) == SearchBudget()
        assert SearchBudget.coerce(25).max_samples == 25
        budget = SearchBudget(max_seconds=1.0)
        assert SearchBudget.coerce(budget) is budget
        with pytest.raises(TypeError):
            SearchBudget.coerce("lots")

    def test_random_search_stops_within_budget(self):
        settings = RandomSearchSettings(num_hardware_designs=8, mappings_per_layer=20,
                                        seed=0)
        outcome = RandomSearcher(tiny_network(), settings).search(budget=30)
        # The first design is always completed (one in-flight evaluation per
        # layer may finish), after which the cap is strict.
        assert outcome.total_samples <= 30 + len(tiny_network().layers)
        assert outcome.best_edp > 0

    def test_dosa_search_stops_within_budget(self):
        network = tiny_network()
        settings = DosaSettings(num_start_points=3, gd_steps=500, rounding_period=250,
                                seed=0)
        outcome = DosaSearcher(network, settings).search(budget=40)
        # One in-flight reference evaluation (one sample per layer) may finish.
        assert outcome.total_samples <= 40 + len(network.layers)
        assert outcome.best_edp > 0
        # Without the budget the same settings would spend far more samples.
        assert settings.num_start_points * settings.gd_steps > 100

    def test_dosa_budget_holds_when_periodic_rounding_crosses_it(self):
        # Regression: a periodic rounding whose reference samples cross the
        # budget must end the run, not allow one more step + rounding.
        network = tiny_network()
        settings = DosaSettings(num_start_points=1, gd_steps=200, rounding_period=50,
                                seed=0)
        outcome = DosaSearcher(network, settings).search(budget=51)
        assert outcome.total_samples <= 51 + len(network.layers)

    def test_budget_shrinks_sample_usage(self):
        settings = DosaSettings(num_start_points=2, gd_steps=60, rounding_period=30,
                                seed=0)
        unbounded = DosaSearcher(tiny_network(), settings).search()
        bounded = DosaSearcher(tiny_network(), settings).search(budget=20)
        assert bounded.total_samples < unbounded.total_samples


class TestCallbacks:
    def make_recorder(self):
        events = []

        class Recorder(SearchCallback):
            def on_step(self, samples):
                events.append(("step", samples, None))

            def on_candidate(self, candidate, samples):
                events.append(("candidate", samples, candidate))

            def on_best(self, candidate, samples):
                events.append(("best", samples, candidate))

        return Recorder(), events

    def test_invocation_order_and_counts(self):
        recorder, events = self.make_recorder()
        settings = RandomSearchSettings(num_hardware_designs=3, mappings_per_layer=10,
                                        seed=0)
        outcome = RandomSearcher(tiny_network(), settings).search(callbacks=recorder)

        kinds = [kind for kind, _, _ in events]
        assert kinds.count("step") == outcome.total_samples
        assert kinds.count("candidate") == len(outcome.candidates)
        assert kinds.count("best") >= 1

        # Sample counts are non-decreasing over the event stream.
        counts = [samples for _, samples, _ in events]
        assert counts == sorted(counts)

        # Every on_best immediately follows the on_candidate for that design.
        for index, (kind, samples, candidate) in enumerate(events):
            if kind == "best":
                previous = events[index - 1]
                assert previous[0] == "candidate"
                assert previous[2] is candidate

        # The first evaluated candidate is always a "best"; the last best is
        # the outcome's best design.
        bests = [candidate for kind, _, candidate in events if kind == "best"]
        assert bests[-1] is outcome.best

    def test_dosa_hooks_fire_once_per_candidate(self):
        recorder, events = self.make_recorder()
        settings = DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10,
                                seed=0)
        outcome = DosaSearcher(tiny_network(), settings).search(callbacks=recorder)
        candidates = [candidate for kind, _, candidate in events if kind == "candidate"]
        assert len(candidates) == len(outcome.candidates)
        assert all(seen is kept for seen, kept in zip(candidates, outcome.candidates))


class TestSearchTrace:
    def test_monotone_by_construction(self):
        trace = SearchTrace()
        trace.record(1, 10.0)
        trace.record(2, 20.0)   # regression is clamped to the running best
        trace.record(3, 5.0)
        assert [p.best_edp for p in trace.points] == [10.0, 10.0, 5.0]
        assert trace.total_samples == 3
        assert trace.as_pairs() == [(1, 10.0), (2, 10.0), (3, 5.0)]

    def test_empty_trace(self):
        trace = SearchTrace()
        assert trace.points == [] and trace.as_pairs() == []
        assert trace.total_samples == 0

    def test_every_strategy_trace_is_monotone(self):
        tolerance = 1 + 1e-12
        outcomes = [
            optimize(tiny_network(), "random",
                     settings=RandomSearchSettings(3, 10, seed=1)),
            optimize(tiny_network(), "dosa",
                     settings=DosaSettings(num_start_points=2, gd_steps=40,
                                           rounding_period=20, seed=1)),
        ]
        for outcome in outcomes:
            values = [p.best_edp for p in outcome.trace.points]
            assert values, outcome.method
            assert all(later <= earlier * tolerance
                       for earlier, later in zip(values, values[1:])), outcome.method
            assert values[-1] == pytest.approx(outcome.best_edp)

    def test_dict_roundtrip(self):
        trace = SearchTrace()
        trace.record(5, 2.0)
        trace.record(9, 1.0)
        restored = SearchTrace.from_dict(trace.to_dict())
        assert restored.as_pairs() == trace.as_pairs()


class TestOptimizeFacade:
    def test_accepts_network_name(self):
        outcome = optimize("bert", strategy="random",
                           settings=RandomSearchSettings(1, 5, seed=0))
        assert outcome.network == "bert"
        assert outcome.method == "random"

    def test_seed_reproducibility(self):
        first = optimize(tiny_network(), "random", budget=60, seed=3)
        second = optimize(tiny_network(), "random", budget=60, seed=3)
        assert first.best_edp == second.best_edp
        assert first.trace.as_pairs() == second.trace.as_pairs()

    def test_settings_and_seed_conflict_raises(self):
        with pytest.raises(TypeError, match="not both"):
            optimize(tiny_network(), "random",
                     settings=RandomSearchSettings(1, 5, seed=0), seed=1)

    def test_fixed_hardware_strategy_kwargs(self):
        hardware = HardwareConfig(16, 32, 128)
        outcome = optimize(tiny_network(), "fixed_hw_random", seed=0,
                           hardware=hardware, budget=30)
        assert outcome.best_hardware == hardware
        assert len(outcome.best_mappings) == 2

    def test_all_cosearch_strategies_share_outcome_shape(self):
        from repro.search.bayesian import BayesianSettings

        settings = {
            "dosa": DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10,
                                 seed=0),
            "random": RandomSearchSettings(2, 8, seed=0),
            "bayesian": BayesianSettings(num_training_hardware=2, mappings_per_layer=5,
                                         num_candidates=3,
                                         candidate_mappings_per_layer=3, seed=0),
        }
        for strategy, strategy_settings in settings.items():
            outcome = optimize(tiny_network(), strategy, settings=strategy_settings)
            assert isinstance(outcome, SearchOutcome)
            assert outcome.method == strategy
            assert isinstance(outcome.best, CandidateDesign)
            assert outcome.best_edp > 0
            assert outcome.trace.total_samples > 0
            assert outcome.wall_time_seconds > 0
            assert outcome.settings["seed"] == 0


class TestDosaSettingsBounds:
    def test_default_bounds_are_fresh_copies(self):
        first = DosaSettings()
        second = DosaSettings()
        assert first.bounds == DEFAULT_BOUNDS
        assert first.bounds is not second.bounds
        assert first.bounds is not DEFAULT_BOUNDS


class TestOutcomeSerialization:
    @pytest.fixture(scope="class")
    def outcome(self):
        settings = DosaSettings(num_start_points=1, gd_steps=20, rounding_period=10,
                                seed=0)
        return DosaSearcher(tiny_network(), settings).search()

    def test_dict_roundtrip(self, outcome):
        restored = outcome_from_dict(outcome_to_dict(outcome))
        assert restored.method == outcome.method
        assert restored.network == outcome.network
        assert restored.best_edp == pytest.approx(outcome.best_edp)
        assert restored.best_hardware == outcome.best_hardware
        assert restored.trace.as_pairs() == outcome.trace.as_pairs()
        assert restored.settings == outcome.settings
        assert restored.seed == 0

    def test_file_roundtrip(self, outcome, tmp_path):
        path = save_outcome(tmp_path / "nested" / "outcome.json", outcome)
        assert path.exists()
        restored = load_outcome(path)
        assert restored.best_edp == pytest.approx(outcome.best_edp)
        assert len(restored.best_mappings) == len(outcome.best_mappings)
        # Mappings survive well enough to re-evaluate identically.
        from repro.timeloop import evaluate_network_mappings

        re_evaluated = evaluate_network_mappings(restored.best_mappings,
                                                 restored.best_hardware)
        assert re_evaluated.edp == pytest.approx(outcome.best.performance.edp)

    def test_settings_snapshot_is_json_safe(self, outcome):
        import json

        payload = json.dumps(outcome_to_dict(outcome))
        assert "ordering_strategy" in payload

    def test_reserialization_is_lossless(self, outcome):
        # Candidate *objects* are not persisted, but serialize -> rebuild ->
        # serialize must reproduce the payload byte-for-byte — in particular
        # num_candidates, which a rebuilt outcome carries via
        # serialized_candidate_count rather than len(candidates).
        payload = outcome_to_dict(outcome)
        restored = outcome_from_dict(payload)
        assert restored.candidates == []
        assert restored.num_candidates == outcome.num_candidates
        assert restored.num_candidates == payload["num_candidates"]
        assert outcome_to_dict(restored) == payload
