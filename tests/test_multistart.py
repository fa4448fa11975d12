"""Parity of the start-batched (multi-start) model with one start at a time.

The ``(S, L, ...)`` :class:`MultiStartFactors` schedule advances every start
point in one graph, and start points share no graph nodes, so per-start
losses must be *bit-identical* to S=1 losses, per-start gradients must be
bitwise equal rows of the stacked gradient, and seeded end-to-end outcomes
must match the one-start-at-a-time oracle schedule (``tests/oracles``)
design-for-design across every loop-ordering strategy.  The mask regression
covers starts that freeze (stop descending) at different steps under a
binding sample budget.
"""

import numpy as np
import pytest

import repro
from repro.arch import HardwareConfig
from repro.core.dmodel import (
    DenseTerms,
    DifferentiableModel,
    MultiStartFactors,
    best_ordering_per_layer,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)
from repro.core.optimizer import (
    DosaSearcher,
    DosaSettings,
    LoopOrderingStrategy,
    generate_start_points,
    predicted_edp_of_mapping_sets,
    stack_start_points,
)
from repro.mapping import cosa_mapping
from repro.search.api import SearchBudget
from repro.workloads import conv2d_layer, get_network, matmul_layer

from oracles import layer_model as oracle
from oracles.rounding import (
    rounded_mappings_of,
    scalar_rounded_mapping_sets,
    snapshot_mappings,
)
from oracles.schedule import sequential_search

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONFIG = HardwareConfig(8, 16, 64)
NUM_STARTS = 3


def _layers():
    return [
        conv2d_layer(16, 32, 14, name="conv"),
        matmul_layer(28, 64, 32, name="matmul"),
    ]


def _random_starts(seed: int, num_starts: int = NUM_STARTS):
    """A multi-start stack plus equivalent per-start S=1 clones."""
    layers = _layers()
    rng = np.random.default_rng(seed)
    mappings = [cosa_mapping(layer, CONFIG) for layer in layers]
    multi = MultiStartFactors.from_mapping_sets([mappings] * num_starts)
    multi.log_temporal.data = multi.log_temporal.data + rng.uniform(
        0.05, 0.3, multi.log_temporal.data.shape)
    multi.log_spatial.data = multi.log_spatial.data + rng.uniform(
        0.05, 0.3, multi.log_spatial.data.shape)
    singles = []
    for start in range(num_starts):
        factors = MultiStartFactors.from_mapping_sets([mappings])
        factors.log_temporal.data = multi.log_temporal.data[start:start + 1].copy()
        factors.log_spatial.data = multi.log_spatial.data[start:start + 1].copy()
        singles.append(factors)
    return multi, singles, [1, 2]


class TestLossParity:
    def test_per_start_losses_bitwise_equal(self):
        multi, singles, repeats = _random_starts(0)
        terms = DenseTerms(multi)
        hardware = DifferentiableModel.derive_hardware(multi, terms=terms)
        performances = DifferentiableModel.evaluate_network(multi, hardware,
                                                            terms=terms)
        edps = network_edp_loss(performances, repeats)
        penalties = validity_penalty(multi, terms=terms)
        softmaxes = softmax_ordering_loss(multi, repeats)
        assert edps.shape == (NUM_STARTS,)
        for start, factors in enumerate(singles):
            single_terms = DenseTerms(factors)
            single_hw = DifferentiableModel.derive_hardware(factors, terms=single_terms)
            perf = DifferentiableModel.evaluate_network(factors, single_hw,
                                                        terms=single_terms)
            assert float(edps.data[start]) == (
                network_edp_loss(perf, repeats).data.item())
            assert float(penalties.data[start]) == (
                validity_penalty(factors, terms=single_terms).data.item())
            assert float(softmaxes.data[start]) == (
                softmax_ordering_loss(factors, repeats).data.item())

    @pytest.mark.parametrize("strategy", list(LoopOrderingStrategy))
    def test_searcher_loss_gradients_match_per_start(self, strategy):
        """Each row of the stacked gradient == that start's own gradient."""
        multi, singles, repeats = _random_starts(7)
        searcher = DosaSearcher(
            get_network("bert"),
            settings=DosaSettings(ordering_strategy=strategy, seed=0))
        searcher._repeats = repeats

        searcher._loss(multi).backward()
        for start, factors in enumerate(singles):
            searcher._loss(factors).backward()
            np.testing.assert_array_equal(multi.log_temporal.grad[start],
                                          factors.log_temporal.grad[0])
            np.testing.assert_array_equal(multi.log_spatial.grad[start],
                                          factors.log_spatial.grad[0])


class TestActiveMask:
    def test_frozen_starts_get_exactly_zero_gradients(self):
        multi, _, repeats = _random_starts(3)
        searcher = DosaSearcher(get_network("bert"),
                                settings=DosaSettings(seed=0))
        searcher._repeats = repeats

        searcher._loss(multi).backward()
        unmasked_t = multi.log_temporal.grad.copy()
        unmasked_s = multi.log_spatial.grad.copy()

        for parameter in multi.parameters():
            parameter.zero_grad()
        active = np.array([True, False, True])
        searcher._loss(multi, active=active).backward()
        # Masked-out start: exactly zero gradient (it must not drift the
        # frozen descent); active starts: bitwise the unmasked gradient.
        np.testing.assert_array_equal(multi.log_temporal.grad[1],
                                      np.zeros_like(unmasked_t[1]))
        np.testing.assert_array_equal(multi.log_spatial.grad[1],
                                      np.zeros_like(unmasked_s[1]))
        for start in (0, 2):
            np.testing.assert_array_equal(multi.log_temporal.grad[start],
                                          unmasked_t[start])
            np.testing.assert_array_equal(multi.log_spatial.grad[start],
                                          unmasked_s[start])

    def test_budget_freezes_trailing_starts_mid_descent(self):
        """A binding sample budget narrows the batch instead of crashing.

        With 3 starts, 40 steps and rounding every 8 steps, a 50-sample cap
        exhausts mid-descent: trailing starts freeze (terminate at different
        steps), leading starts keep descending, and the outcome stays
        feasible with paper-consistent sample accounting.
        """
        settings = DosaSettings(num_start_points=3, gd_steps=40,
                                rounding_period=8, seed=0)
        searcher = DosaSearcher(get_network("bert"), settings)
        outcome = searcher.search(budget=SearchBudget(max_samples=50))
        layer_count = len(get_network("bert").layers)
        assert outcome.best_edp > 0
        assert len(outcome.candidates) >= 1
        # Overshoot is bounded by the in-flight rounding evaluations: at most
        # one reference evaluation (layer_count samples) per start.
        assert outcome.total_samples <= 50 + settings.num_start_points * layer_count
        assert outcome.best_edp == pytest.approx(
            min(candidate.edp for candidate in outcome.candidates))

    def test_exhausted_budget_between_steps_still_offers_candidates(self):
        """Exhaustion exactly at a step boundary ends with a final rounding."""
        settings = DosaSettings(num_start_points=2, gd_steps=30,
                                rounding_period=10, seed=1)
        searcher = DosaSearcher(get_network("bert"), settings)
        outcome = searcher.search(budget=SearchBudget(max_samples=2 * 10))
        assert len(outcome.candidates) >= 1


class TestMultiStartFactors:
    def test_snapshots_match_per_start_network_factors(self):
        """Start ``s`` of a stack snapshots and rounds like its S=1 clone."""
        multi, singles, _ = _random_starts(11)
        for start, factors in enumerate(singles):
            reference = snapshot_mappings(factors, 0)
            snapshot = snapshot_mappings(multi, start)
            for ours, theirs in zip(snapshot, reference):
                np.testing.assert_array_equal(ours.temporal, theirs.temporal)
                np.testing.assert_array_equal(ours.spatial, theirs.spatial)
                assert ours.orderings == theirs.orderings
            [rounded] = multi.rounded_mapping_sets([start], max_spatial=16)
            [reference_rounded] = factors.rounded_mapping_sets(max_spatial=16)
            for ours, theirs in zip(rounded, reference_rounded):
                np.testing.assert_array_equal(ours.temporal, theirs.temporal)
                np.testing.assert_array_equal(ours.spatial, theirs.spatial)

    def test_load_mapping_sets_updates_only_given_starts(self):
        multi, _, _ = _random_starts(2)
        before_t = multi.log_temporal.data.copy()
        before_s = multi.log_spatial.data.copy()
        [rounded] = multi.rounded_mapping_sets([1], max_spatial=16)
        multi.load_mapping_sets({1: rounded})
        # Start 1 snapped onto the rounded mapping, starts 0/2 untouched.
        reference = MultiStartFactors.from_mapping_sets([rounded])
        np.testing.assert_array_equal(multi.log_temporal.data[1],
                                      reference.log_temporal.data[0])
        for start in (0, 2):
            np.testing.assert_array_equal(multi.log_temporal.data[start],
                                          before_t[start])
            np.testing.assert_array_equal(multi.log_spatial.data[start],
                                          before_s[start])

    def test_dim_mask_broadcasts_layer_mask_over_starts(self):
        multi, _, _ = _random_starts(0)
        assert multi.dim_mask.shape == (NUM_STARTS, 2, multi.dim_sizes.shape[1])
        for start in range(NUM_STARTS):
            np.testing.assert_array_equal(multi.dim_mask[start],
                                          multi.dim_sizes > 1.0)

    def test_shape_validation(self):
        layers = _layers()
        with pytest.raises(ValueError):
            MultiStartFactors(layers, num_starts=0)
        with pytest.raises(ValueError):
            MultiStartFactors([], num_starts=2)
        with pytest.raises(ValueError):
            MultiStartFactors(layers, num_starts=2,
                              log_temporal=np.zeros((3, 2, 3, 7)))
        with pytest.raises(ValueError):
            MultiStartFactors.from_mapping_sets([])


class TestStartPointBatching:
    def test_predicted_edp_of_mapping_sets_matches_per_layer_model(self):
        network = get_network("bert")
        repeats = [layer.repeats for layer in network.layers]
        points = generate_start_points(network, count=3, seed=0)
        batched = predicted_edp_of_mapping_sets(
            [point.mappings for point in points], repeats)
        assert batched.shape == (3,)
        for start, point in enumerate(points):
            per_layer = [oracle.LayerFactors.from_mapping(m) for m in point.mappings]
            hardware = oracle.LayerModel.derive_hardware(per_layer)
            performances = oracle.LayerModel.evaluate_network(per_layer, hardware)
            assert float(batched[start]) == float(
                oracle.network_edp_loss(performances, repeats).data)
            assert float(batched[start]) == point.predicted_edp

    def test_stack_start_points(self):
        network = get_network("bert")
        points = generate_start_points(network, count=2, seed=3)
        stacked = stack_start_points(points)
        assert stacked.num_starts == 2
        assert stacked.layers == [m.layer for m in points[0].mappings]
        for start, point in enumerate(points):
            reference = MultiStartFactors.from_mapping_sets([point.mappings])
            np.testing.assert_array_equal(stacked.log_temporal.data[start],
                                          reference.log_temporal.data[0])


class TestMultiStartGradcheck:
    """Finite-difference check of the stacked (S, L, ...) losses."""

    @staticmethod
    def _numeric_gradient(loss_fn, parameter, eps=1e-5):
        grad = np.zeros_like(parameter.data)
        flat = parameter.data.reshape(-1)
        grad_flat = grad.reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + eps
            plus = float(loss_fn().data)
            flat[index] = original - eps
            minus = float(loss_fn().data)
            flat[index] = original
            grad_flat[index] = (plus - minus) / (2 * eps)
        return grad

    def _check(self, multi, loss_fn, rtol=2e-3, atol=1e-2):
        for parameter in multi.parameters():
            parameter.zero_grad()
        loss = loss_fn()
        loss.backward()
        scale = max(abs(float(loss.data)), 1.0)
        for parameter in multi.parameters():
            analytic = parameter.grad
            numeric = self._numeric_gradient(loss_fn, parameter)
            assert np.allclose(analytic / scale, numeric / scale,
                               rtol=rtol, atol=atol), (
                f"gradient mismatch for {parameter.name}")

    def test_stacked_edp_loss_with_penalty(self):
        from repro.autodiff import ops

        multi, _, repeats = _random_starts(5, num_starts=2)

        def loss_fn():
            terms = DenseTerms(multi)
            hardware = DifferentiableModel.derive_hardware(multi, terms=terms)
            performances = DifferentiableModel.evaluate_network(multi, hardware,
                                                                terms=terms)
            per_start = (network_edp_loss(performances, repeats)
                         + 1e6 * validity_penalty(multi, terms=terms))
            return ops.fold_sum(per_start)

        self._check(multi, loss_fn)

    def test_stacked_softmax_ordering_loss(self):
        from repro.autodiff import ops

        multi, _, repeats = _random_starts(9, num_starts=2)

        def loss_fn():
            return ops.fold_sum(softmax_ordering_loss(multi, repeats))

        self._check(multi, loss_fn)


class TestEndToEndOutcome:
    @pytest.mark.parametrize("strategy", list(LoopOrderingStrategy))
    def test_seeded_outcomes_match_sequential_path(self, strategy):
        """Same seed => same best design, batched starts vs one at a time."""
        settings = DosaSettings(num_start_points=2, gd_steps=24,
                                rounding_period=8, seed=0,
                                ordering_strategy=strategy)
        batched = repro.optimize("bert", strategy="dosa", settings=settings)
        sequential = sequential_search("bert", settings)
        assert batched.best_hardware == sequential.best_hardware
        for ours, theirs in zip(batched.best_mappings, sequential.best_mappings):
            np.testing.assert_array_equal(ours.temporal, theirs.temporal)
            np.testing.assert_array_equal(ours.spatial, theirs.spatial)
            assert ours.orderings == theirs.orderings
        assert batched.best_edp == sequential.best_edp
        assert batched.total_samples == sequential.total_samples
        # Same candidate designs are discovered; only the discovery order
        # (grouped by rounding point vs by start point) may differ.
        assert len(batched.candidates) == len(sequential.candidates)
        assert (sorted(candidate.edp for candidate in batched.candidates)
                == sorted(candidate.edp for candidate in sequential.candidates))


class TestBatchedRoundingWalk:
    """The vectorized rounding point against the scalar per-start walk."""

    def test_rounded_mapping_sets_match_per_start_walks(self):
        multi, _, _ = _random_starts(5)
        batched_sets = multi.rounded_mapping_sets(max_spatial=16)
        for start, rounded_set in enumerate(batched_sets):
            reference = rounded_mappings_of(multi, start, max_spatial=16)
            for ours, theirs in zip(rounded_set, reference):
                np.testing.assert_array_equal(ours.temporal, theirs.temporal)
                np.testing.assert_array_equal(ours.spatial, theirs.spatial)
                assert ours.orderings == theirs.orderings

    def test_rounded_mapping_sets_selects_starts(self):
        multi, _, _ = _random_starts(6)
        subset = multi.rounded_mapping_sets(starts=[2, 0], max_spatial=16)
        assert len(subset) == 2
        for rounded_set, start in zip(subset, (2, 0)):
            reference = rounded_mappings_of(multi, start, max_spatial=16)
            for ours, theirs in zip(rounded_set, reference):
                np.testing.assert_array_equal(ours.temporal, theirs.temporal)
        with pytest.raises(ValueError):
            multi.rounded_mapping_sets(starts=[NUM_STARTS])

    def test_batched_reselection_matches_per_start(self):
        """One (3, S, L) ordering pass decides exactly like S per-layer scans."""
        multi, _, _ = _random_starts(9)
        rounded_sets = multi.rounded_mapping_sets(max_spatial=16)
        batched = best_ordering_per_layer(
            MultiStartFactors.from_mapping_sets(rounded_sets))
        per_start = [
            best_ordering_per_layer(MultiStartFactors.from_mapping_sets([rounded]))[0]
            for rounded in rounded_sets
        ]
        assert batched == per_start
        per_layer_scans = [
            oracle.best_ordering_per_layer(
                [oracle.LayerFactors.from_mapping(m) for m in rounded])
            for rounded in rounded_sets
        ]
        assert batched == per_layer_scans

    @pytest.mark.parametrize("strategy", list(LoopOrderingStrategy))
    @pytest.mark.parametrize("batched_starts", [False, True])
    def test_seeded_outcomes_match_scalar_walk(self, strategy, batched_starts,
                                               monkeypatch):
        """Same seed => design-identical outcome, kernel walk vs scalar walk.

        ``batched_starts`` picks the schedule: all starts in one stack, or
        one S=1 stack per start (the oracle schedule).
        """
        settings = DosaSettings(num_start_points=2, gd_steps=24,
                                rounding_period=8, seed=0,
                                ordering_strategy=strategy)

        def search():
            if batched_starts:
                return repro.optimize("bert", strategy="dosa", settings=settings)
            return sequential_search("bert", settings)

        batched = search()
        monkeypatch.setattr(MultiStartFactors, "rounded_mapping_sets",
                            scalar_rounded_mapping_sets)
        scalar = search()
        assert batched.best_hardware == scalar.best_hardware
        for ours, theirs in zip(batched.best_mappings, scalar.best_mappings):
            np.testing.assert_array_equal(ours.temporal, theirs.temporal)
            np.testing.assert_array_equal(ours.spatial, theirs.spatial)
            assert ours.orderings == theirs.orderings
        assert batched.best_edp == scalar.best_edp
        assert batched.total_samples == scalar.total_samples
        # The walk changes no scheduling, only its implementation: under the
        # same schedule the candidate *order* is identical too.
        assert ([candidate.edp for candidate in batched.candidates]
                == [candidate.edp for candidate in scalar.candidates])
