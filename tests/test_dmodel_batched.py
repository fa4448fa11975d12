"""Parity of one network's stacked factors with the per-layer oracle model.

An S=1 :class:`MultiStartFactors` evaluates every layer of one start point in
one array-op graph.  Its loss values must be *bit-identical* to the per-layer
oracle (``tests/oracles/layer_model.py``), and per-parameter gradients must
agree to tight tolerance (they differ only in floating-point accumulation
order).
"""

import numpy as np
import pytest

import repro
from repro.arch import HardwareConfig
from repro.arch.components import MEMORY_LEVEL_INDICES
from repro.autodiff import Tape, Tensor
from repro.autodiff import ops
from repro.core.dmodel import (
    DenseTerms,
    DifferentiableModel,
    MultiStartFactors,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)
from repro.core.optimizer import DosaSearcher, DosaSettings
from repro.core.optimizer.dosa import LoopOrderingStrategy
from repro.eval.cache import EvaluationCache
from repro.mapping import cosa_mapping
from repro.mapping.mapping import LoopOrdering
from repro.workloads import conv2d_layer, get_network, matmul_layer

from oracles import layer_model as oracle
from oracles.layer_model import LayerFactors, LayerModel, stack_of
from oracles.rounding import snapshot_mappings

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONFIG = HardwareConfig(8, 16, 64)


def _random_start(seed: int):
    """Per-layer oracle factors + the equivalent S=1 stack on random offsets."""
    layers = [
        conv2d_layer(16, 32, 14, name="conv"),
        matmul_layer(28, 64, 32, name="matmul"),
        conv2d_layer(3, 16, 28, stride=2, name="strided"),
    ]
    rng = np.random.default_rng(seed)
    per_layer = [LayerFactors.from_mapping(cosa_mapping(l, CONFIG)) for l in layers]
    for factors in per_layer:
        factors.log_temporal.data = factors.log_temporal.data + rng.uniform(
            0.05, 0.3, factors.log_temporal.data.shape)
        factors.log_spatial.data = factors.log_spatial.data + rng.uniform(
            0.05, 0.3, factors.log_spatial.data.shape)
    return per_layer, stack_of(per_layer), [1, 2, 3]


def _grad_stacks(per_layer):
    temporal = np.stack([
        f.log_temporal.grad if f.log_temporal.grad is not None
        else np.zeros_like(f.log_temporal.data) for f in per_layer])
    spatial = np.stack([
        f.log_spatial.grad if f.log_spatial.grad is not None
        else np.zeros_like(f.log_spatial.data) for f in per_layer])
    return temporal, spatial


def _assert_grads_close(batched, per_layer_stack, label):
    scale = max(np.abs(per_layer_stack).max(), 1e-30)
    np.testing.assert_allclose(batched / scale, per_layer_stack / scale,
                               rtol=0.0, atol=1e-9, err_msg=label)


class TestLossParity:
    @pytest.mark.parametrize("strategy", list(LoopOrderingStrategy))
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_searcher_loss_and_gradients_match(self, strategy, seed):
        """DosaSearcher._loss parity across every ordering strategy."""
        per_layer, batched, repeats = _random_start(seed)
        searcher = DosaSearcher(
            get_network("bert"),
            settings=DosaSettings(ordering_strategy=strategy, seed=0))
        searcher._repeats = repeats

        loss_per_layer = oracle.search_loss(searcher.settings, per_layer, repeats)
        loss_per_layer.backward()
        loss_batched = searcher._loss(batched)
        loss_batched.backward()

        assert float(loss_batched.data) == float(loss_per_layer.data)
        temporal, spatial = _grad_stacks(per_layer)
        _assert_grads_close(batched.log_temporal.grad[0], temporal,
                            f"temporal grads ({strategy.value}, seed {seed})")
        _assert_grads_close(batched.log_spatial.grad[0], spatial,
                            f"spatial grads ({strategy.value}, seed {seed})")

    def test_component_losses_bitwise_equal(self):
        per_layer, batched, repeats = _random_start(5)
        hardware = LayerModel.derive_hardware(per_layer)
        performances = LayerModel.evaluate_network(per_layer, hardware)

        hardware_batched = DifferentiableModel.derive_hardware(batched)
        batched_perf = DifferentiableModel.evaluate_network(batched, hardware_batched)

        # The derived Table-2 costs, level by level.
        assert hardware_batched.action_energies.data[0].item() == hardware.mac_energy
        for level in MEMORY_LEVEL_INDICES:
            assert (hardware_batched.bandwidths.data[level].item()
                    == float(Tensor.as_tensor(hardware.bandwidth(level)).data)), level
            assert (hardware_batched.action_energies.data[1 + level].item()
                    == float(Tensor.as_tensor(hardware.energy_per_access(level)).data)), level
        for index, perf in enumerate(performances):
            assert float(batched_perf.latency.data[0, index]) == float(perf.latency.data)
            assert float(batched_perf.energy.data[0, index]) == float(perf.energy.data)
        assert (network_edp_loss(batched_perf, repeats).data.item()
                == float(oracle.network_edp_loss(performances, repeats).data))
        assert (validity_penalty(batched).data.item()
                == float(oracle.validity_penalty(per_layer).data))
        assert (softmax_ordering_loss(batched, repeats).data.item()
                == float(oracle.softmax_ordering_loss(per_layer, repeats).data))


class TestNetworkFactors:
    """One network's factors as an S=1 stack, against the per-layer oracle."""

    def test_round_trip_through_mappings(self):
        per_layer, batched, _ = _random_start(11)
        snapshots = snapshot_mappings(batched, 0)
        for factors, mapping in zip(per_layer, snapshots):
            reference = factors.snapshot_mapping()
            np.testing.assert_array_equal(mapping.temporal, reference.temporal)
            np.testing.assert_array_equal(mapping.spatial, reference.spatial)
            assert mapping.orderings == reference.orderings

        [rounded] = batched.rounded_mapping_sets(max_spatial=16)
        reference_rounded = [f.rounded_mapping(max_spatial=16) for f in per_layer]
        for mapping, reference in zip(rounded, reference_rounded):
            np.testing.assert_array_equal(mapping.temporal, reference.temporal)
            np.testing.assert_array_equal(mapping.spatial, reference.spatial)

        batched.load_mapping_sets({0: rounded})
        for index, factors in enumerate(per_layer):
            factors.load_mapping(reference_rounded[index])
            np.testing.assert_array_equal(batched.log_temporal.data[0, index],
                                          factors.log_temporal.data)
            np.testing.assert_array_equal(batched.log_spatial.data[0, index],
                                          factors.log_spatial.data)

    def test_dim_mask_marks_padding_dims(self):
        _, batched, _ = _random_start(0)
        # Layer 1 is the matmul: R = S = Q = 1 are padding columns.
        from repro.workloads.layer import DIMENSIONS
        matmul_mask = dict(zip(DIMENSIONS, batched.dim_mask[0, 1]))
        assert not matmul_mask["R"] and not matmul_mask["S"] and not matmul_mask["Q"]
        assert matmul_mask["P"] and matmul_mask["C"] and matmul_mask["K"]
        # The convolution rows keep their spatial dims active.
        conv_mask = dict(zip(DIMENSIONS, batched.dim_mask[0, 0]))
        assert conv_mask["R"] and conv_mask["P"]

    def test_mismatched_shapes_rejected(self):
        layers = [conv2d_layer(4, 4, 4)]
        with pytest.raises(ValueError):
            MultiStartFactors(layers, num_starts=1, log_temporal=np.zeros((1, 2, 3, 7)))
        with pytest.raises(ValueError):
            MultiStartFactors([], num_starts=1)


class TestTapeResnapRegression:
    def test_tape_replay_equals_retrace_after_load_mappings(self):
        """Tape replay == re-traced backward across a rounding-point resnap."""
        _, batched, repeats = _random_start(3)

        def build():
            terms = DenseTerms(batched)
            hardware = DifferentiableModel.derive_hardware(batched, terms=terms)
            performances = DifferentiableModel.evaluate_network(
                batched, hardware, terms=terms)
            return ops.fold_sum(network_edp_loss(performances, repeats)
                                + 1e9 * validity_penalty(batched, terms=terms))

        tape = Tape(build)
        for phase in range(2):
            for _ in range(3):
                for parameter in batched.parameters():
                    parameter.zero_grad()
                loss = tape.forward()
                tape.backward()
                taped = (float(loss.data), batched.log_temporal.grad.copy(),
                         batched.log_spatial.grad.copy())

                for parameter in batched.parameters():
                    parameter.zero_grad()
                retraced = build()
                retraced.backward()
                assert taped[0] == float(retraced.data)
                np.testing.assert_array_equal(taped[1], batched.log_temporal.grad)
                np.testing.assert_array_equal(taped[2], batched.log_spatial.grad)

                # Nudge parameters as an optimizer step would.
                batched.log_temporal.data = batched.log_temporal.data - 1e-3
                batched.log_spatial.data = batched.log_spatial.data + 1e-3

            if phase == 0:
                # Rounding point: snap to valid mappings with *changed*
                # orderings, which invalidates the compiled walk order.
                rounded = [m.with_orderings([LoopOrdering.OUTPUT_STATIONARY] * 4)
                           for m in batched.rounded_mapping_sets(max_spatial=16)[0]]
                batched.load_mapping_sets({0: rounded})
                tape.invalidate()


class TestEndToEndOutcome:
    def test_shared_cache_across_searches(self):
        """A shared EvaluationCache changes nothing but the hit rate."""
        settings = DosaSettings(num_start_points=1, gd_steps=24,
                                rounding_period=8, seed=1)
        solo = repro.optimize("bert", strategy="dosa", settings=settings)

        cache = EvaluationCache()
        first = repro.optimize("bert", strategy="dosa", settings=settings,
                               cache=cache)
        misses_after_first = cache.stats.misses
        second = repro.optimize("bert", strategy="dosa", settings=settings,
                                cache=cache)
        assert first.best_edp == solo.best_edp
        assert second.best_edp == first.best_edp
        # The repeat run is served entirely from the shared cache.
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits > 0
