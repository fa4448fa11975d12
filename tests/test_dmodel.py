"""Tests for the DOSA differentiable model (Equations 1-18).

The production model runs on :class:`MultiStartFactors`; one layer of one
start point is a 1x1 stack (:func:`_stack`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import (
    HardwareConfig,
    level_bandwidth,
    level_energy_per_access,
    random_hardware_config,
)
from repro.arch.components import LEVEL_ACCUMULATOR, PE_ENERGY_PER_MAC
from repro.autodiff import Adam, Tensor
from repro.core.dmodel.factors import TEMPORAL_ROW
from repro.core.dmodel.hardware import ARRAY_SIDE_ROW
from repro.core.dmodel import (
    DifferentiableHardware,
    DifferentiableModel,
    MultiStartFactors,
    best_ordering_per_layer,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)
from repro.mapping import LoopOrdering, cosa_mapping, random_mapping
from repro.timeloop import analyze_traffic, evaluate_mapping
from repro.workloads import conv2d_layer, matmul_layer
from repro.workloads.registry import correlation_layer_pool

from oracles.layer_model import LayerFactors, ordering_candidates
from oracles import tail
from oracles.rounding import snapshot_mappings
from oracles.tail import ChainHardware

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ORDERINGS = (LoopOrdering.WEIGHT_STATIONARY, LoopOrdering.INPUT_STATIONARY,
             LoopOrdering.OUTPUT_STATIONARY)


def _relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def _stack(*mappings) -> MultiStartFactors:
    """One start point over ``mappings`` (one per layer)."""
    return MultiStartFactors.from_mapping_sets([list(mappings)])


def derived_config(factors: MultiStartFactors) -> HardwareConfig:
    """The configuration a single start's derived hardware snaps to.

    The snap is the chain hardware's (``tests/oracles/tail.py``), whose
    Table-2 costs the production derivation must reproduce bit for bit.
    """
    chain = tail.derive_hardware(factors)
    production = DifferentiableModel.derive_hardware(factors)
    assert (production.bandwidths.data[:ARRAY_SIDE_ROW].tobytes()
            == chain.level_bandwidths.data.tobytes())
    assert production.action_energies.data.tobytes() == chain.action_energies.data.tobytes()
    return chain.to_config()


class TestDifferentiableHardware:
    def test_from_config_matches_table2(self):
        config = HardwareConfig(16, 32, 128)
        hardware = DifferentiableHardware.from_config(config)
        assert hardware.action_energies.data[0].item() == PE_ENERGY_PER_MAC
        for level in range(4):
            assert hardware.action_energies.data[1 + level].item() == level_energy_per_access(
                level, config.accumulator_kb, config.scratchpad_kb, config.num_pes)
            assert hardware.bandwidths.data[level].item() == level_bandwidth(
                level, config.num_pes)
        assert hardware.bandwidths.data[ARRAY_SIDE_ROW].item() == config.pe_dim

    def test_from_requirements_takes_max_side(self):
        """The derived tables are Table 2 at the largest side length and the
        largest accumulator and scratchpad tiles (1024 and 2048 words)."""
        hardware = DifferentiableHardware.from_requirements(
            Tensor(np.array([8.0, 32.0, 16.0])), np.array([[[0, 1, 2]]]),
            output_tile=Tensor(np.array([[512.0, 1024.0]])),
            tiles=Tensor(np.array([[[0.0, 0.0]], [[1536.0, 100.0]], [[512.0, 100.0]],
                                   [[512.0, 1024.0]]])),
            scratchpad_tiles=(1, 2))
        assert hardware.bandwidths.shape == (5, 1, 1)
        assert hardware.action_energies.shape == (5, 1, 1)
        assert hardware.bandwidths.data[ARRAY_SIDE_ROW].item() == 32.0
        for level in range(4):
            assert hardware.bandwidths.data[level].item() == level_bandwidth(level, 1024.0)
            assert hardware.action_energies.data[1 + level].item() == pytest.approx(
                level_energy_per_access(level, 4.0, 2.0, 1024.0), rel=1e-15)

    def test_to_config_rounds_up(self):
        hardware = ChainHardware(num_pes=200.0, accumulator_kb=3.2, scratchpad_kb=7.9)
        config = hardware.to_config()
        assert config.pe_dim == 15
        assert config.accumulator_kb == 4
        assert config.scratchpad_kb == 8

    def test_gradients_flow_through_epa(self):
        """The accumulator's energy per access hands the largest output tile a
        positive gradient, and the largest side length a negative one."""
        sides = Tensor(np.array([8.0, 16.0]), requires_grad=True)
        output_tile = Tensor(np.array([[256.0, 1024.0]]), requires_grad=True)
        hardware = DifferentiableHardware.from_requirements(
            sides, np.array([[[0, 1]]]), output_tile,
            Tensor(np.ones((4, 1, 2)), requires_grad=True), (1, 2))
        seed = np.zeros(hardware.action_energies.shape)
        seed[1 + LEVEL_ACCUMULATOR] = 1.0
        hardware.action_energies.backward(seed)
        assert output_tile.grad[0, 1] > 0 and output_tile.grad[0, 0] == 0
        assert sides.grad[1] < 0 and sides.grad[0] == 0


class TestLayerFactors:
    """One layer's factors, as a 1x1 stack."""

    def test_roundtrip_through_mapping(self):
        config = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), config)
        [snapshot] = snapshot_mappings(_stack(mapping), 0)
        assert np.allclose(snapshot.temporal, mapping.temporal, rtol=1e-9)
        assert np.allclose(snapshot.spatial, mapping.spatial, rtol=1e-9)

    def test_rounded_mapping_is_valid(self):
        from repro.mapping import validate_mapping

        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        factors = _stack(mapping)
        factors.log_temporal.data += 0.3  # perturb off the divisor lattice
        [[rounded]] = factors.rounded_mapping_sets(max_spatial=128)
        assert validate_mapping(rounded) == []

    def test_factor_tensor_infers_dram(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        factors = _stack(mapping)
        tensor = factors.factor_tensor().data[:, :, 0, 0]   # (2 * levels, dims)
        for index, dim in enumerate(("R", "S", "P", "Q", "C", "K", "N")):
            assert np.prod(tensor[:, index]) == pytest.approx(mapping.layer.dim(dim), rel=1e-9)
            for level in range(3):
                assert tensor[TEMPORAL_ROW + level, index] == pytest.approx(
                    mapping.temporal[level, index], rel=1e-9)

    def test_load_mapping_keeps_tensor_identity(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        factors = _stack(mapping)
        original_parameter = factors.log_temporal
        factors.load_mapping_sets({0: [mapping]})
        assert factors.log_temporal is original_parameter

    def test_with_orderings_shares_parameters(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        factors = _stack(mapping)
        view = factors.with_uniform_orderings(LoopOrdering.OUTPUT_STATIONARY)
        assert view.log_temporal is factors.log_temporal
        assert view.start_orderings[0][0][0] is LoopOrdering.OUTPUT_STATIONARY


class TestCorrelationWithReference:
    """The differentiable model must track the reference model closely (Fig. 4)."""

    def test_exact_match_on_valid_mapping_fixed_hardware(self):
        config = HardwareConfig(16, 32, 128)
        mapping = cosa_mapping(conv2d_layer(64, 64, 56), config)
        reference = evaluate_mapping(mapping, config)
        performance = DifferentiableModel.evaluate_layer(
            _stack(mapping), DifferentiableHardware.from_config(config))
        assert _relative_error(performance.latency.data.item(), reference.latency_cycles) < 1e-6
        assert _relative_error(performance.energy.data.item(), reference.energy) < 0.01

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_close_on_random_mappings_and_configs(self, seed):
        rng = np.random.default_rng(seed)
        pool = correlation_layer_pool()
        layer = pool[int(rng.integers(len(pool)))]
        config = random_hardware_config(seed=rng)
        mapping = random_mapping(layer, seed=rng, max_spatial=config.pe_dim)
        reference = evaluate_mapping(mapping, config)
        performance = DifferentiableModel.evaluate_layer(
            _stack(mapping), DifferentiableHardware.from_config(config))
        assert _relative_error(performance.latency.data.item(), reference.latency_cycles) < 0.02
        # Energy differs only through DRAM block rounding, small for real layers.
        assert _relative_error(performance.energy.data.item(), reference.energy) < 0.15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_traffic_parity_with_reference_walk(self, seed):
        """Per-level traffic parity on integral mappings (ceiling slack only).

        Property test for the first-relevant-loop / near-1-factor skip in
        ``DifferentiableModel.reload_factor``: on integral mappings with
        randomized loop orderings, every level's access count must agree with
        the reference walk in :func:`analyze_traffic` up to the reference
        path's ceiling semantics (integer tile extents), which only ever
        *increase* the reference counts and only slightly for real layers.
        """
        rng = np.random.default_rng(seed)
        pool = correlation_layer_pool()
        layer = pool[int(rng.integers(len(pool)))]
        mapping = random_mapping(layer, seed=rng, max_spatial=32)
        assert mapping.is_integral()

        reference = analyze_traffic(mapping)
        factors = _stack(mapping)
        accesses = DifferentiableModel.traffic(factors)

        for level, reference_accesses in reference.per_level_accesses().items():
            model_accesses = accesses.data[level].item()
            # Ceiling slack: the reference rounds tile extents up, so it may
            # exceed the smooth model, never meaningfully the other way.
            assert model_accesses <= reference_accesses * (1 + 1e-6), level
            assert _relative_error(model_accesses, reference_accesses) < 0.05, level


class TestGradients:
    def test_edp_gradient_nonzero_for_all_layers(self):
        config = HardwareConfig(16, 32, 128)
        layers = [conv2d_layer(64, 64, 28), matmul_layer(196, 256, 512)]
        factors = _stack(*(cosa_mapping(l, config) for l in layers))
        hardware = DifferentiableModel.derive_hardware(factors)
        performances = DifferentiableModel.evaluate_network(factors, hardware)
        loss = network_edp_loss(performances, [1, 1]).sum()
        loss.backward()
        assert factors.log_spatial.grad is not None
        for index in range(len(layers)):
            assert np.any(factors.log_temporal.grad[0, index] != 0.0)

    def test_descent_reduces_model_loss(self):
        config = HardwareConfig(8, 16, 64)
        layers = [conv2d_layer(64, 64, 28), matmul_layer(196, 256, 512)]
        factors = _stack(*(cosa_mapping(l, config) for l in layers))
        optimizer = Adam(factors.parameters(), lr=0.05)
        losses = []
        for _ in range(60):
            optimizer.zero_grad()
            hardware = DifferentiableModel.derive_hardware(factors)
            performances = DifferentiableModel.evaluate_network(factors, hardware)
            loss = (network_edp_loss(performances, [1, 1])
                    + 1e9 * validity_penalty(factors)).sum()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0] * 0.8

    def test_spatial_gradient_encourages_parallelism(self):
        # For a compute-bound layer, increasing the spatial factors lowers
        # latency, so the gradient of EDP w.r.t. log-spatial must be negative.
        config = HardwareConfig(4, 64, 256)
        factors = _stack(cosa_mapping(conv2d_layer(256, 256, 28), config))
        hardware = DifferentiableModel.derive_hardware(factors)
        performance = DifferentiableModel.evaluate_layer(factors, hardware)
        performance.edp.sum().backward()
        assert np.all(factors.log_spatial.grad < 0)


class TestPenaltyAndOrderings:
    def test_validity_penalty_zero_for_valid(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        penalty = validity_penalty(_stack(mapping))
        assert penalty.data.item() == pytest.approx(0.0, abs=1e-9)

    def test_validity_penalty_positive_when_overshooting(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        factors = _stack(mapping)
        # Inflate an inner factor beyond the problem size: the inferred DRAM
        # factor drops below 1 and the Eq. 18 penalty must fire.
        factors.log_temporal.data[0, 0, 0, :] += 3.0
        assert validity_penalty(factors).data.item() > 0.0

    def test_ordering_candidates_cover_ws_is_os(self):
        mapping = cosa_mapping(conv2d_layer(64, 64, 28), HardwareConfig(16, 32, 128))
        candidates = ordering_candidates(LayerFactors.from_mapping(mapping))
        assert [c.orderings[0].value for c in candidates] == ["WS", "IS", "OS"]

    def test_best_ordering_returns_one_per_layer(self):
        config = HardwareConfig(16, 32, 128)
        factors = _stack(*(cosa_mapping(l, config)
                           for l in (conv2d_layer(64, 64, 28), matmul_layer(64, 128, 256))))
        [selections] = best_ordering_per_layer(factors)
        assert len(selections) == 2
        assert all(isinstance(s, LoopOrdering) for s in selections)

    def test_softmax_loss_close_to_best_ordering_loss(self):
        config = HardwareConfig(16, 32, 128)
        factors = _stack(cosa_mapping(conv2d_layer(64, 64, 28), config))
        hardware = DifferentiableModel.derive_hardware(factors)
        soft = softmax_ordering_loss(factors, [1], hardware).data.item()
        per_ordering = []
        for ordering in ORDERINGS:
            perf = DifferentiableModel.evaluate_layer(
                factors.with_uniform_orderings(ordering), hardware)
            per_ordering.append(perf.edp.data.item())
        assert min(per_ordering) <= soft <= max(per_ordering) * 1.01

    def test_network_loss_requires_matching_repeats(self):
        config = HardwareConfig(16, 32, 128)
        factors = _stack(cosa_mapping(conv2d_layer(64, 64, 28), config))
        performances = DifferentiableModel.evaluate_network(factors)
        with pytest.raises(ValueError):
            network_edp_loss(performances, [1, 2])


class TestHardwareDerivation:
    def test_derived_hardware_supports_all_layers(self):
        config = HardwareConfig(16, 32, 128)
        layers = [conv2d_layer(64, 64, 56), matmul_layer(512, 768, 768)]
        factors = _stack(*(cosa_mapping(l, config) for l in layers))
        derived = derived_config(factors)
        from repro.mapping import mapping_fits_hardware

        for mapping in factors.rounded_mapping_sets()[0]:
            assert mapping_fits_hardware(mapping, derived)

    def test_derive_hardware_rejects_empty(self):
        with pytest.raises(ValueError):
            DifferentiableModel.derive_hardware(MultiStartFactors.from_mapping_sets([[]]))
