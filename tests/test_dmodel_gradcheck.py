"""Finite-difference verification of the full differentiable model's gradients.

The DOSA search rests entirely on the gradients of the EDP objective with
respect to the log tiling factors; these tests verify them end to end (through
capacities, traffic, roofline latency, capacity-dependent energy, the hardware
derivation and the Eq. 18 penalty) against central finite differences —
on the production model (S=1 :class:`MultiStartFactors` stacks) and on the
per-layer oracle that the parity tests trust (``tests/oracles``).
"""

import numpy as np

from repro.arch import HardwareConfig
from repro.core.dmodel import (
    DifferentiableHardware,
    DifferentiableModel,
    MultiStartFactors,
    network_edp_loss,
    softmax_ordering_loss,
    validity_penalty,
)
from repro.mapping import cosa_mapping
from repro.workloads import conv2d_layer, matmul_layer

from oracles import layer_model as oracle
from oracles.layer_model import LayerFactors, LayerModel, stack_of

CONFIG = HardwareConfig(8, 16, 64)


def _perturb_off_kinks(factors, seed: int = 0):
    """Nudge log-factors away from the model's non-smooth points.

    The model is piecewise smooth: factors exactly equal to 1 sit on the
    boundary of the loop-reuse structural rule, and exact ties inside the
    roofline max make one-sided finite differences meaningless.  Gradient
    checking is only well-defined on the smooth pieces, so the starting point
    is shifted strictly inside one.
    """
    rng = np.random.default_rng(seed)
    factors.log_temporal.data = factors.log_temporal.data + rng.uniform(
        0.07, 0.23, size=factors.log_temporal.data.shape)
    factors.log_spatial.data = factors.log_spatial.data + rng.uniform(
        0.07, 0.23, size=factors.log_spatial.data.shape)
    return factors


def _numeric_gradient(factors_list, loss_fn, parameter, eps=1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. ``parameter``."""
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


def _check_model_gradients(factors_list, loss_fn, rtol=2e-3, atol=1e-2):
    for factors in factors_list:
        for parameter in factors.parameters():
            parameter.zero_grad()
    loss = loss_fn()
    loss.backward()
    scale = max(abs(float(loss.data)), 1.0)
    for factors in factors_list:
        for parameter in factors.parameters():
            analytic = parameter.grad if parameter.grad is not None else np.zeros_like(parameter.data)
            numeric = _numeric_gradient(factors_list, loss_fn, parameter)
            # Gradients of EDP-scale quantities are huge; compare relative to
            # the loss magnitude so tolerances are meaningful.
            assert np.allclose(analytic / scale, numeric / scale, rtol=rtol, atol=atol), (
                f"gradient mismatch for {parameter.name}:\n{analytic}\nvs\n{numeric}")


class TestFullModelGradients:
    def test_fixed_hardware_layer_edp(self):
        factors = _perturb_off_kinks(MultiStartFactors.from_mapping_sets(
            [[cosa_mapping(conv2d_layer(16, 32, 14), CONFIG)]]), seed=1)
        hardware = DifferentiableHardware.from_config(CONFIG)

        def loss_fn():
            return DifferentiableModel.evaluate_layer(factors, hardware).edp.sum()

        _check_model_gradients([factors], loss_fn)

    def test_derived_hardware_network_edp_with_penalty(self):
        layers = [conv2d_layer(16, 32, 14), matmul_layer(28, 64, 32)]
        factors = [_perturb_off_kinks(LayerFactors.from_mapping(cosa_mapping(l, CONFIG)), seed=i)
                   for i, l in enumerate(layers)]

        def loss_fn():
            hardware = LayerModel.derive_hardware(factors)
            performances = LayerModel.evaluate_network(factors, hardware)
            return (oracle.network_edp_loss(performances, [1, 2])
                    + 1e6 * oracle.validity_penalty(factors))

        _check_model_gradients(factors, loss_fn)

    def test_softmax_ordering_loss_gradients(self):
        factors = [_perturb_off_kinks(LayerFactors.from_mapping(
            cosa_mapping(conv2d_layer(16, 32, 14), CONFIG)), seed=5)]

        def loss_fn():
            return oracle.softmax_ordering_loss(factors, [1])

        _check_model_gradients(factors, loss_fn)

    def test_batched_derived_hardware_network_edp_with_penalty(self):
        """Gradcheck the stacked model directly (S=1 stack leaves)."""
        layers = [conv2d_layer(16, 32, 14), matmul_layer(28, 64, 32)]
        per_layer = [_perturb_off_kinks(LayerFactors.from_mapping(cosa_mapping(l, CONFIG)),
                                        seed=i) for i, l in enumerate(layers)]
        factors = stack_of(per_layer)

        def loss_fn():
            grid = factors.factor_grid()
            hardware = DifferentiableModel.derive_hardware(factors, grid=grid)
            performances = DifferentiableModel.evaluate_network(factors, hardware,
                                                                grid=grid)
            return (network_edp_loss(performances, [1, 2])
                    + 1e6 * validity_penalty(factors, grid=grid)).sum()

        _check_model_gradients([factors], loss_fn)

    def test_batched_softmax_ordering_loss_gradients(self):
        per_layer = [_perturb_off_kinks(LayerFactors.from_mapping(
            cosa_mapping(conv2d_layer(16, 32, 14), CONFIG)), seed=5)]
        factors = stack_of(per_layer)

        def loss_fn():
            return softmax_ordering_loss(factors, [1]).sum()

        _check_model_gradients([factors], loss_fn)

    def test_penalty_gradient_pushes_factors_up(self):
        factors = MultiStartFactors.from_mapping_sets(
            [[cosa_mapping(conv2d_layer(16, 32, 14), CONFIG)]])
        # Push an inner factor so far up that the inferred DRAM factor drops
        # below one; the penalty gradient must then *reduce* that factor.
        factors.log_temporal.data[0, 0, 0, 3] += 4.0  # Q at the register level
        penalty = validity_penalty(factors).sum()
        assert float(penalty.data) > 0
        penalty.backward()
        assert factors.log_temporal.grad[0, 0, 0, 3] > 0  # descent will decrease it
