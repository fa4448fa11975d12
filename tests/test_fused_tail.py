"""The fused loss tail equals the chain of nodes it replaced, bit for bit.

Everything the DOSA loss computes after the traffic terms (hardware
derivation, Table 2, roofline latency, energy, the Equation-14 EDP, the
Equation-18 penalty) runs as a few fused kernels whose forwards and
backwards repeat the IEEE operations of the chain in ``tests/oracles/tail.py``
in its order.  Along the digest test's seeded DOSA runs (3 start points, 40
gradient steps, rounding every 15 steps) for resnet50, bert and gpt2_decoder
under every loop-ordering strategy, and along one run whose sample budget
freezes starts, every step's replayed loss and both parameter gradients equal
the chain's on a copy of the same parameters and orderings as ``tobytes()``,
so a ``-0.0`` that should be ``0.0`` fails.  The derived Table-2 costs and
the layers' latencies and energies are compared the same way at the first
step of every run.
"""

from __future__ import annotations

from unittest import mock

import pytest

import repro
from repro.core.dmodel import DenseTerms, DifferentiableModel, MultiStartFactors
from repro.core.dmodel.hardware import ARRAY_SIDE_ROW
from repro.core.optimizer import dosa
from repro.search.api import SearchBudget

from oracles import tail

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _copy(factors: MultiStartFactors) -> MultiStartFactors:
    return MultiStartFactors(factors.layers, factors.num_starts,
                             factors.log_temporal.data.copy(),
                             factors.log_spatial.data.copy(),
                             factors.start_orderings)


def _assert_components_match(factors: MultiStartFactors) -> None:
    """The fused hardware tables, latencies and energies equal the chain's."""
    terms = DenseTerms(factors)
    hardware = DifferentiableModel.derive_hardware(factors, terms)
    performance = DifferentiableModel.evaluate_layer(factors, hardware, terms)
    chain_terms = tail.ChainTerms(factors)
    chain_hardware = tail.derive_hardware(factors, chain_terms)
    chain = tail.evaluate_layer(factors, chain_hardware, chain_terms)
    assert (hardware.bandwidths.data[:ARRAY_SIDE_ROW].tobytes()
            == chain_hardware.level_bandwidths.data.tobytes())
    assert hardware.action_energies.data.tobytes() == chain_hardware.action_energies.data.tobytes()
    assert performance.latency.data.tobytes() == chain.latency.data.tobytes()
    assert performance.energy.data.tobytes() == chain.energy.data.tobytes()


def _check_descent(network: str, strategy: str, budget=None) -> tuple[int, list]:
    """Run one seeded descent, checking every step; returns the number of
    steps checked and the start masks of the traces."""
    settings = dosa.DosaSettings(seed=0, num_start_points=3, gd_steps=40,
                                 rounding_period=15, ordering_strategy=strategy)
    repeats = [layer.repeats for layer in repro.workloads.get_network(network).layers]
    stacks: list = []
    masks: list = []
    losses: list = []
    checked = [0]
    stack = dosa.stack_start_points
    trace_loss = dosa.DosaSearcher._loss

    def stack_start_points(points):
        stacks.append(stack(points))
        return stacks[-1]

    def recording_loss(self, factors, active=None):
        # Called once per trace; a mask change always re-traces.
        masks.append(None if active is None else active.copy())
        return trace_loss(self, factors, active)

    class RecordingTape(dosa.Tape):
        def forward(self):
            loss = super().forward()
            losses.append(loss.data.tobytes())
            return loss

    class CheckingAdam(dosa.Adam):
        def step(self):
            factors = stacks[-1]
            if checked[0] == 0:
                _assert_components_match(_copy(factors))
            copy = _copy(factors)
            chain = tail.search_loss(settings, copy, repeats, masks[-1])
            chain.backward()
            step = checked[0]
            assert chain.data.tobytes() == losses[-1], f"loss, step {step}"
            for name in ("log_temporal", "log_spatial"):
                assert (getattr(copy, name).grad.tobytes()
                        == getattr(factors, name).grad.tobytes()), f"{name}, step {step}"
            checked[0] += 1
            super().step()

    with mock.patch.object(dosa, "stack_start_points", stack_start_points), \
            mock.patch.object(dosa.DosaSearcher, "_loss", recording_loss), \
            mock.patch.object(dosa, "Tape", RecordingTape), \
            mock.patch.object(dosa, "Adam", CheckingAdam):
        repro.optimize(network=network, strategy="dosa", settings=settings, budget=budget)
    return checked[0], masks


@pytest.mark.parametrize("strategy", ["baseline", "iterate", "softmax"])
@pytest.mark.parametrize("network", ["resnet50", "bert", "gpt2_decoder"])
def test_descent_matches_chain(network, strategy):
    steps, _ = _check_descent(network, strategy)
    assert steps == 40


def test_budget_frozen_starts_match_chain():
    """A binding sample budget freezes trailing starts: the masked loss and
    its gradients (exact zeros for frozen starts) match too."""
    steps, masks = _check_descent("bert", "iterate", SearchBudget(max_samples=100))
    assert 0 < steps < 40
    assert any(mask is not None and not mask.all() for mask in masks)
