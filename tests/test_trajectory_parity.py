"""Along seeded descents, the dense model's loss equals the per-layer oracle's.

The parity tests of ``test_dmodel_batched.py`` compare the two models at
start points and at random offsets from them; the descent itself, where
factors drift below 1 and halos go negative, is checked here.  For resnet50,
bert and gpt2_decoder under every loop-ordering strategy, the digest test's
seeded DOSA run (3 start points, 40 gradient steps, rounding every 15 steps)
descends as usual, and at every step:

* each start's loss from ``DosaSearcher._loss`` on an S=1 stack of its
  current parameters and orderings equals, with ``==``, the per-layer
  oracle's ``search_loss`` at the same point;
* the replayed three-start tape loss equals the left fold of those losses.

At the steps either side of each re-trace (the last replay before a
rounding point and the first trace after it), one start's gradients in the
three-start step (a different start from step to step) also match the
oracle's within the scaled 1e-9 tolerance of ``test_dmodel_batched.py``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from oracles import layer_model as oracle
from oracles.layer_model import LayerFactors

from test_dmodel_batched import _assert_grads_close

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ROUNDING_PERIOD = 15
GD_STEPS = 40
# The last replay before each rounding point and the first trace after it.
GRADIENT_STEPS = {ROUNDING_PERIOD * k + offset
                  for k in (1, 2) for offset in (-1, 0)}


def _oracle_factors(factors, start: int) -> list[LayerFactors]:
    """One start's current parameters and orderings as per-layer oracle factors."""
    return [LayerFactors(layer, factors.log_temporal.data[start, index].copy(),
                         factors.log_spatial.data[start, index].copy(),
                         factors.start_orderings[start][index])
            for index, layer in enumerate(factors.layers)]


@pytest.mark.parametrize("strategy", ["baseline", "iterate", "softmax"])
@pytest.mark.parametrize("network", ["resnet50", "bert", "gpt2_decoder"])
def test_descent_losses_match_oracle(network, strategy):
    import repro
    from repro.autodiff import no_grad
    from repro.core.dmodel import MultiStartFactors
    from repro.core.optimizer import dosa

    settings = dosa.DosaSettings(seed=0, num_start_points=3, gd_steps=GD_STEPS,
                                 rounding_period=ROUNDING_PERIOD,
                                 ordering_strategy=strategy)
    searcher = dosa.DosaSearcher(repro.workloads.get_network(network), settings)
    stacks: list = []
    checked = {"losses": 0, "gradients": 0}

    def stack_start_points(points):
        stacks.append(stack(points))
        return stacks[-1]

    stack = dosa.stack_start_points

    class CheckingTape(dosa.Tape):
        def forward(self):
            loss = super().forward()
            factors = stacks[-1]
            expected = []
            for start in range(factors.num_starts):
                single = MultiStartFactors(
                    factors.layers, 1, factors.log_temporal.data[start:start + 1],
                    factors.log_spatial.data[start:start + 1],
                    [factors.start_orderings[start]])
                with no_grad():
                    reference = float(oracle.search_loss(
                        settings, _oracle_factors(factors, start),
                        searcher._repeats).data)
                    assert float(searcher._loss(single).data) == reference, (
                        f"step {checked['losses']}, start {start}")
                expected.append(reference)
            assert float(loss.data) == np.cumsum(expected)[-1]
            checked["losses"] += 1
            return loss

    class CheckingAdam(dosa.Adam):
        def step(self):
            step = checked["losses"] - 1
            if step in GRADIENT_STEPS:
                factors = stacks[-1]
                start = step % factors.num_starts
                per_layer = _oracle_factors(factors, start)
                oracle.search_loss(settings, per_layer, searcher._repeats).backward()
                for name, parameter in (("log_temporal", factors.log_temporal),
                                        ("log_spatial", factors.log_spatial)):
                    reference = np.stack([getattr(f, name).grad for f in per_layer])
                    _assert_grads_close(parameter.grad[start], reference,
                                        f"{name}, step {step}, start {start}")
                checked["gradients"] += 1
            super().step()

    with mock.patch.object(dosa, "stack_start_points", stack_start_points), \
            mock.patch.object(dosa, "Tape", CheckingTape), \
            mock.patch.object(dosa, "Adam", CheckingAdam):
        repro.optimize(network=network, strategy="dosa", settings=settings)
    assert checked == {"losses": GD_STEPS, "gradients": len(GRADIENT_STEPS)}
