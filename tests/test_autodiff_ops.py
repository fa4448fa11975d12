"""Tests for the functional ops library and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, check_gradients, ops

from oracles.layer_model import total_sum

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestElementwise:
    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(np.log(ops.exp(x).data), x.data)

    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(ops.relu(x).data, [0.0, 0.0, 2.0])

    def test_maximum(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        assert np.allclose(ops.maximum(a, b).data, [3.0, 5.0])


class TestReductionsAndCombos:
    def test_total_sum(self):
        values = [Tensor(2.0), Tensor(3.0), 4.0]
        assert float(total_sum(values).data) == pytest.approx(9.0)

    def test_total_sum_empty_raises(self):
        with pytest.raises(ValueError):
            total_sum([])

    def test_stack_shapes(self):
        out = ops.stack([Tensor(1.0), Tensor(2.0), Tensor(3.0)])
        assert out.shape == (3,)
        assert np.allclose(out.data, [1, 2, 3])

    def test_concat(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0])
        assert np.allclose(ops.concat([a, b]).data, [1, 2, 3])

    def test_softmax_sums_to_one(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert ops.softmax(x).data.sum() == pytest.approx(1.0)

    def test_softmax_is_shift_invariant(self):
        x = Tensor([1.0, 2.0, 3.0])
        y = Tensor([1001.0, 1002.0, 1003.0])
        assert np.allclose(ops.softmax(x).data, ops.softmax(y).data)


class TestGradients:
    def _check(self, build, *shapes, low=0.5, high=2.0):
        rng = np.random.default_rng(0)
        inputs = [Tensor(rng.uniform(low, high, size=s), requires_grad=True) for s in shapes]
        assert check_gradients(build, inputs, rtol=1e-3, atol=1e-5)

    def test_exp_grad(self):
        self._check(lambda t: (ops.exp(t[0]) * t[0]).sum(), (4,))

    def test_sqrt_grad(self):
        """A float exponent, as the PE array's side ``num_pes ** 0.5``."""
        self._check(lambda t: (t[0] ** 0.5).sum(), (4,))

    def test_maximum_grad(self):
        self._check(lambda t: ops.maximum(t[0], t[1]).sum(), (4,), (4,))

    def test_softmax_grad(self):
        self._check(lambda t: (ops.softmax(t[0]) * Tensor([1.0, 2.0, 3.0, 4.0])).sum(), (4,))

    def test_stack_grad(self):
        def build(t):
            return (ops.stack([t[0], t[0] * 2.0]) ** 2).sum()

        self._check(build, (3,))

    def test_transpose_negative_axes_grad(self):
        """Negative axes are normalized before the backward inverts them."""
        data = np.arange(24.0).reshape(2, 3, 4)
        x = Tensor(data, requires_grad=True)
        out = ops.transpose(x, (-1, 0, 1))
        assert out.shape == (4, 2, 3)
        seed = np.linspace(-1.0, 1.0, 24).reshape(4, 2, 3)
        out.backward(seed)
        assert np.array_equal(x.grad, np.transpose(seed, (1, 2, 0)))

    def test_relu_grad_away_from_kink(self):
        x = Tensor(np.array([0.7, 1.9, 3.0]), requires_grad=True)
        assert check_gradients(lambda t: ops.relu(t[0] - 1.0).sum(), [x])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=6))
    def test_softmax_weighting_grad(self, n):
        rng = np.random.default_rng(n)
        energies = Tensor(rng.uniform(1.0, 4.0, size=n), requires_grad=True)
        latencies = Tensor(rng.uniform(1.0, 4.0, size=n), requires_grad=True)

        def build(t):
            e, l = t
            weights = ops.softmax(1.0 / (e * l))
            return (weights * e).sum() * (weights * l).sum()

        assert check_gradients(build, [energies, latencies], rtol=1e-3, atol=1e-5)
