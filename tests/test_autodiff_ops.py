"""Tests for the functional ops library and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, check_gradients, ops

from oracles.layer_model import total_sum


class TestElementwise:
    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(ops.log(ops.exp(x)).data, x.data)

    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(ops.relu(x).data, [0.0, 0.0, 2.0])

    def test_sigmoid_range(self):
        x = Tensor(np.linspace(-5, 5, 11))
        y = ops.sigmoid(x).data
        assert np.all((y > 0) & (y < 1))

    def test_maximum_minimum(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        assert np.allclose(ops.maximum(a, b).data, [3.0, 5.0])
        assert np.allclose(ops.minimum(a, b).data, [1.0, 2.0])

    def test_where(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([10.0, 20.0])
        out = ops.where(np.array([True, False]), a, b)
        assert np.allclose(out.data, [1.0, 20.0])

    def test_hinge_below(self):
        x = Tensor([0.5, 2.0, 0.9])
        assert ops.hinge_below([x], 1.0).sum().item() == pytest.approx(0.5 + 0.1)

    def test_hinge_below_matches_stacked_relu_chain_bitwise(self):
        rng = np.random.default_rng(5)
        data = [rng.uniform(-1.0, 3.0, size=(2, 3)) for _ in range(4)]
        data[0][0, 0] = 1.0  # a hinge exactly at its kink
        seed = rng.normal(size=(2, 3, 4))
        fused_in = [Tensor(d.copy(), requires_grad=True) for d in data]
        chain_in = [Tensor(d.copy(), requires_grad=True) for d in data]
        fused = ops.hinge_below(fused_in + [2.0 * np.ones((2, 3))], 1.0)[..., :4]
        chained = ops.transpose(
            ops.stack([ops.relu(1.0 - t) for t in chain_in]), (1, 2, 0))
        assert fused.shape == (2, 3, 4)
        assert np.array_equal(fused.data, chained.data)
        fused.backward(seed)
        chained.backward(seed)
        for a, b in zip(fused_in, chain_in):
            assert a.grad.tobytes() == b.grad.tobytes()


class TestReductionsAndCombos:
    def test_total_sum_and_prod(self):
        values = [Tensor(2.0), Tensor(3.0), 4.0]
        assert total_sum(values).item() == pytest.approx(9.0)
        assert ops.total_prod(values).item() == pytest.approx(24.0)

    def test_total_prod_empty_is_one(self):
        assert ops.total_prod([]).item() == pytest.approx(1.0)

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

    def test_exp_log_grad(self):
        self._check(lambda t: (ops.exp(t[0]) + ops.log(t[0])).sum(), (4,))

    def test_sqrt_grad(self):
        self._check(lambda t: ops.sqrt(t[0]).sum(), (4,))

    def test_sigmoid_tanh_grad(self):
        self._check(lambda t: (ops.sigmoid(t[0]) * ops.tanh(t[0])).sum(), (5,))

    def test_maximum_grad(self):
        self._check(lambda t: ops.maximum(t[0], t[1]).sum(), (4,), (4,))

    def test_softmax_grad(self):
        self._check(lambda t: (ops.softmax(t[0]) * Tensor([1.0, 2.0, 3.0, 4.0])).sum(), (4,))

    def test_stack_grad(self):
        def build(t):
            return (ops.stack([t[0], t[0] * 2.0]) ** 2).sum()

        self._check(build, (3,))

    def test_where_grad(self):
        cond = np.array([True, False, True])

        def build(t):
            return ops.where(cond, t[0] * 2.0, t[1] * 3.0).sum()

        self._check(build, (3,), (3,))

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
