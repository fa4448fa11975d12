"""Tests for the autodiff Tensor: arithmetic, broadcasting, backward."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import Tensor, check_gradients, no_grad, ops
from repro.autodiff.tensor import _unbroadcast

from oracles.tail import fold_max

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def scalar(value, requires_grad=True):
    return Tensor(np.array(value, dtype=float), requires_grad=requires_grad)


class TestForward:
    def test_add_mul(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0])
        assert np.allclose((x + y).data, [4.0, 6.0])
        assert np.allclose((x * y).data, [3.0, 8.0])

    def test_scalar_broadcast(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose((x + 1.0).data, [[2, 3], [4, 5]])
        assert np.allclose((2.0 * x).data, [[2, 4], [6, 8]])

    def test_division_and_power(self):
        x = Tensor([2.0, 4.0])
        assert np.allclose((1.0 / x).data, [0.5, 0.25])
        assert np.allclose((x**2).data, [4.0, 16.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(a.matmul(b).data, a.data)

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_reductions(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum().item() == 10.0
        assert x.mean().item() == 2.5
        assert np.array_equal(x.sum(axis=0).data, [4.0, 6.0])
        assert np.array_equal(x.mean(axis=1).data, [1.5, 3.5])


class TestBackward:
    def test_simple_chain(self):
        x = scalar(3.0)
        y = (x * x + 2.0 * x + 1.0)
        y.backward()
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_shared_subexpression_accumulates(self):
        x = scalar(2.0)
        y = x * x
        z = y + y
        z.backward()
        assert x.grad == pytest.approx(8.0)

    def test_broadcast_gradient_shape(self):
        x = Tensor(np.ones((3, 1)), requires_grad=True)
        y = Tensor(np.ones((1, 4)), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad.shape == (3, 1)
        assert y.grad.shape == (1, 4)
        assert np.allclose(x.grad, 4.0)
        assert np.allclose(y.grad, 3.0)

    def test_unbroadcast_rejects_a_gradient_of_another_shape(self):
        """A mis-shaped gradient raises instead of being reshaped into place."""
        with pytest.raises(ValueError, match=r"\(4, 2, 3\).*\(2, 3, 4\)"):
            _unbroadcast(np.ones((4, 2, 3)), (2, 3, 4))
        assert _unbroadcast(np.ones((5, 2, 3)), (1, 3)).tolist() == [[10.0] * 3]

    def test_backward_requires_scalar_without_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_no_grad_suppresses_graph(self):
        with no_grad():
            x = Tensor([1.0], requires_grad=True)
            y = x * 2
        assert not y.requires_grad

    def test_zero_grad(self):
        x = scalar(1.0)
        (x * 3).backward()
        x.zero_grad()
        assert x.grad is None

    def test_gradcheck_polynomial(self):
        x = Tensor(np.array([1.5, -0.5, 2.0]), requires_grad=True)

        def func(inputs):
            (a,) = inputs
            return (a**3 - 2.0 * a + 1.0).sum()

        assert check_gradients(func, [x])

    def test_gradcheck_matmul(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(2, 4)), requires_grad=True)

        def func(inputs):
            x, y = inputs
            return x.matmul(y).sum()

        assert check_gradients(func, [a, b])

    def test_gradcheck_division_prod(self):
        x = Tensor(np.array([1.3, 2.7, 0.9]), requires_grad=True)
        y = Tensor(np.array([2.0, 0.5, 1.5]), requires_grad=True)

        def func(inputs):
            a, b = inputs
            quotient = a / b
            return quotient[0] * quotient[1] * quotient[2]

        assert check_gradients(func, [x, y])

    def test_gradcheck_indexing(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

        def func(inputs):
            (a,) = inputs
            return a[0] * a[2] + a[1]

        assert check_gradients(func, [x])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.5, max_value=5.0), min_size=2, max_size=6))
    def test_gradcheck_random_expressions(self, values):
        x = Tensor(np.array(values), requires_grad=True)

        def func(inputs):
            (a,) = inputs
            product = ops.sequence_prod(a.reshape(-1, 1), list(range(len(values))))
            return ((a * a).sum() / a.sum() + product ** 0.1).sum()

        assert check_gradients(func, [x], rtol=1e-3, atol=1e-5)


class TestLeafGradients:
    def test_max_splits_ties(self):
        x = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        fold_max(x).backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_gradient_accumulates_across_backwards(self):
        x = scalar(1.0)
        (x * 2).backward()
        (x * 3).backward()
        assert x.grad == pytest.approx(5.0)
