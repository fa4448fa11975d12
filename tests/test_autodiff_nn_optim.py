"""Tests for the Adam optimizer and the neural-network layer library."""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, nn

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestAdam:
    def test_minimizes_rosenbrock_like(self):
        x = Tensor(np.array([-1.0, 1.5]), requires_grad=True)
        optimizer = Adam([x], lr=0.05)
        for _ in range(800):
            optimizer.zero_grad()
            a, b = x[0], x[1]
            loss = (1.0 - a) ** 2 + 10.0 * (b - a * a) ** 2
            loss.backward()
            optimizer.step()
        assert float(x.data[0]) == pytest.approx(1.0, abs=0.05)
        assert float(x.data[1]) == pytest.approx(1.0, abs=0.1)

    def test_skips_parameters_without_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x, y], lr=0.1)
        (x * 2).sum().backward()
        optimizer.step()
        assert float(y.data[0]) == 1.0
        assert float(x.data[0]) != 1.0

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_rejects_non_grad_parameters(self):
        with pytest.raises(ValueError, match="require grad"):
            Adam([Tensor([1.0])], lr=0.1)

    def test_rejects_empty_parameters(self):
        with pytest.raises(ValueError, match="no parameters"):
            Adam([], lr=0.1)


class TestLinearMLP:
    def test_linear_shapes(self):
        layer = nn.Linear(4, 3, seed=0)
        out = layer(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 3)

    def test_linear_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_mlp_parameter_count(self):
        model = nn.MLP(4, [8, 8], 1, seed=0)
        expected = 4 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1
        assert model.num_parameters() == expected

    def test_mlp_fits_linear_function(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(128, 3))
        targets = features @ np.array([1.0, -2.0, 0.5]) + 0.3
        model = nn.MLP(3, [16, 16], 1, seed=1)
        optimizer = Adam(model.parameters(), lr=1e-2)
        for _ in range(400):
            optimizer.zero_grad()
            predictions = model(Tensor(features)).reshape(-1)
            loss = nn.mse_loss(predictions, Tensor(targets))
            loss.backward()
            optimizer.step()
        assert float(loss.data) < 0.05


class TestLossesAndScaler:
    def test_mse_loss_zero_for_equal(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert float(nn.mse_loss(x, Tensor(np.array([1.0, 2.0]))).data) == 0.0

    def test_standard_scaler(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        scaler = nn.StandardScaler()
        transformed = scaler.fit_transform(data)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_requires_fit(self):
        with pytest.raises(RuntimeError):
            nn.StandardScaler().transform(np.zeros((2, 2)))
