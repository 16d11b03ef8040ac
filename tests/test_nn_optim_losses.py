"""Tests for optimisers and Q-learning losses."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.losses import huber_loss, mse_loss, q_learning_loss
from repro.nn.optim import SGD


def quadratic_param(start=5.0):
    return Parameter("w", np.array([start]))


class TestSGD:
    def test_plain_step(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        p.grad[:] = 2.0
        opt.step()
        assert p.value[0] == pytest.approx(5.0 - 0.2)

    def test_momentum_accelerates(self):
        p_plain, p_mom = quadratic_param(), quadratic_param()
        plain = SGD([p_plain], lr=0.1)
        mom = SGD([p_mom], lr=0.1, momentum=0.9)
        for _ in range(5):
            p_plain.grad[:] = 1.0
            p_mom.grad[:] = 1.0
            plain.step()
            mom.step()
        assert p_mom.value[0] < p_plain.value[0]

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.grad[:] = 2 * p.value  # d/dw w^2
            opt.step()
        assert abs(p.value[0]) < 1e-6

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        p.grad[:] = 3.0
        opt.zero_grad()
        assert p.grad[0] == 0.0


class TestMSELoss:
    def test_zero_at_target(self):
        loss, grad = mse_loss(np.ones(4), np.ones(4))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_value(self):
        loss, _ = mse_loss(np.array([2.0]), np.array([0.0]))
        assert loss == pytest.approx(4.0)

    def test_gradient_numerical(self, rng):
        pred = rng.normal(size=6)
        target = rng.normal(size=6)
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        for i in range(6):
            bumped = pred.copy()
            bumped[i] += eps
            hi, _ = mse_loss(bumped, target)
            bumped[i] -= 2 * eps
            lo, _ = mse_loss(bumped, target)
            assert grad[i] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(4))


class TestHuberLoss:
    def test_quadratic_region_matches_half_mse(self):
        loss, _ = huber_loss(np.array([0.5]), np.array([0.0]), delta=1.0)
        assert loss == pytest.approx(0.125)

    def test_linear_region(self):
        loss, _ = huber_loss(np.array([10.0]), np.array([0.0]), delta=1.0)
        assert loss == pytest.approx(9.5)

    def test_gradient_bounded_by_delta(self, rng):
        pred = rng.normal(size=10) * 100
        _, grad = huber_loss(pred, np.zeros(10), delta=1.0)
        assert np.max(np.abs(grad)) <= 1.0 / 10 + 1e-12

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            huber_loss(np.ones(2), np.ones(2), delta=0.0)


class TestQLearningLoss:
    def test_only_taken_actions_get_gradient(self):
        q = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        actions = np.array([0, 2])
        targets = np.array([0.0, 0.0])
        _, grad = q_learning_loss(q, actions, targets)
        assert grad[0, 1] == 0.0 and grad[0, 2] == 0.0
        assert grad[1, 0] == 0.0 and grad[1, 1] == 0.0
        assert grad[0, 0] != 0.0 and grad[1, 2] != 0.0

    def test_zero_loss_when_q_equals_target(self):
        q = np.array([[1.0, 2.0]])
        loss, grad = q_learning_loss(q, np.array([1]), np.array([2.0]))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_huber_variant(self):
        q = np.array([[0.0, 100.0]])
        loss, _ = q_learning_loss(q, np.array([1]), np.array([0.0]), kind="huber")
        assert loss == pytest.approx(99.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            q_learning_loss(np.ones((1, 2)), np.array([0]), np.array([0.0]), kind="l1")

    def test_action_out_of_range(self):
        with pytest.raises(ValueError):
            q_learning_loss(np.ones((1, 2)), np.array([5]), np.array([0.0]))

    def test_wrong_shapes(self):
        with pytest.raises(ValueError):
            q_learning_loss(np.ones(3), np.array([0]), np.array([0.0]))
