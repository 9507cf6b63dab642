import numpy as np
import pytest

from msnmt.errors import ConfigError, NumericError
from msnmt.numerics import Parameter, finite_difference_grad, log_softmax, sigmoid


class TestSoftmax:
    """log_softmax, the one softmax the model computes."""

    def test_uniform(self):
        assert np.allclose(np.exp(log_softmax(np.zeros(4))), 0.25, atol=1e-15)

    def test_no_overflow(self):
        out = log_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == -1000.0

    def test_matches_direct_formula(self):
        v = np.array([1.0, 2.0, 3.0])
        direct = v - np.log(np.sum(np.exp(v)))
        assert np.allclose(log_softmax(v), direct, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(-10, 10, rng.integers(1, 12))
            assert abs(np.exp(log_softmax(v)).sum() - 1.0) <= 1e-12

    def test_rows_independent(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-5, 5, (4, 6))
        out = log_softmax(m)
        for r in range(4):
            assert np.array_equal(out[r], log_softmax(m[r]))

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-3, 3, 7)
        perm = rng.permutation(7)
        assert np.allclose(log_softmax(v)[perm], log_softmax(v[perm]), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_softmax(np.array([]))

    def test_backward_vs_fd(self):
        # d/dx sum(w * log_softmax(x)) = w - softmax(x) * sum(w); with
        # w = -onehot(gold) this is the probs - onehot that backward uses
        rng = np.random.default_rng(9)
        x = Parameter("x", rng.uniform(-1, 1, 5))
        w = rng.uniform(-1, 1, 5)
        dx = w - np.exp(log_softmax(x.value)) * w.sum()
        fd = finite_difference_grad(lambda: float(log_softmax(x.value) @ w), [x])
        assert np.allclose(dx, fd["x"], rtol=1e-5, atol=1e-9)


class TestEwise:
    def test_sigmoid_zero(self):
        assert np.array_equal(sigmoid(np.zeros(5)), np.full(5, 0.5))


class TestFiniteDifference:
    def test_quadratic(self):
        theta = Parameter("theta", np.array([3.0]))
        fd = finite_difference_grad(lambda: float(theta.value[0] ** 2), [theta])
        assert abs(fd["theta"][0] - 6.0) < 1e-6

    def test_constant_loss(self):
        theta = Parameter("theta", np.array([1.0, -2.0]))
        fd = finite_difference_grad(lambda: 7.5, [theta])
        assert np.array_equal(fd["theta"], np.zeros(2))

    def test_nonfinite_loss_raises(self):
        theta = Parameter("theta", np.array([0.0]))
        with pytest.raises(NumericError):
            finite_difference_grad(lambda: float("nan"), [theta])

    def test_bad_epsilon(self):
        theta = Parameter("theta", np.array([0.0]))
        with pytest.raises(ConfigError):
            finite_difference_grad(lambda: 0.0, [theta], epsilon=0.0)
