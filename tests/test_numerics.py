import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnmt.errors import ConfigError, DimensionError, NumericError
from msnmt.numerics import (Parameter, concat, ewise, ewise_backward,
                            finite_difference_grad, matmul, matmul_backward,
                            softmax, softmax_backward, split)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_hand_arithmetic(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.allclose(matmul(a, b), expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.uniform(-1, 1, (4, 4)) for _ in range(3))
        assert np.allclose(matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-10)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = Parameter("a", rng.uniform(-1, 1, (3, 4)))
        b = Parameter("b", rng.uniform(-1, 1, (4, 2)))
        w = rng.uniform(-1, 1, (3, 2))

        def loss():
            return float(np.sum(matmul(a.value, b.value) * w))

        da, db = matmul_backward(w, a.value, b.value)
        fd = finite_difference_grad(loss, [a, b])
        assert np.allclose(da, fd["a"], rtol=1e-6, atol=1e-8)
        assert np.allclose(db, fd["b"], rtol=1e-6, atol=1e-8)


class TestEwise:
    def test_tanh_zero(self):
        assert np.array_equal(ewise("tanh", np.zeros(5)), np.zeros(5))

    def test_sigmoid_zero(self):
        assert np.array_equal(ewise("sigmoid", np.zeros(5)), np.full(5, 0.5))

    def test_mul_hand(self):
        assert np.allclose(ewise("mul", np.array([0.2]), np.array([0.3])), [0.06])

    def test_binary_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ewise("add", np.zeros(3), np.zeros(4))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ewise("div", np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_unary_backward_vs_fd(self, kind):
        rng = np.random.default_rng(5)
        x = Parameter("x", rng.uniform(-1, 1, 6))
        w = rng.uniform(-1, 1, 6)
        out = ewise(kind, x.value)
        (dx,) = ewise_backward(kind, w, out=out)
        fd = finite_difference_grad(lambda: float(np.sum(ewise(kind, x.value) * w)), [x])
        assert np.allclose(dx, fd["x"], rtol=1e-6, atol=1e-8)

    def test_mul_backward(self):
        a = np.array([2.0, 3.0])
        b = np.array([5.0, 7.0])
        da, db = ewise_backward("mul", np.ones(2), a=a, b=b)
        assert np.array_equal(da, b)
        assert np.array_equal(db, a)


class TestConcat:
    def test_appends_in_order(self):
        out = concat([np.array([[1.0, 2.0]]), np.array([[3.0]])])
        assert np.array_equal(out, [[1.0, 2.0, 3.0]])

    def test_single_part_identity(self):
        x = np.array([[1.0, 2.0]])
        assert np.array_equal(concat([x]), x)

    def test_three_segments(self):
        parts = [np.arange(4.0).reshape(1, 4) + 10 * k for k in range(3)]
        out = concat(parts)
        assert out.shape == (1, 12)
        for k, p in enumerate(parts):
            assert np.array_equal(out[:, 4 * k:4 * (k + 1)], p)

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError):
            concat([])

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_concat_split_round_trip(self, widths):
        rng = np.random.default_rng(sum(widths))
        parts = [rng.standard_normal((2, w)) for w in widths]
        back = split(concat(parts), widths)
        for p, q in zip(parts, back):
            assert np.array_equal(p, q)


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25, atol=1e-15)

    def test_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999 and out[1] < 1e-6

    def test_matches_direct_formula(self):
        v = np.array([1.0, 2.0, 3.0])
        direct = np.exp(v) / np.sum(np.exp(v))
        assert np.allclose(softmax(v), direct, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(-10, 10, rng.integers(1, 12))
            assert abs(softmax(v).sum() - 1.0) <= 1e-12

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-3, 3, 7)
        perm = rng.permutation(7)
        assert np.allclose(softmax(v)[perm], softmax(v[perm]), atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            softmax(np.array([]))

    def test_backward_vs_fd(self):
        rng = np.random.default_rng(9)
        x = Parameter("x", rng.uniform(-1, 1, 5))
        w = rng.uniform(-1, 1, 5)
        out = softmax(x.value)
        dx = softmax_backward(w, out)
        fd = finite_difference_grad(lambda: float(softmax(x.value) @ w), [x])
        assert np.allclose(dx, fd["x"], rtol=1e-5, atol=1e-9)


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


class TestParameter:
    def test_grad_starts_zero_and_zeroes(self):
        p = Parameter("p", np.ones((2, 2)))
        assert np.array_equal(p.grad, np.zeros((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert np.array_equal(p.grad, np.zeros((2, 2)))

    def test_grad_allocated_on_first_read(self):
        p = Parameter("p", np.ones((2, 3), dtype=np.float32))
        p.zero_grad()
        assert "grad" not in vars(p)
        assert p.grad.dtype == np.float32 and np.array_equal(p.grad, np.zeros((2, 3)))
        p.grad += 1.0
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_grad_shape_enforced(self):
        with pytest.raises(DimensionError):
            Parameter("p", np.ones(3), grad=np.zeros(4))
