import numpy as np
import pytest

from msnmt.combiner import (BasicCombinerParams, ChildSumCombinerParams,
                            basic_combine, basic_combine_backward,
                            childsum_combine, childsum_combine_backward,
                            combine_stacks)
from msnmt.numerics import Parameter, finite_difference_grad


def basic_params(d, rng=None, name="w_c"):
    val = np.zeros((d, 2 * d)) if rng is None else rng.uniform(-0.6, 0.6, (d, 2 * d))
    return BasicCombinerParams(w_c=Parameter(name, val))


def childsum_params(d, rng=None, prefix="cs"):
    names = ("w1_i", "w2_i", "w1_f", "w2_f", "w1_o", "w2_o", "w1_u", "w2_u")
    kw = {}
    for nm in names:
        val = np.zeros((d, d)) if rng is None else rng.uniform(-0.6, 0.6, (d, d))
        kw[nm] = Parameter(f"{prefix}.{nm}", val)
    return ChildSumCombinerParams(**kw)


def rand_state(rng, d, B=1):
    return rng.uniform(-1, 1, (B, d)), rng.uniform(-1, 1, (B, d))


class TestBasicCombine:
    def test_zero_weight_gives_zero_hidden_and_summed_cells(self):
        rng = np.random.default_rng(0)
        h1, c1 = rand_state(rng, 3)
        h2, c2 = rand_state(rng, 3)
        h, c, _ = basic_combine(h1, c1, h2, c2, basic_params(3))
        assert np.array_equal(h, np.zeros((1, 3)))
        assert np.allclose(c, c1 + c2, atol=1e-15)

    def test_cancellation(self):
        p = BasicCombinerParams(w_c=Parameter("w", np.array([[1.0, 1.0]])))
        h, _, _ = basic_combine(np.array([[0.5]]), np.zeros((1, 1)),
                                np.array([[-0.5]]), np.zeros((1, 1)), p)
        assert h[0, 0] == 0.0

    def test_cell_sum_hand(self):
        h, c, _ = basic_combine(np.zeros((1, 1)), np.array([[0.2]]),
                                np.zeros((1, 1)), np.array([[0.3]]), basic_params(1))
        assert np.allclose(c, [[0.5]], atol=1e-15)

    def test_cell_commutative_exactly(self):
        rng = np.random.default_rng(1)
        p = basic_params(4, rng)
        s1 = rand_state(rng, 4)
        s2 = rand_state(rng, 4)
        _, c_a, _ = basic_combine(*s1, *s2, p)
        _, c_b, _ = basic_combine(*s2, *s1, p)
        assert np.array_equal(c_a, c_b)

    def test_hidden_bounded(self):
        rng = np.random.default_rng(2)
        p = basic_params(5, rng)
        h, _, _ = basic_combine(*rand_state(rng, 5, 4), *rand_state(rng, 5, 4), p)
        assert np.all(np.abs(h) < 1.0)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(3)
        d = 3
        p = basic_params(d, rng)
        h1 = Parameter("h1", rng.uniform(-1, 1, (2, d)))
        c1 = rng.uniform(-1, 1, (2, d))
        h2, c2 = rand_state(rng, d, 2)
        wh = rng.uniform(-1, 1, (2, d))
        wc = rng.uniform(-1, 1, (2, d))

        def loss():
            h, c, _ = basic_combine(h1.value, c1, h2, c2, p)
            return float(np.sum(h * wh) + np.sum(c * wc))

        h, c, cache = basic_combine(h1.value, c1, h2, c2, p)
        dh1, _, _, _ = basic_combine_backward(wh, wc, cache, p)
        fd = finite_difference_grad(loss, [h1, p.w_c])
        assert np.allclose(dh1, fd["h1"], rtol=1e-5, atol=1e-9)
        assert np.allclose(p.w_c.grad, fd["w_c"], rtol=1e-5, atol=1e-9)


class TestChildSumCombine:
    def test_all_zero(self):
        h, c, _ = childsum_combine(np.zeros((1, 2)), np.zeros((1, 2)),
                                   np.zeros((1, 2)), np.zeros((1, 2)),
                                   childsum_params(2))
        assert np.array_equal(h, np.zeros((1, 2)))
        assert np.array_equal(c, np.zeros((1, 2)))

    def test_zero_weights_gates_at_half(self):
        # all gates sigmoid(0)=0.5: c = 0.5*c1 + 0.5*c2, h = 0.5*tanh(c)
        h, c, _ = childsum_combine(np.zeros((1, 1)), np.array([[1.0]]),
                                   np.zeros((1, 1)), np.array([[0.0]]),
                                   childsum_params(1))
        assert np.allclose(c, [[0.5]], atol=1e-15)
        assert np.allclose(h, [[0.5 * np.tanh(0.5)]], atol=1e-15)
        assert h[0, 0] == pytest.approx(0.2311, abs=1e-4)

    def test_swap_symmetry_exact(self):
        rng = np.random.default_rng(5)
        d = 3
        p = childsum_params(d, rng)
        swapped = ChildSumCombinerParams(
            w1_i=p.w2_i, w2_i=p.w1_i, w1_f=p.w2_f, w2_f=p.w1_f,
            w1_o=p.w2_o, w2_o=p.w1_o, w1_u=p.w2_u, w2_u=p.w1_u)
        s1 = rand_state(rng, d)
        s2 = rand_state(rng, d)
        h_a, c_a, _ = childsum_combine(*s1, *s2, p)
        h_b, c_b, _ = childsum_combine(*s2, *s1, swapped)
        assert np.array_equal(h_a, h_b)
        assert np.array_equal(c_a, c_b)

    def test_gate_ranges(self):
        rng = np.random.default_rng(6)
        d = 4
        p = childsum_params(d, rng)
        h1, c1 = rand_state(rng, d, 3)
        h2, c2 = rand_state(rng, d, 3)
        _, _, cache = childsum_combine(h1, c1, h2, c2, p)
        _, _, _, _, i, f1, f2, o, u, _ = cache
        for g in (i, f1, f2, o):
            assert np.all((g > 0) & (g < 1))
        assert np.all(np.abs(u) < 1)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(7)
        d = 2
        p = childsum_params(d, rng)
        h1 = Parameter("h1", rng.uniform(-1, 1, (2, d)))
        c1 = Parameter("c1", rng.uniform(-1, 1, (2, d)))
        h2, c2 = rand_state(rng, d, 2)
        wh = rng.uniform(-1, 1, (2, d))
        wc = rng.uniform(-1, 1, (2, d))

        def loss():
            h, c, _ = childsum_combine(h1.value, c1.value, h2, c2, p)
            return float(np.sum(h * wh) + np.sum(c * wc))

        _, _, cache = childsum_combine(h1.value, c1.value, h2, c2, p)
        dh1, dc1, _, _ = childsum_combine_backward(wh, wc, cache, p)
        fd = finite_difference_grad(loss, [h1, c1] + p.all())
        assert np.allclose(dh1, fd["h1"], rtol=1e-5, atol=1e-9)
        assert np.allclose(dc1, fd["c1"], rtol=1e-5, atol=1e-9)
        for w in p.all():
            assert np.allclose(w.grad, fd[w.name], rtol=1e-5, atol=1e-9), w.name


class TestCombineStacks:
    def test_single_layer_reduces(self):
        rng = np.random.default_rng(8)
        d = 3
        p = basic_params(d, rng)
        s1 = rand_state(rng, d)
        s2 = rand_state(rng, d)
        got, _ = combine_stacks([s1], [s2], "basic", [p])
        want = basic_combine(*s1, *s2, p)
        assert np.array_equal(got[0][0], want[0])
        assert np.array_equal(got[0][1], want[1])

    def test_identical_inputs_double_cells(self):
        rng = np.random.default_rng(9)
        d = 3
        p = basic_params(d, rng)
        s = rand_state(rng, d)
        got, _ = combine_stacks([s], [s], "basic", [p])
        assert np.allclose(got[0][1], 2 * s[1], atol=1e-15)

    def test_two_layers_independent(self):
        rng = np.random.default_rng(10)
        d = 3
        ps = [childsum_params(d, rng, prefix=f"l{i}") for i in range(2)]
        s1 = [rand_state(rng, d) for _ in range(2)]
        s2 = [rand_state(rng, d) for _ in range(2)]
        got, _ = combine_stacks(s1, s2, "childsum", ps)
        for l in range(2):
            want = childsum_combine(*s1[l], *s2[l], ps[l])
            assert np.array_equal(got[l][0], want[0])
            assert np.array_equal(got[l][1], want[1])
