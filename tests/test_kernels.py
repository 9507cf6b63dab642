import numpy as np
import pytest

from msnmt import kernels


def _random_inputs(seed, B=5, d=7):
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2, 2, (B, 4 * d))
    c_prev = rng.uniform(-1, 1, (B, d))
    return z, c_prev


def test_numpy_forward_matches_scalar_math():
    z, c_prev = _random_inputs(0, B=2, d=3)
    gates, c, tc, h = kernels.gates_forward(z, c_prev)
    d = 3
    for b in range(2):
        for j in range(d):
            i = 1 / (1 + np.exp(-z[b, j]))
            f = 1 / (1 + np.exp(-z[b, d + j]))
            o = 1 / (1 + np.exp(-z[b, 2 * d + j]))
            u = np.tanh(z[b, 3 * d + j])
            cc = f * c_prev[b, j] + i * u
            assert c[b, j] == pytest.approx(cc, abs=1e-15)
            assert h[b, j] == pytest.approx(o * np.tanh(cc), abs=1e-15)


def column_gates_forward(z, c_prev):
    """Reference: the textbook formulas on the column blocks of z [B, 4d]."""
    d = z.shape[1] // 4
    gates = np.empty_like(z)
    gates[:, :3 * d] = 1.0 / (1.0 + np.exp(-z[:, :3 * d]))
    gates[:, 3 * d:] = np.tanh(z[:, 3 * d:])
    i, f, o, u = (gates[:, k * d:(k + 1) * d] for k in range(4))
    c = f * c_prev + i * u
    tc = np.tanh(c)
    return gates, c, tc, o * tc


def column_gates_backward(gates, c_prev, tc, dh, dc_in):
    """Reference backward on gates in the column layout [B, 4d]."""
    d = gates.shape[1] // 4
    i, f, o, u = (gates[:, k * d:(k + 1) * d] for k in range(4))
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dz = np.empty_like(gates)
    dz[:, :d] = dc * u * i * (1.0 - i)
    dz[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * d:3 * d] = dh * tc * o * (1.0 - o)
    dz[:, 3 * d:] = dc * i * (1.0 - u * u)
    return dz, dc * f


@pytest.mark.parametrize("B,d", [(1, 1), (2, 3), (5, 7), (16, 64), (3, 128)])
def test_gate_major_kernels_equal_column_formulas_bit_for_bit(B, d):
    rng = np.random.default_rng(B * 1000 + d)
    z = rng.normal(0, 3, (B, 4 * d))
    c_prev = rng.uniform(-2, 2, (B, d))
    dh = rng.uniform(-1, 1, (B, d))
    dc_in = rng.uniform(-1, 1, (B, d))

    gates, c, tc, h = kernels.gates_forward(z, c_prev)
    ref_gates, ref_c, ref_tc, ref_h = column_gates_forward(z, c_prev)
    assert gates.shape == (4, B, d) and gates.flags.c_contiguous
    assert np.array_equal(gates, ref_gates.reshape(B, 4, d).transpose(1, 0, 2))
    assert np.array_equal(c, ref_c)
    assert np.array_equal(tc, ref_tc)
    assert np.array_equal(h, ref_h)

    dz, dc_prev = kernels.gates_backward(gates, c_prev, tc, dh, dc_in)
    ref_dz, ref_dc_prev = column_gates_backward(ref_gates, c_prev, ref_tc, dh, dc_in)
    assert dz.shape == (B, 4 * d)
    assert np.array_equal(dz, ref_dz)
    assert np.array_equal(dc_prev, ref_dc_prev)
