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
