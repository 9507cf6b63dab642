"""LSTM gate kernels.

The matrix products that feed the gates go through BLAS (numpy); everything
elementwise downstream of them is computed here, in numpy.

Gate layout inside the preactivation matrix ``z`` of shape [B, 4d]:
columns [0,d) input gate, [d,2d) forget gate, [2d,3d) output gate,
[3d,4d) candidate (tanh) block.
"""

import numpy as np


def gates_forward(z, c_prev):
    """Gate activations, new cell and hidden state: (gates, c, tanh(c), h)."""
    B, four_d = z.shape
    d = four_d // 4
    gates = np.empty_like(z)
    gates[:, :3 * d] = 1.0 / (1.0 + np.exp(-z[:, :3 * d]))
    gates[:, 3 * d:] = np.tanh(z[:, 3 * d:])
    i = gates[:, :d]
    f = gates[:, d:2 * d]
    o = gates[:, 2 * d:3 * d]
    u = gates[:, 3 * d:]
    c = f * c_prev + i * u
    tc = np.tanh(c)
    h = o * tc
    return gates, c, tc, h


def gates_backward(gates, c_prev, tc, dh, dc_in):
    """Gradients w.r.t. the preactivations and the previous cell: (dz, dc_prev)."""
    B, four_d = gates.shape
    d = four_d // 4
    i = gates[:, :d]
    f = gates[:, d:2 * d]
    o = gates[:, 2 * d:3 * d]
    u = gates[:, 3 * d:]
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dz = np.empty_like(gates)
    dz[:, :d] = dc * u * i * (1.0 - i)
    dz[:, d:2 * d] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * d:3 * d] = dh * tc * o * (1.0 - o)
    dz[:, 3 * d:] = dc * i * (1.0 - u * u)
    dc_prev = dc * f
    return dz, dc_prev
