"""LSTM gate kernels.

The matrix products that feed the gates go through BLAS (numpy); everything
elementwise downstream of them is computed here, in numpy.

Gate layout inside the preactivation matrix ``z`` of shape [B, 4d]:
columns [0,d) input gate, [d,2d) forget gate, [2d,3d) output gate,
[3d,4d) candidate (tanh) block.  The activations are kept gate-major, as one
contiguous [4, B, d] array (i, f, o, u), so every elementwise operation runs
on contiguous memory.  Each value is computed by the same operations in the
same order as the textbook formulas on the columns of ``z``, so the results
are the same to the bit.
"""

import numpy as np


def gates_forward(z, c_prev):
    """Gate activations [4, B, d], new cell and hidden state: (gates, c, tanh(c), h)."""
    B, four_d = z.shape
    d = four_d // 4
    zg = z.reshape(B, 4, d).transpose(1, 0, 2)   # gate-major view of z
    gates = np.empty((4, B, d))
    s = gates[:3]                                # 1 / (1 + exp(-z)), in place
    np.negative(zg[:3], out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    np.tanh(zg[3], out=gates[3])
    i, f, o, u = gates
    c = f * c_prev + i * u
    tc = np.tanh(c)
    h = o * tc
    return gates, c, tc, h


def gates_backward(gates, c_prev, tc, dh, dc_in):
    """Gradients w.r.t. the preactivations [B, 4d] and the previous cell:
    (dz, dc_prev)."""
    i, f, o, u = gates
    B, d = tc.shape
    dc = dc_in + dh * o * (1.0 - tc * tc)
    dzg = np.empty((4, B, d))
    # dz_g = a * b * g * (1 - g) for (a, b, g) = (dc, u, i), (dc, c_prev, f), (dh, tc, o)
    ab = dzg[:3]
    np.multiply(dc, u, out=ab[0])
    np.multiply(dc, c_prev, out=ab[1])
    np.multiply(dh, tc, out=ab[2])
    ab *= gates[:3]
    ab *= 1.0 - gates[:3]
    np.multiply(dc * i, 1.0 - u * u, out=dzg[3])
    dz = dzg.transpose(1, 0, 2).reshape(B, 4 * d)   # one copy into the column layout
    dc_prev = dc * f
    return dz, dc_prev
