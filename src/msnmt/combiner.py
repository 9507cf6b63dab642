"""Encoder-state combiners: merge two encoders' final (h, c) into one.

Two methods.  Basic: h = tanh(W_c [h1; h2]), c = c1 + c2.  Child-Sum: an
LSTM-style gate set where each incoming cell gets its own forget gate.
The concatenate-cells variant is deliberately NOT implemented; training it
diverges on large cell values.

All functions are batched ([B, d]) and pure; one combiner per layer with
unshared parameters.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Parameter, sigmoid


@dataclass
class BasicCombinerParams:
    w_c: Parameter  # [d, 2d]

    def all(self):
        return [self.w_c]


@dataclass
class ChildSumCombinerParams:
    """Eight d x d matrices: per-source input, forget, output, candidate."""

    w1_i: Parameter
    w2_i: Parameter
    w1_f: Parameter
    w2_f: Parameter
    w1_o: Parameter
    w2_o: Parameter
    w1_u: Parameter
    w2_u: Parameter

    def all(self):
        return [self.w1_i, self.w2_i, self.w1_f, self.w2_f,
                self.w1_o, self.w2_o, self.w1_u, self.w2_u]


def basic_combine(h1, c1, h2, c2, p: BasicCombinerParams):
    """h = tanh(W_c [h1; h2]); c = c1 + c2."""
    cat = np.concatenate([h1, h2], axis=1)
    h = np.tanh(cat @ p.w_c.value.T)
    c = c1 + c2
    cache = (cat, h)
    return h, c, cache


def basic_combine_backward(dh, dc, cache, p: BasicCombinerParams):
    cat, h = cache
    d = h.shape[1]
    dpre = dh * (1.0 - h * h)
    p.w_c.grad += dpre.T @ cat
    dcat = dpre @ p.w_c.value
    return dcat[:, :d], dc, dcat[:, d:], dc


def childsum_combine(h1, c1, h2, c2, p: ChildSumCombinerParams):
    """Child-Sum style merge: shared input/output/candidate gates over both
    hidden states, separate forget gate per incoming cell."""
    i = sigmoid(h1 @ p.w1_i.value.T + h2 @ p.w2_i.value.T)
    f1 = sigmoid(h1 @ p.w1_f.value.T)
    f2 = sigmoid(h2 @ p.w2_f.value.T)
    o = sigmoid(h1 @ p.w1_o.value.T + h2 @ p.w2_o.value.T)
    u = np.tanh(h1 @ p.w1_u.value.T + h2 @ p.w2_u.value.T)
    # parenthesized so swapping the two sources is bitwise-exact symmetric
    c = i * u + (f1 * c1 + f2 * c2)
    tc = np.tanh(c)
    h = o * tc
    cache = (h1, c1, h2, c2, i, f1, f2, o, u, tc)
    return h, c, cache


def childsum_combine_backward(dh, dc_in, cache, p: ChildSumCombinerParams):
    h1, c1, h2, c2, i, f1, f2, o, u, tc = cache
    do = dh * tc
    dc = dc_in + dh * o * (1.0 - tc * tc)
    di = dc * u
    du = dc * i
    df1 = dc * c1
    df2 = dc * c2
    dc1 = dc * f1
    dc2 = dc * f2
    dzi = di * i * (1.0 - i)
    dzf1 = df1 * f1 * (1.0 - f1)
    dzf2 = df2 * f2 * (1.0 - f2)
    dzo = do * o * (1.0 - o)
    dzu = du * (1.0 - u * u)
    p.w1_i.grad += dzi.T @ h1
    p.w2_i.grad += dzi.T @ h2
    p.w1_f.grad += dzf1.T @ h1
    p.w2_f.grad += dzf2.T @ h2
    p.w1_o.grad += dzo.T @ h1
    p.w2_o.grad += dzo.T @ h2
    p.w1_u.grad += dzu.T @ h1
    p.w2_u.grad += dzu.T @ h2
    dh1 = dzi @ p.w1_i.value + dzf1 @ p.w1_f.value + dzo @ p.w1_o.value + dzu @ p.w1_u.value
    dh2 = dzi @ p.w2_i.value + dzf2 @ p.w2_f.value + dzo @ p.w2_o.value + dzu @ p.w2_u.value
    return dh1, dc1, dh2, dc2


def combine_stacks(states1, states2, method, layer_params):
    """Merge two per-layer state stacks with the chosen method, one combiner
    per layer with that layer's own parameters."""
    fwd = basic_combine if method == "basic" else childsum_combine
    out = []
    caches = []
    for (h1, c1), (h2, c2), p in zip(states1, states2, layer_params):
        h, c, cc = fwd(h1, c1, h2, c2, p)
        out.append((h, c))
        caches.append(cc)
    return out, caches


def combine_stacks_backward(dstates, caches, method, layer_params):
    bwd = basic_combine_backward if method == "basic" else childsum_combine_backward
    d1 = []
    d2 = []
    for (dh, dc), cc, p in zip(dstates, caches, layer_params):
        dh1, dc1, dh2, dc2 = bwd(dh, dc, cc, p)
        d1.append((dh1, dc1))
        d2.append((dh2, dc2))
    return d1, d2
