"""LSTM cell, stacked step, and full-sequence encoder with manual BPTT.

All state tensors are batched rows: h and c are [B, d].  The decoder steps
the whole stack one timestep at a time (``stack_step``).  The encoder, which
sees its whole input up front, runs layer-major: one layer over every
timestep, then the next, so each layer's input projection X W_x^T is a single
product over all timesteps and only h W_h^T stays in the recurrence
(Appleyard et al. 2016).  Its weight gradients still accumulate one step at a
time in descending t, in the order of a step-by-step BPTT.

The encoder consumes sources already reversed by the data module,
right-padded; a carry mask freezes each example's state once its true length
is exhausted, so the final stack is exact regardless of padding.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DimensionError, VocabularyError
from .numerics import Parameter


@dataclass
class LstmParams:
    """Input weights [4d, d_in], recurrent weights [4d, d], bias [4d]."""

    w_x: Parameter
    w_h: Parameter
    b: Parameter

    @property
    def hidden_size(self):
        return self.w_h.value.shape[1]

    @property
    def input_size(self):
        return self.w_x.value.shape[1]

    def all(self):
        return [self.w_x, self.w_h, self.b]


def lstm_cell(x, h_prev, c_prev, p: LstmParams):
    """One LSTM step (forget-gate variant, gate order i,f,o,u).

    Returns (h, c, cache); inputs are untouched.
    """
    if x.shape[1] != p.input_size or h_prev.shape[1] != p.hidden_size:
        raise DimensionError(
            f"lstm_cell: x {x.shape} / h {h_prev.shape} vs weights "
            f"w_x {p.w_x.value.shape}, w_h {p.w_h.value.shape}"
        )
    z = x @ p.w_x.value.T + h_prev @ p.w_h.value.T + p.b.value
    gates, c, tc, h = kernels.gates_forward(z, c_prev)
    cache = (x, h_prev, c_prev, gates, tc)
    return h, c, cache


def lstm_cell_backward(dh, dc, cache, p: LstmParams):
    """Accumulates weight grads into p; returns (dx, dh_prev, dc_prev)."""
    x, h_prev, c_prev, gates, tc = cache
    dz, dc_prev = kernels.gates_backward(gates, c_prev, tc, dh, dc)
    p.w_x.grad += dz.T @ x
    p.w_h.grad += dz.T @ h_prev
    p.b.grad += dz.sum(axis=0)
    dx = dz @ p.w_x.value
    dh_prev = dz @ p.w_h.value
    return dx, dh_prev, dc_prev


def stack_step(x, states, layers, dropout_masks=None):
    """Apply lstm_cell per layer bottom-up; layer l's input is layer l-1's
    fresh hidden output.  dropout_masks (if given) multiply each layer's
    input -- non-recurrent connections only.

    states: list of (h, c) per layer.  Returns (new_states, cache).
    """
    if len(states) != len(layers):
        raise DimensionError(f"stack_step: {len(states)} states vs {len(layers)} layers")
    new_states = []
    caches = []
    inp = x
    for l, (p, (h_prev, c_prev)) in enumerate(zip(layers, states)):
        if dropout_masks is not None:
            m = dropout_masks[l]
            if m.shape != inp.shape:
                raise DimensionError(
                    f"stack_step: dropout mask {m.shape} vs layer {l} input {inp.shape}"
                )
            inp = inp * m
        h, c, cc = lstm_cell(inp, h_prev, c_prev, p)
        caches.append(cc)
        new_states.append((h, c))
        inp = h
    return new_states, caches


def stack_step_backward(dstates, caches, layers, dropout_masks=None):
    """Backward through one stacked step.

    dstates: list of (dh, dc) w.r.t. the NEW states.  Returns
    (dx, dprev_states); weight grads accumulate into the layers.
    """
    L = len(layers)
    dh_acc = [np.array(dh, copy=True) for dh, _ in dstates]
    dprev = [None] * L
    dx_low = None
    for l in range(L - 1, -1, -1):
        dxl, dh_prev, dc_prev = lstm_cell_backward(dh_acc[l], dstates[l][1], caches[l], layers[l])
        if dropout_masks is not None:
            dxl = dxl * dropout_masks[l]
        dprev[l] = (dh_prev, dc_prev)
        if l > 0:
            dh_acc[l - 1] = dh_acc[l - 1] + dxl
        else:
            dx_low = dxl
    return dx_low, dprev


def zero_states(n_layers, batch, d):
    return [(np.zeros((batch, d)), np.zeros((batch, d))) for _ in range(n_layers)]


def encode_batch(ids, mask, embed: Parameter, layers, dropout_masks=None, tape=True):
    """Run the stacked encoder over a padded batch of reversed sources.

    ids: [B, T] int matrix (reversed token ids, right-padded).
    mask: [B, T] floats, 1.0 on real positions.

    Returns (final_states, top_h [B, T, d], cache).  top_h[b, t] is the top
    hidden after consuming reversed position t; padded slots carry the last
    real state.  The cache is what encode_batch_backward reads: each layer's
    input and per-step values.  Without ``tape`` nothing is kept for it and
    the cache is None; the states are the same bits either way.

    The stack runs layer-major: one layer over every timestep, then the next.
    A layer's input projection is one [B*T, d_in] x [d_in, 4d] product, so
    only h @ W_h^T stays inside the recurrence.  Each layer reads the carried
    states of the layer below; at a padded step they differ from that step's
    fresh output, but the carry mask discards what a padded step computes.
    """
    B, T = ids.shape
    if T == 0:
        raise ConfigError("encode: empty sequence")
    V = embed.value.shape[0]
    if ids.max() >= V or ids.min() < 0:
        raise VocabularyError(f"token id out of range [0,{V}) in encoder input")
    # per step: (m, 1 - m), m = 1.0 on rows whose source has not yet ended
    keep = [(m, 1.0 - m) for m in (mask[:, t:t + 1] for t in range(T))]
    x = embed.value[ids]  # [B, T, d]
    final, tapes = [], []
    for l, p in enumerate(layers):
        if dropout_masks is not None:
            m = dropout_masks[l]
            if m.shape != (B, x.shape[2]):
                raise DimensionError(
                    f"encode_batch: dropout mask {m.shape} vs layer {l} input {(B, x.shape[2])}")
            x = x * m[:, None, :]
        steps = [] if tape else None
        state, hs = _layer_forward(x, keep, p, steps)
        final.append(state)
        if tape:
            tapes.append((x, steps))
        x = hs
    return final, hs, (ids, keep, tapes) if tape else None


def _layer_forward(x, keep, p: LstmParams, steps=None):
    """One layer over every timestep of x [B, T, d_in].  Returns the final
    carried (h, c) and the carried hidden states [B, T, d] (the next layer's
    input, or top_h).  A ``steps`` list gets (h_prev, c_prev, gates, tanh(c))
    per step, for the backward pass."""
    B, T, d_in = x.shape
    d = p.hidden_size
    if d_in != p.input_size:
        raise DimensionError(f"encode_batch: input width {d_in} vs w_x {p.w_x.value.shape}")
    zx = (x.reshape(B * T, d_in) @ np.ascontiguousarray(p.w_x.value.T)).reshape(B, T, 4 * d)
    w_hT = np.ascontiguousarray(p.w_h.value.T)
    h = np.zeros((B, d))
    c = np.zeros((B, d))
    hs = np.empty((B, T, d))
    for t in range(T):
        z = zx[:, t] + h @ w_hT
        z += p.b.value
        gates, c_new, tc, h_new = kernels.gates_forward(z, c)
        if steps is not None:
            steps.append((h, c, gates, tc))
        m, carry = keep[t]
        h = m * h_new + carry * h
        c = m * c_new + carry * c
        hs[:, t] = h
    return (h, c), hs


def encode_batch_backward(dfinal, dtop_h, cache, embed: Parameter, layers,
                          dropout_masks=None):
    """BPTT through encode_batch; accumulates into embed and layer grads.

    dfinal: per-layer (dh, dc) w.r.t. the final carried states (may be None).
    dtop_h: [B, T, d] gradient w.r.t. top_h (may be None).

    Layer-major like the forward pass, top layer first.  Each layer's weight
    gradients still accumulate step by step in descending t; the gradient
    into its input is one [B*T, 4d] x [4d, d_in] product.
    """
    ids, keep, tapes = cache
    B = ids.shape[0]
    dhs = dtop_h
    for l in range(len(layers) - 1, -1, -1):
        if dfinal is None:
            d = layers[l].hidden_size
            dh = np.zeros((B, d))
            dc = np.zeros((B, d))
        else:
            dh, dc = dfinal[l]
        dhs = _layer_backward(dh, dc, dhs, *tapes[l], keep, layers[l])
        if dropout_masks is not None:
            dhs *= dropout_masks[l][:, None, :]
    np.add.at(embed.grad, ids, dhs)


def _layer_backward(dh, dc, dhs, x, steps, keep, p: LstmParams):
    """BPTT through one layer.  dh, dc: gradient w.r.t. its final carried
    state; dhs [B, T, d]: w.r.t. its carried hidden states (from the layer
    above, or top_h's), or None.  Accumulates the layer's weight gradients
    and returns the gradient w.r.t. its input x [B, T, d_in]."""
    B, T, d_in = x.shape
    dz_all = np.empty((B, T, 4 * p.hidden_size))
    w_h = p.w_h.value
    for t in range(T - 1, -1, -1):
        h_prev, c_prev, gates, tc = steps[t]
        if dhs is not None:
            dh = dh + dhs[:, t]
        m, carry = keep[t]
        dz, dc_prev = kernels.gates_backward(gates, c_prev, tc, m * dh, m * dc)
        p.w_x.grad += dz.T @ x[:, t]
        p.w_h.grad += dz.T @ h_prev
        p.b.grad += dz.sum(axis=0)
        dz_all[:, t] = dz
        dh = carry * dh + dz @ w_h
        dc = carry * dc + dc_prev
    return (dz_all.reshape(B * T, -1) @ p.w_x.value).reshape(B, T, d_in)
