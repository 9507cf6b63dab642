"""One LSTM cell, the decoder's stacked step and the encoder, with manual BPTT.

All state tensors are batched rows: h and c are [B, d].  One private cell
(``_cell`` / ``_cell_backward``) serves both stacks, given each step's input
projection x W_x^T.  The decoder steps the whole stack one timestep at a
time (``stack_step``) and makes that projection inside the step.  The
encoder, which sees its whole input up front, runs layer-major: one layer
over every timestep, then the next, so each layer's input projection is a
single product over all timesteps and only h W_h^T stays in the recurrence
(Appleyard et al. 2016).  Its weight gradients still accumulate one step at
a time in descending t, in the order of a step-by-step BPTT.

The encoder consumes sources already reversed by the data module,
right-padded; a carry mask freezes each example's state once its true length
is exhausted, so the final stack is exact regardless of padding.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
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


def _cell(zx, h, c, w_hT, b):
    """One LSTM step (forget-gate variant, gate order i,f,o,u) from its input
    projection zx = x W_x^T [B, 4d].  Returns the new (h, c) and the step
    record (h_prev, c_prev, gates, tanh(c)) that _cell_backward reads; the
    inputs are untouched."""
    z = zx + h @ w_hT
    z += b
    gates, c_new, tc, h_new = kernels.gates_forward(z, c)
    return h_new, c_new, (h, c, gates, tc)


def _cell_backward(dh, dc, x, step, p: LstmParams):
    """Backward through _cell, given the step's input x and record.
    Accumulates p's weight gradients; returns (dz [B, 4d], dc_prev)."""
    h_prev, c_prev, gates, tc = step
    dz, dc_prev = kernels.gates_backward(gates, c_prev, tc, dh, dc)
    p.w_x.grad += dz.T @ x
    p.w_h.grad += dz.T @ h_prev
    p.b.grad += dz.sum(axis=0)
    return dz, dc_prev


def stack_step(x, states, layers, dropout_masks=None):
    """One timestep of the stack, bottom-up; layer l's input is layer l-1's
    fresh hidden output.  dropout_masks (if given) multiply each layer's
    input -- non-recurrent connections only.

    states: list of (h, c) per layer.  Returns (new_states, caches), one
    (input, step record) per layer.
    """
    new_states = []
    caches = []
    inp = x
    for l, (p, (h_prev, c_prev)) in enumerate(zip(layers, states)):
        if dropout_masks is not None:
            inp = inp * dropout_masks[l]
        h, c, step = _cell(inp @ p.w_x.value.T, h_prev, c_prev, p.w_h.value.T, p.b.value)
        caches.append((inp, step))
        new_states.append((h, c))
        inp = h
    return new_states, caches


def stack_step_backward(dh_top, d_states, caches, layers, dropout_masks=None):
    """Backward through one stacked step.

    dh_top: gradient w.r.t. the top layer's new h from above the stack.
    d_states: per layer, (dh, dc) w.r.t. the new states from later steps.
    Returns (dx, dprev_states); weight grads accumulate into the layers.
    """
    dprev = [None] * len(layers)
    dh_in = dh_top
    for l in range(len(layers) - 1, -1, -1):
        p = layers[l]
        dh, dc = d_states[l]
        dz, dc_prev = _cell_backward(dh + dh_in, dc, *caches[l], p)
        dprev[l] = (dz @ p.w_h.value, dc_prev)
        dh_in = dz @ p.w_x.value
        if dropout_masks is not None:
            dh_in = dh_in * dropout_masks[l]
    return dh_in, dprev


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
    T = ids.shape[1]
    # per step: (m, 1 - m), m = 1.0 on rows whose source has not yet ended
    keep = [(m, 1.0 - m) for m in (mask[:, t:t + 1] for t in range(T))]
    x = embed.value[ids]  # [B, T, d]
    final, tapes = [], []
    for l, p in enumerate(layers):
        if dropout_masks is not None:
            x = x * dropout_masks[l][:, None, :]
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
    input, or top_h).  A ``steps`` list gets each step's record from _cell,
    for the backward pass."""
    B, T, d_in = x.shape
    d = p.hidden_size
    zx = (x.reshape(B * T, d_in) @ np.ascontiguousarray(p.w_x.value.T)).reshape(B, T, 4 * d)
    w_hT = np.ascontiguousarray(p.w_h.value.T)
    h = np.zeros((B, d))
    c = np.zeros((B, d))
    hs = np.empty((B, T, d))
    for t in range(T):
        h_new, c_new, step = _cell(zx[:, t], h, c, w_hT, p.b.value)
        if steps is not None:
            steps.append(step)
        m, carry = keep[t]
        h = m * h_new + carry * h
        c = m * c_new + carry * c
        hs[:, t] = h
    return (h, c), hs


def encode_batch_backward(dfinal, dtop_h, cache, embed: Parameter, layers,
                          dropout_masks=None):
    """BPTT through encode_batch; accumulates into embed and layer grads.

    dfinal: per-layer (dh, dc) w.r.t. the final carried states.
    dtop_h: [B, T, d] gradient w.r.t. top_h (may be None).

    Layer-major like the forward pass, top layer first.  Each layer's weight
    gradients still accumulate step by step in descending t; the gradient
    into its input is one [B*T, 4d] x [4d, d_in] product.
    """
    ids, keep, tapes = cache
    dhs = dtop_h
    for l in range(len(layers) - 1, -1, -1):
        dhs = _layer_backward(*dfinal[l], dhs, *tapes[l], keep, layers[l])
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
        if dhs is not None:
            dh = dh + dhs[:, t]
        m, carry = keep[t]
        dz, dc_prev = _cell_backward(m * dh, m * dc, x[:, t], steps[t], p)
        dz_all[:, t] = dz
        dh = carry * dh + dz @ w_h
        dc = carry * dc + dc_prev
    return (dz_all.reshape(B * T, -1) @ p.w_x.value).reshape(B, T, d_in)
