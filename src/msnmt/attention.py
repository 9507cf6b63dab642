"""Local predictive attention over a Gaussian-weighted window, batched over
examples, for one or two sources.

The decoder's top hidden state predicts a real-valued source position p_t in
(0, S); an integer window of radius D around floor(p_t), clamped to the
sentence, is scored bilinearly and softmax-normalized, then damped by a
Gaussian centered at p_t with sigma = D/2.  Window MEMBERSHIP is treated as
non-differentiable; p_t receives gradient through the Gaussian factor.

``local_p`` is the one implementation: it attends for a whole batch over one
source's top encoder states, and ``local_p_backward`` is its gradient.
``attend`` runs it on a batch of one.

Positions are in ORIGINAL word order.  The encoder reads sources reversed,
so ``local_p`` takes its top states in encoder order and reads original
position s of example b at row ``lens[b] - 1 - s``.  A window is therefore a
run of consecutive encoder rows, and ``local_p_backward`` adds its gradient
into those rows with one buffered add over distinct indices.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import Parameter, sigmoid


@dataclass
class AttentionParams:
    w_p: Parameter  # [d, d]
    v_p: Parameter  # [d]
    w_a: Parameter  # [d, d]

    def all(self):
        return [self.w_p, self.v_p, self.w_a]


@dataclass
class AttentionTrace:
    """Everything one attention step over a batch looked at, for dumps and
    tests.  Every row is padded to the common width W; padded slots repeat
    the row's last position and weigh exactly 0."""

    p_t: np.ndarray      # [B] predicted positions
    window: np.ndarray   # [B, W] integer source positions
    align: np.ndarray    # [B, W] softmax weights over the window, sum to 1
    weights: np.ndarray  # [B, W] a_t(s) = align * gaussian
    valid: np.ndarray    # [B, W] true on real window slots


def _positions(h, params, lens):
    """p_t = S * sigmoid(v_p . tanh(W_p h_t)) per row, strictly inside (0, S).
    Returns (p_t [B], tanh output [B, d], sigmoid [B])."""
    m = np.tanh(h @ params.w_p.value.T)
    sg = sigmoid(m @ params.v_p.value)
    return lens * sg, m, sg


def _window_weights(h, tops, lens, p, D, w_a):
    """Windows around p [B], their softmax alignment and Gaussian-damped
    weights.  Returns (trace, gathered window states [B, W, d],
    encoder-order row index [B, W], u = W_a^T h [B, d], gauss)."""
    last = lens - 1
    center = p.astype(np.int64)                  # floor, as p > 0
    hi = np.minimum(center + D, last)[:, None]
    # no window is wider than 2D+1 or than the longest source in the batch
    pos = np.maximum(center - D, 0)[:, None] + np.arange(min(2 * D + 1, tops.shape[1]))
    valid = pos <= hi
    np.minimum(pos, hi, out=pos)
    idx = last[:, None] - pos
    hs = tops[np.arange(len(p))[:, None], idx]
    u = h @ w_a.value                            # score(h_t, h_s) = (W_a^T h_t) . h_s
    scores = (hs @ u[:, :, None])[:, :, 0]
    # a padded slot repeats a real position, so each row's max is a real score
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    e *= valid
    align = e / e.sum(axis=1, keepdims=True)
    sigma = D / 2.0
    gauss = np.exp((pos - p[:, None]) ** 2 / (-2.0 * sigma * sigma))
    trace = AttentionTrace(p_t=p, window=pos, align=align, weights=align * gauss,
                           valid=valid)
    return trace, hs, idx, u, gauss


def local_p(h, tops, lens, params: AttentionParams, D):
    """Local-p attention for a batch over one source.

    h [B, d]: decoder top states.  tops [B, T, d]: the source's top encoder
    states in encoder order, right-padded.  lens [B]: source lengths, each
    at least 1.  Returns (ctx [B, d], trace, cache).  The cache keeps the
    window index, align and weights, not the gathered window states.
    """
    p, m, sg = _positions(h, params, lens)
    trace, hs, idx, u, gauss = _window_weights(h, tops, lens, p, D, params.w_a)
    ctx = (trace.weights[:, None, :] @ hs)[:, 0]
    cache = (h, tops, lens, idx, m, sg, u, gauss, trace, D)
    return ctx, trace, cache


def local_p_backward(dctx, cache, params: AttentionParams, dtops):
    """Backward through local_p for the whole batch.  Accumulates into params,
    adds the window states' gradient into dtops [B, T, d] (encoder order,
    like tops) and returns dh [B, d]."""
    h, tops, lens, idx, m, sg, u, gauss, trace, D = cache
    align, weights = trace.align, trace.weights
    rows = np.arange(len(h))[:, None]
    hs = tops[rows, idx]
    dw = (hs @ dctx[:, :, None])[:, :, 0]         # d a_t(s)
    dalign = dw * gauss
    dgauss = dw * align
    sigma = D / 2.0
    dp = np.sum(dgauss * gauss * (trace.window - trace.p_t[:, None]) / (sigma * sigma), axis=1)
    dscores = align * (dalign - np.sum(align * dalign, axis=1, keepdims=True))
    du = (dscores[:, None, :] @ hs)[:, 0]
    # Row b's window covers the encoder rows idx[b, 0], idx[b, 0] - 1, ...
    # Continued past its valid slots, that run gives every slot its own row
    # (W <= T, and a negative index wraps to the end), so one buffered add is
    # exact: a padded slot has zero weight and zero dscores and adds 0.
    run = (rows, idx[:, :1] - np.arange(idx.shape[1]))
    dhs = weights[:, :, None] * dctx[:, None, :]
    dhs += dscores[:, :, None] * u[:, None, :]
    dhs += dtops[run]
    dtops[run] = dhs
    params.w_a.grad += h.T @ du
    dq = dp * lens * sg * (1.0 - sg)
    params.v_p.grad += dq @ m
    dz = dq[:, None] * params.v_p.value * (1.0 - m * m)
    params.w_p.grad += dz.T @ h
    return du @ params.w_a.value.T + dz @ params.w_p.value


def attend(h_t, top_seq, params: AttentionParams, D):
    """local_p for one example, top_seq [S, d] in original word order, as a
    batch of one.  Returns (ctx [1, d], trace, cache)."""
    top_seq = np.asarray(top_seq)
    return local_p(np.asarray(h_t)[None], top_seq[None, ::-1], np.array([len(top_seq)]),
                   params, D)


def attentional_hidden(h_t, contexts, proj: Parameter):
    """h~ = tanh(W [h_t; c_1 (; c_2)]).  Batched: h_t [B, d], each context
    [B, d]; returns ([B, d], cache)."""
    h_t = np.atleast_2d(h_t)
    cat = np.concatenate([h_t, *contexts], axis=1)
    d = h_t.shape[1]
    out = np.tanh(cat @ proj.value.T)
    cache = (cat, out, d, len(contexts))
    return out, cache


def attentional_hidden_backward(dout, cache, proj: Parameter):
    cat, out, d, n_ctx = cache
    dpre = dout * (1.0 - out * out)
    proj.grad += dpre.T @ cat
    dcat = dpre @ proj.value
    parts = [dcat[:, :d]] + [dcat[:, d * (k + 1):d * (k + 2)] for k in range(n_ctx)]
    return parts[0], parts[1:]
