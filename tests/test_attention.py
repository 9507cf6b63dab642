import numpy as np
import pytest

from msnmt.attention import (AttentionParams, attend, attentional_hidden,
                             attentional_hidden_backward, local_p, local_p_backward)
from msnmt.numerics import Parameter, finite_difference_grad, sigmoid
from one_example import multi_attend


def make_params(d, rng=None, prefix="a"):
    def arr(shape):
        return np.zeros(shape) if rng is None else rng.uniform(-0.6, 0.6, shape)

    return AttentionParams(w_p=Parameter(f"{prefix}.w_p", arr((d, d))),
                           v_p=Parameter(f"{prefix}.v_p", arr((d,))),
                           w_a=Parameter(f"{prefix}.w_a", arr((d, d))))


def batch(rng, lens, d):
    """Decoder states [B, d] and encoder-order top states [B, T, d] for lens."""
    lens = np.array(lens)
    return rng.uniform(-1, 1, (len(lens), d)), rng.uniform(-1, 1, (len(lens), lens.max(), d)), lens


class TestPredictPosition:
    def test_zero_vp_gives_midpoint(self):
        rng = np.random.default_rng(0)
        p = make_params(3, rng)
        p.v_p.value[...] = 0.0
        h, tops, lens = batch(rng, [8, 1, 5], 3)
        _, trace, _ = local_p(h, tops, lens, p, 2)
        assert np.allclose(trace.p_t, lens / 2, rtol=0, atol=1e-15)

    def test_length_one_in_open_interval(self):
        rng = np.random.default_rng(1)
        p = make_params(3, rng)
        h, tops, lens = batch(rng, [1, 1, 1], 3)
        _, trace, _ = local_p(h, tops, lens, p, 2)
        assert np.all((0.0 < trace.p_t) & (trace.p_t < 1.0))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        d = 2
        p = make_params(d, rng)
        h, tops, lens = batch(rng, [5, 1, 9], d)
        _, trace, _ = local_p(h, tops, lens, p, 2)
        for b, S in enumerate(lens):
            m = [np.tanh(sum(p.w_p.value[i, j] * h[b, j] for j in range(d))) for i in range(d)]
            q = sum(p.v_p.value[i] * m[i] for i in range(d))
            assert trace.p_t[b] == pytest.approx(S * sigmoid(q), abs=1e-12)


class TestWindowWeights:
    def test_zero_score_uniform_align(self):
        rng = np.random.default_rng(3)
        p = make_params(3, rng)
        p.w_a.value[...] = 0.0
        h, tops, lens = batch(rng, [6, 3, 9], 3)
        _, trace, _ = local_p(h, tops, lens, p, 2)
        n = trace.valid.sum(axis=1, keepdims=True)
        assert np.allclose(trace.align, trace.valid / n, rtol=0, atol=1e-12)
        sigma = 1.0
        gauss = np.exp(-((trace.window - trace.p_t[:, None]) ** 2) / (2 * sigma ** 2))
        assert np.allclose(trace.weights, trace.valid * gauss / n, rtol=0, atol=1e-12)

    def test_gaussian_factor_one_at_center(self):
        rng = np.random.default_rng(4)
        p = make_params(2, rng)
        p.v_p.value[...] = 0.0          # p_t = S / 2, a whole position for even S
        h, tops, lens = batch(rng, [4, 8, 6], 2)
        _, trace, _ = local_p(h, tops, lens, p, 1)
        at = trace.window == trace.p_t[:, None]
        assert at.sum(axis=1).tolist() == [1, 1, 1]
        assert np.allclose(trace.weights[at], trace.align[at], rtol=0, atol=1e-15)

    def test_short_sentence_clamps_to_whole(self):
        rng = np.random.default_rng(5)
        p = make_params(2, rng)
        h, tops, lens = batch(rng, [3, 1, 11], 2)
        _, trace, _ = local_p(h, tops, lens, p, 10)
        for b, S in enumerate(lens):
            assert trace.window[b, trace.valid[b]].tolist() == list(range(S))

    def test_align_sums_to_one(self):
        rng = np.random.default_rng(6)
        p = make_params(3, rng)
        h, tops, lens = batch(rng, [9, 2, 14], 3)
        _, trace, _ = local_p(h, tops, lens, p, 3)
        assert np.all(np.abs(trace.align.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(trace.weights <= trace.align + 1e-15)


class TestContextVector:
    def test_single_position(self):
        rng = np.random.default_rng(7)
        p = make_params(3, rng)
        h, tops, lens = batch(rng, [1, 1], 3)
        ctx, trace, _ = local_p(h, tops, lens, p, 1)
        assert np.allclose(ctx, trace.weights[:, :1] * tops[:, 0], rtol=0, atol=1e-15)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(8)
        p = make_params(3, rng)
        h, tops, lens = batch(rng, [5, 2, 7], 3)
        ctx, trace, _ = local_p(h, tops, lens, p, 1)
        for b, S in enumerate(lens):
            want = np.zeros(3)
            for s, w in zip(trace.window[b, trace.valid[b]], trace.weights[b, trace.valid[b]]):
                want += w * tops[b, S - 1 - s]   # tops are in encoder order
            assert np.allclose(ctx[b], want, rtol=0, atol=1e-14)


class TestAttentionalHidden:
    def test_zero_projection(self):
        out, _ = attentional_hidden(np.ones((1, 3)), [np.ones((1, 3))],
                                    Parameter("p", np.zeros((3, 6))))
        assert np.array_equal(out, np.zeros((1, 3)))

    def test_zero_contexts_reduce_to_h_block(self):
        rng = np.random.default_rng(9)
        d = 3
        proj = Parameter("p", rng.uniform(-1, 1, (d, 3 * d)))
        h = rng.uniform(-1, 1, (1, d))
        out, _ = attentional_hidden(h, [np.zeros((1, d)), np.zeros((1, d))], proj)
        want = np.tanh(h @ proj.value[:, :d].T)
        assert np.allclose(out, want, atol=1e-15)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(10)
        d = 2
        proj = Parameter("p", rng.uniform(-1, 1, (d, 3 * d)))
        h = rng.uniform(-1, 1, (1, d))
        c1 = rng.uniform(-1, 1, (1, d))
        c2 = rng.uniform(-1, 1, (1, d))
        out, _ = attentional_hidden(h, [c1, c2], proj)
        cat = np.concatenate([h, c1, c2], axis=1)
        assert np.allclose(out, np.tanh(cat @ proj.value.T), atol=1e-15)

    def test_backward_vs_fd(self):
        rng = np.random.default_rng(11)
        d = 3
        proj = Parameter("p", rng.uniform(-1, 1, (d, 2 * d)))
        h = Parameter("h", rng.uniform(-1, 1, (2, d)))
        c = Parameter("c", rng.uniform(-1, 1, (2, d)))
        w = rng.uniform(-1, 1, (2, d))

        def loss():
            out, _ = attentional_hidden(h.value, [c.value], proj)
            return float(np.sum(out * w))

        out, cache = attentional_hidden(h.value, [c.value], proj)
        dh, dctx = attentional_hidden_backward(w, cache, proj)
        fd = finite_difference_grad(loss, [h, c, proj])
        assert np.allclose(dh, fd["h"], rtol=1e-5, atol=1e-9)
        assert np.allclose(dctx[0], fd["c"], rtol=1e-5, atol=1e-9)
        assert np.allclose(proj.grad, fd["p"], rtol=1e-5, atol=1e-9)


class TestMultiAttend:
    def test_identical_vectors_uniform_align(self):
        rng = np.random.default_rng(12)
        d = 3
        p1 = make_params(d, rng, "p1")
        p2 = make_params(d, rng, "p2")
        proj = Parameter("proj", rng.uniform(-1, 1, (d, 3 * d)))
        enc1 = rng.uniform(-1, 1, (4, d))
        enc2 = np.tile(rng.uniform(-1, 1, d), (6, 1))
        _, _, t2 = multi_attend(rng.uniform(-1, 1, d), enc1, enc2, p1, p2, proj, 2)
        assert np.allclose(t2.align[t2.valid], 1.0 / t2.valid.sum(), atol=1e-12)

    def test_zero_vp_positions(self):
        rng = np.random.default_rng(13)
        d = 3
        p1 = make_params(d, rng, "p1")
        p2 = make_params(d, rng, "p2")
        p1.v_p.value[...] = 0.0
        p2.v_p.value[...] = 0.0
        proj = Parameter("proj", rng.uniform(-1, 1, (d, 3 * d)))
        _, t1, t2 = multi_attend(rng.uniform(-1, 1, d),
                                 rng.uniform(-1, 1, (4, d)),
                                 rng.uniform(-1, 1, (6, d)), p1, p2, proj, 2)
        assert t1.p_t == pytest.approx(2.0, abs=1e-15)
        assert t2.p_t == pytest.approx(3.0, abs=1e-15)

    def test_equals_independent_single_source_composition(self):
        rng = np.random.default_rng(14)
        d = 3
        p1 = make_params(d, rng, "p1")
        p2 = make_params(d, rng, "p2")
        proj = Parameter("proj", rng.uniform(-1, 1, (d, 3 * d)))
        h = rng.uniform(-1, 1, d)
        enc1 = rng.uniform(-1, 1, (4, d))
        enc2 = rng.uniform(-1, 1, (5, d))
        out, t1, t2 = multi_attend(h, enc1, enc2, p1, p2, proj, 2)
        c1, s1, _ = attend(h, enc1, p1, 2)
        c2, s2, _ = attend(h, enc2, p2, 2)
        want, _ = attentional_hidden(h, [c1.reshape(1, -1), c2.reshape(1, -1)], proj)
        assert np.allclose(out, want[0], atol=1e-12)
        assert np.array_equal(t1.weights, s1.weights)
        assert np.array_equal(t2.weights, s2.weights)


class TestRandomizedInvariants:
    def test_invariants_hold_over_random_configs(self):
        rng = np.random.default_rng(16)
        d = 4
        for _ in range(100):
            S = int(rng.integers(1, 41))
            D = int(rng.integers(1, 11))
            p = make_params(d, rng)
            h = rng.uniform(-1, 1, d)
            top = rng.uniform(-1, 1, (S, d))
            ctx, trace, _ = attend(h, top, p, D)
            assert 0.0 < trace.p_t < S
            assert abs(trace.align.sum() - 1.0) <= 1e-9
            assert np.all(trace.weights >= 0.0)
            assert np.all(trace.weights <= trace.align + 1e-15)
            assert trace.window.min() >= 0 and trace.window.max() <= S - 1


class TestLocalPBatched:
    """The batched routine over B examples equals a loop of its B=1 case."""

    @pytest.mark.parametrize("D", [1, 3, 10])
    def test_matches_per_example_loop(self, D):
        rng = np.random.default_rng(17 + D)
        d, B = 5, 16
        lens = rng.integers(1, 41, size=B)
        lens[:2] = (1, 40)
        tops = rng.uniform(-1, 1, (B, int(lens.max()), d))   # encoder order
        h = rng.uniform(-1, 1, (B, d))
        p = make_params(d, rng)
        p.v_p.value *= 10.0   # saturate the sigmoid: p_t lands near both edges
        dctx = rng.uniform(-1, 1, (B, d))

        ctx, trace, cache = local_p(h, tops, lens, p, D)
        dtops = np.zeros_like(tops)
        dh = local_p_backward(dctx, cache, p, dtops)
        grads = {q.name: q.grad.copy() for q in p.all()}

        # the windows clamp at both sentence edges, and some rows are padded
        center = np.floor(trace.p_t).astype(int)
        assert np.any((center - D < 0) & (lens > 2 * D + 1))
        assert np.any((center + D > lens - 1) & (lens > 2 * D + 1))
        assert not trace.valid.all()

        for q in p.all():
            q.grad[...] = 0.0
        for b in range(B):
            S = int(lens[b])
            c1, t1, k1 = local_p(h[b:b + 1], tops[b:b + 1, :S], lens[b:b + 1], p, D)
            dt1 = np.zeros((1, S, d))
            dh1 = local_p_backward(dctx[b:b + 1], k1, p, dt1)
            real = trace.valid[b]
            assert np.allclose(ctx[b], c1[0], rtol=0, atol=1e-12)
            assert np.array_equal(trace.window[b, real], t1.window[0, t1.valid[0]])
            assert np.allclose(trace.weights[b, real], t1.weights[0, t1.valid[0]],
                               rtol=0, atol=1e-12)
            # padded slots repeat the last real position and weigh nothing
            assert np.all(trace.window[b, ~real] == trace.window[b, real][-1])
            assert np.all(trace.weights[b, ~real] == 0.0)
            assert np.allclose(dh[b], dh1[0], rtol=0, atol=1e-12)
            assert np.allclose(dtops[b, :S], dt1[0], rtol=0, atol=1e-12)
            assert np.all(dtops[b, S:] == 0.0)
            # and attend, the one-example form in original word order, agrees
            c2, t2, _ = attend(h[b], tops[b, S - 1::-1], p, D)
            assert np.allclose(c2, c1, rtol=0, atol=1e-12)
            assert np.array_equal(t2.window, t1.window)
        for q in p.all():
            assert np.allclose(grads[q.name], q.grad, rtol=0, atol=1e-12), q.name

    def test_backward_vs_fd(self):
        rng = np.random.default_rng(40)
        d, D = 3, 2
        lens = np.array([7, 2, 5])
        p = make_params(d, rng)
        h = Parameter("h", rng.uniform(-1, 1, (3, d)))
        tops = Parameter("tops", rng.uniform(-1, 1, (3, 7, d)))
        w = rng.uniform(-1, 1, (3, d))

        def loss():
            ctx, _, _ = local_p(h.value, tops.value, lens, p, D)
            return float(np.sum(ctx * w))

        _, _, cache = local_p(h.value, tops.value, lens, p, D)
        dtops = np.zeros_like(tops.value)
        dh = local_p_backward(w, cache, p, dtops)
        fd = finite_difference_grad(loss, [h, tops] + p.all())
        assert np.allclose(dh, fd["h"], rtol=1e-4, atol=1e-8)
        assert np.allclose(dtops, fd["tops"], rtol=1e-4, atol=1e-8)
        for q in p.all():
            assert np.allclose(q.grad, fd[q.name], rtol=1e-4, atol=1e-8), q.name


def add_at_local_p_backward(dctx, cache, params, dtops):
    """Reference: local_p_backward with the window-state gradient scattered
    by np.add.at through the clamped window index."""
    h, tops, lens, idx, m, sg, u, gauss, trace, D = cache
    align, weights = trace.align, trace.weights
    rows = np.arange(len(h))[:, None]
    hs = tops[rows, idx]
    dw = (hs @ dctx[:, :, None])[:, :, 0]
    dalign = dw * gauss
    dgauss = dw * align
    sigma = D / 2.0
    dp = np.sum(dgauss * gauss * (trace.window - trace.p_t[:, None]) / (sigma * sigma), axis=1)
    dscores = align * (dalign - np.sum(align * dalign, axis=1, keepdims=True))
    du = (dscores[:, None, :] @ hs)[:, 0]
    np.add.at(dtops, (rows, idx),
              weights[:, :, None] * dctx[:, None, :] + dscores[:, :, None] * u[:, None, :])
    params.w_a.grad += h.T @ du
    dq = dp * lens * sg * (1.0 - sg)
    params.v_p.grad += dq @ m
    dz = dq[:, None] * params.v_p.value * (1.0 - m * m)
    params.w_p.grad += dz.T @ h
    return du @ params.w_a.value.T + dz @ params.w_p.value


class TestWindowScatter:
    """local_p_backward adds each window into dtops with one buffered add over
    distinct rows; it must equal the np.add.at scatter bit for bit."""

    @pytest.mark.parametrize("D", [1, 3, 10])
    @pytest.mark.parametrize("max_len", [1, 6, 40])
    def test_equals_add_at_reference_bit_for_bit(self, D, max_len):
        rng = np.random.default_rng(50 + D + max_len)
        d, B = 4, 32
        lens = rng.integers(1, max_len + 1, size=B)
        lens[:2] = (1, max_len)
        T = int(lens.max())
        tops = rng.uniform(-1, 1, (B, T, d))
        h = rng.uniform(-1, 1, (B, d))
        p = make_params(d, rng)
        p.v_p.value *= 10.0   # saturate the sigmoid: p_t lands near both edges
        _, trace, cache = local_p(h, tops, lens, p, D)

        center = np.floor(trace.p_t).astype(int)
        if max_len > 2 * D + 1:
            # windows clamp at both sentence edges
            assert np.any((center - D < 0) & (lens > 2 * D + 1))
            assert np.any((center + D > lens - 1) & (lens > 2 * D + 1))
        else:
            # 2D+1 is wider than every source: W is cut to T
            assert trace.window.shape[1] == T < 2 * D + 1
        assert np.any(lens == 1)

        # accumulate twice into a nonzero buffer, as the decoder steps do
        dtops = rng.uniform(-1, 1, (B, T, d))
        ref_dtops = dtops.copy()
        ref = make_params(d)
        for q, r in zip(p.all(), ref.all()):
            r.value[...] = q.value
        for _ in range(2):
            dctx = rng.uniform(-1, 1, (B, d))
            dh = local_p_backward(dctx, cache, p, dtops)
            ref_dh = add_at_local_p_backward(dctx, cache, ref, ref_dtops)
            assert np.array_equal(dh, ref_dh)
            assert np.array_equal(dtops, ref_dtops)
        for q, r in zip(p.all(), ref.all()):
            assert np.array_equal(q.grad, r.grad), q.name
