import numpy as np
import pytest

from msnmt.numerics import Parameter, finite_difference_grad, sigmoid
from msnmt.recurrent import (LstmParams, encode_batch, encode_batch_backward, stack_step,
                             stack_step_backward, zero_states)


def make_lstm(prefix, d_in, d, rng=None, scale=0.4):
    def arr(shape):
        if rng is None:
            return np.zeros(shape)
        return rng.uniform(-scale, scale, shape)

    return LstmParams(w_x=Parameter(f"{prefix}.w_x", arr((4 * d, d_in))),
                      w_h=Parameter(f"{prefix}.w_h", arr((4 * d, d))),
                      b=Parameter(f"{prefix}.b", arr((4 * d,))))


def cell(x, h_prev, c_prev, p):
    """One LSTM step through a one-layer stack_step: (h, c, caches)."""
    [(h, c)], caches = stack_step(x, [(h_prev, c_prev)], [p])
    return h, c, caches


class TestLstmCell:
    """The cell both stacks share, driven through a one-layer stack_step."""

    def test_all_zero(self):
        p = make_lstm("z", 3, 3)
        h, c, _ = cell(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)), p)
        assert np.array_equal(h, np.zeros((1, 3)))
        assert np.array_equal(c, np.zeros((1, 3)))

    def test_zero_weights_prev_cell_one(self):
        # all gates sit at sigmoid(0) = 0.5, so c' = 0.5 and h' = 0.5*tanh(0.5)
        p = make_lstm("z", 2, 2)
        h, c, _ = cell(np.zeros((1, 2)), np.zeros((1, 2)), np.ones((1, 2)), p)
        assert np.allclose(c, 0.5, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5), atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        d = 2
        p = make_lstm("r", d, d, rng)
        x = rng.uniform(-1, 1, (1, d))
        h0 = rng.uniform(-1, 1, (1, d))
        c0 = rng.uniform(-1, 1, (1, d))
        h, c, _ = cell(x, h0, c0, p)
        # scalar re-implementation, one output element at a time
        z = np.zeros(4 * d)
        for r in range(4 * d):
            z[r] = p.b.value[r]
            for k in range(d):
                z[r] += p.w_x.value[r, k] * x[0, k] + p.w_h.value[r, k] * h0[0, k]
        for j in range(d):
            i = sigmoid(z[j])
            f = sigmoid(z[d + j])
            o = sigmoid(z[2 * d + j])
            u = np.tanh(z[3 * d + j])
            cj = f * c0[0, j] + i * u
            assert abs(c[0, j] - cj) < 1e-12
            assert abs(h[0, j] - o * np.tanh(cj)) < 1e-12

    def test_inputs_untouched(self):
        rng = np.random.default_rng(4)
        p = make_lstm("r", 2, 2, rng)
        x = rng.uniform(-1, 1, (1, 2))
        h0 = rng.uniform(-1, 1, (1, 2))
        c0 = rng.uniform(-1, 1, (1, 2))
        xc, h0c, c0c = x.copy(), h0.copy(), c0.copy()
        cell(x, h0, c0, p)
        assert np.array_equal(x, xc)
        assert np.array_equal(h0, h0c) and np.array_equal(c0, c0c)

    def test_cell_growth_bounded(self):
        # |c'| <= |c| + 1 elementwise since f,i <= 1 and |u| <= 1
        rng = np.random.default_rng(7)
        p = make_lstm("r", 3, 3, rng, scale=2.0)
        c0 = rng.uniform(-3, 3, (4, 3))
        _, c, _ = cell(rng.uniform(-2, 2, (4, 3)), rng.uniform(-1, 1, (4, 3)), c0, p)
        assert np.all(np.abs(c) <= np.abs(c0) + 1 + 1e-12)

    def test_hidden_in_open_unit_interval(self):
        rng = np.random.default_rng(8)
        p = make_lstm("r", 3, 3, rng, scale=3.0)
        h, _, _ = cell(rng.uniform(-2, 2, (4, 3)), rng.uniform(-1, 1, (4, 3)),
                       rng.uniform(-2, 2, (4, 3)), p)
        assert np.all(np.abs(h) < 1.0)

    def test_backward_vs_fd(self):
        rng = np.random.default_rng(21)
        d = 3
        p = make_lstm("g", d, d, rng)
        x = Parameter("x", rng.uniform(-1, 1, (2, d)))
        h0 = Parameter("h0", rng.uniform(-1, 1, (2, d)))
        c0 = Parameter("c0", rng.uniform(-1, 1, (2, d)))
        wh = rng.uniform(-1, 1, (2, d))
        wc = rng.uniform(-1, 1, (2, d))

        def loss():
            h, c, _ = cell(x.value, h0.value, c0.value, p)
            return float(np.sum(h * wh) + np.sum(c * wc))

        _, _, caches = cell(x.value, h0.value, c0.value, p)
        # the gradient reaches h from above the stack and c through time
        dx, [(dh0, dc0)] = stack_step_backward(wh, [(np.zeros((2, d)), wc)], caches, [p])
        fd = finite_difference_grad(loss, [x, h0, c0, p.w_x, p.w_h, p.b])
        assert np.allclose(dx, fd["x"], rtol=1e-5, atol=1e-9)
        assert np.allclose(dh0, fd["h0"], rtol=1e-5, atol=1e-9)
        assert np.allclose(dc0, fd["c0"], rtol=1e-5, atol=1e-9)
        assert np.allclose(p.w_x.grad, fd["g.w_x"], rtol=1e-5, atol=1e-9)
        assert np.allclose(p.w_h.grad, fd["g.w_h"], rtol=1e-5, atol=1e-9)
        assert np.allclose(p.b.grad, fd["g.b"], rtol=1e-5, atol=1e-9)


class TestStackStep:
    def test_single_layer_reduces_to_cell(self):
        """The decoder's one-layer step and the encoder's one timestep run
        the same cell.  The encoder multiplies by contiguous W^T copies,
        which may round differently at 2 rows, so the check is to 1e-15."""
        rng = np.random.default_rng(13)
        p = make_lstm("a", 3, 3, rng)
        embed = Parameter("emb", rng.uniform(-1, 1, (5, 3)))
        ids = np.array([[1], [4]])
        h, c, _ = cell(embed.value[ids[:, 0]], np.zeros((2, 3)), np.zeros((2, 3)), p)
        [(eh, ec)], top, _ = encode_batch(ids, np.ones((2, 1)), embed, [p])
        assert np.allclose(h, eh, rtol=0, atol=1e-15)
        assert np.allclose(c, ec, rtol=0, atol=1e-15)
        assert np.array_equal(top[:, 0], eh)

    def test_all_ones_masks_are_identity(self):
        rng = np.random.default_rng(14)
        layers = [make_lstm(f"l{i}", 3, 3, rng) for i in range(2)]
        x = rng.uniform(-1, 1, (2, 3))
        states = zero_states(2, 2, 3)
        plain, _ = stack_step(x, states, layers)
        masked, _ = stack_step(x, states, layers, [np.ones((2, 3))] * 2)
        for (h1, c1), (h2, c2) in zip(plain, masked):
            assert np.array_equal(h1, h2) and np.array_equal(c1, c2)

    def test_two_layer_manual_composition(self):
        rng = np.random.default_rng(15)
        layers = [make_lstm(f"l{i}", 3, 3, rng) for i in range(2)]
        x = rng.uniform(-1, 1, (2, 3))
        states = [(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 3)))
                  for _ in range(2)]
        got, _ = stack_step(x, states, layers)
        h0, c0, _ = cell(x, *states[0], layers[0])
        h1, c1, _ = cell(h0, *states[1], layers[1])
        assert np.array_equal(got[0][0], h0) and np.array_equal(got[0][1], c0)
        assert np.array_equal(got[1][0], h1) and np.array_equal(got[1][1], c1)


def encode_row(ids_reversed, embed, layers):
    """One sentence through a one-row encode_batch.  Returns the final states
    and the top states [S, d] in original word order (position 0 is the first
    word of the unreversed sentence)."""
    ids = np.asarray(ids_reversed, dtype=np.int64).reshape(1, -1)
    final, top_h, _ = encode_batch(ids, np.ones(ids.shape), embed, layers)
    return final, top_h[0, ::-1]


class TestEncode:
    def _embed(self, rng, V=9, d=3):
        return Parameter("emb", rng.uniform(-0.5, 0.5, (V, d)))

    def test_length_one(self):
        rng = np.random.default_rng(16)
        embed = self._embed(rng)
        layers = [make_lstm(f"l{i}", 3, 3, rng) for i in range(2)]
        final, top_seq = encode_row([5], embed, layers)
        assert top_seq.shape == (1, 3)
        assert np.array_equal(top_seq[0], final[-1][0][0])

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        embed = self._embed(rng)
        layers = [make_lstm("l0", 3, 3, rng)]
        a = encode_row([4, 5, 6], embed, layers)
        b = encode_row([4, 5, 6], embed, layers)
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[0][0][0], b[0][0][0])

    def test_matches_manual_unrolling_and_reindexes(self):
        rng = np.random.default_rng(18)
        embed = self._embed(rng)
        layers = [make_lstm(f"l{i}", 3, 3, rng) for i in range(2)]
        ids_rev = [4, 5, 6]  # original sentence reads 6 5 4
        final, top_seq = encode_row(ids_rev, embed, layers)
        states = zero_states(2, 1, 3)
        tops = []
        for t in ids_rev:
            states, _ = stack_step(embed.value[np.array([t])], states, layers)
            tops.append(states[1][0][0])
        # reversed time t maps to original position S-1-t
        for s in range(3):
            assert np.allclose(top_seq[s], tops[2 - s], atol=1e-15)
        assert np.allclose(final[1][0], states[1][0], atol=1e-15)

    def test_padding_invariance_of_final_state(self):
        rng = np.random.default_rng(22)
        embed = self._embed(rng)
        layers = [make_lstm("l0", 3, 3, rng)]
        ids = np.array([[4, 5, 6]])
        mask = np.ones((1, 3))
        fin_a, _, _ = encode_batch(ids, mask, embed, layers)
        ids_p = np.array([[4, 5, 6, 0, 0]])
        mask_p = np.array([[1.0, 1, 1, 0, 0]])
        fin_b, _, _ = encode_batch(ids_p, mask_p, embed, layers)
        assert np.allclose(fin_a[0][0], fin_b[0][0], atol=1e-15)
        assert np.allclose(fin_a[0][1], fin_b[0][1], atol=1e-15)


class TestEncodeBackward:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        d, L, V, T = 4, 2, 7, 4
        embed = Parameter("emb", rng.uniform(-0.5, 0.5, (V, d)))
        layers = [make_lstm(f"l{i}", d, d, rng) for i in range(L)]
        ids = np.array([[4, 5, 6, 4], [5, 6, 0, 0]])
        mask = np.array([[1.0, 1, 1, 1], [1, 1, 0, 0]])
        w_fin = [(rng.uniform(-1, 1, (2, d)), rng.uniform(-1, 1, (2, d)))
                 for _ in range(L)]
        w_top = rng.uniform(-1, 1, (2, T, d))

        def loss():
            final, top, _ = encode_batch(ids, mask, embed, layers)
            s = float(np.sum(top * w_top))
            for (h, c), (wh, wc) in zip(final, w_fin):
                s += float(np.sum(h * wh) + np.sum(c * wc))
            return s

        final, top, cache = encode_batch(ids, mask, embed, layers)
        encode_batch_backward(w_fin, w_top, cache, embed, layers)
        params = [embed] + [q for l in layers for q in l.all()]
        fd = finite_difference_grad(loss, params)
        for p in params:
            assert np.allclose(p.grad, fd[p.name], rtol=1e-4, atol=1e-8), p.name


def step_major_encode(ids, mask, embed, layers, dropout_masks=None):
    """Reference encoder: the whole stack one timestep at a time through
    stack_step, each step's input product made inside the step."""
    B, T = ids.shape
    E = embed.value[ids]
    states = zero_states(len(layers), B, layers[0].hidden_size)
    top_h = np.zeros((B, T, layers[0].hidden_size))
    caches = []
    for t in range(T):
        new_states, cc = stack_step(E[:, t], states, layers, dropout_masks)
        m = mask[:, t:t + 1]
        states = [(m * hn + (1.0 - m) * ho, m * cn + (1.0 - m) * co)
                  for (hn, cn), (ho, co) in zip(new_states, states)]
        top_h[:, t] = states[-1][0]
        caches.append(cc)
    return states, top_h, caches


def step_major_encode_backward(dfinal, dtop_h, ids, mask, caches, embed, layers,
                               dropout_masks=None):
    """Reference BPTT for step_major_encode, one timestep at a time."""
    B, T = ids.shape
    dstates = [(dh.copy(), dc.copy()) for dh, dc in dfinal]
    dE = np.zeros((B, T, layers[0].input_size))
    for t in range(T - 1, -1, -1):
        dh_top, dc_top = dstates[-1]
        dstates[-1] = (dh_top + dtop_h[:, t], dc_top)
        m = mask[:, t:t + 1]
        dnew = [(m * dh, m * dc) for dh, dc in dstates]
        dx, dprev = stack_step_backward(np.zeros_like(dtop_h[:, t]), dnew, caches[t],
                                        layers, dropout_masks)
        dE[:, t] = dx
        dstates = [((1.0 - m) * dh + dph, (1.0 - m) * dc + dpc)
                   for (dh, dc), (dph, dpc) in zip(dstates, dprev)]
    np.add.at(embed.grad, ids, dE)


class TestLayerMajorEncoder:
    """encode_batch runs one layer over every timestep with its input product
    hoisted out of the recurrence; it must match the step-major reference.
    The stacked products may round differently from per-step ones on some
    BLAS builds, so the comparison is to 1e-12, not to the bit."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("with_final", [False, True])
    def test_matches_step_major_reference(self, n_layers, dropout, with_final):
        rng = np.random.default_rng(30 + 4 * n_layers + 2 * dropout + with_final)
        d, V, B = 5, 11, 6
        lens = np.array([1, 7, 3, 7, 2, 5])
        T = int(lens.max())
        ids = rng.integers(1, V, size=(B, T))
        mask = (np.arange(T) < lens[:, None]).astype(float)
        ids[mask == 0] = 0
        embed = Parameter("emb", rng.uniform(-0.5, 0.5, (V, d)))
        layers = [make_lstm(f"l{i}", d, d, rng) for i in range(n_layers)]
        masks = None
        if dropout:
            masks = [(rng.random((B, d)) >= 0.3) / 0.7 for _ in range(n_layers)]
        dfinal = [(rng.uniform(-1, 1, (B, d)), rng.uniform(-1, 1, (B, d)))
                  for _ in range(n_layers)]
        if not with_final:
            dfinal = [(np.zeros((B, d)), np.zeros((B, d)))] * n_layers
        dtop = rng.uniform(-1, 1, (B, T, d))
        params = [embed] + [q for l in layers for q in l.all()]

        final, top, cache = encode_batch(ids, mask, embed, layers, masks)
        encode_batch_backward(dfinal, dtop, cache, embed, layers, masks)
        grads = {q.name: q.grad.copy() for q in params}
        for q in params:
            q.grad[...] = 0.0
        ref_final, ref_top, caches = step_major_encode(ids, mask, embed, layers, masks)
        step_major_encode_backward(dfinal, dtop, ids, mask, caches, embed, layers, masks)

        assert np.allclose(top, ref_top, rtol=0, atol=1e-12)
        for (h, c), (rh, rc) in zip(final, ref_final):
            assert np.allclose(h, rh, rtol=0, atol=1e-12)
            assert np.allclose(c, rc, rtol=0, atol=1e-12)
        for q in params:
            assert np.abs(q.grad).max() > 0.0, q.name
            assert np.allclose(grads[q.name], q.grad, rtol=0, atol=1e-12), q.name

    @pytest.mark.parametrize("dropout", [False, True])
    def test_without_tape_same_states_and_no_cache(self, dropout):
        rng = np.random.default_rng(38 + dropout)
        d, V, B = 5, 11, 6
        lens = np.array([1, 7, 3, 7, 2, 5])
        T = int(lens.max())
        mask = (np.arange(T) < lens[:, None]).astype(float)
        ids = np.where(mask > 0, rng.integers(1, V, size=(B, T)), 0)
        embed = Parameter("emb", rng.uniform(-0.5, 0.5, (V, d)))
        layers = [make_lstm(f"l{i}", d, d, rng) for i in range(2)]
        masks = [(rng.random((B, d)) >= 0.3) / 0.7 for _ in range(2)] if dropout else None
        final, top, cache = encode_batch(ids, mask, embed, layers, masks)
        bare_final, bare_top, bare_cache = encode_batch(ids, mask, embed, layers, masks,
                                                        tape=False)
        assert bare_cache is None and cache is not None
        assert np.array_equal(bare_top, top)
        for (h, c), (bh, bc) in zip(final, bare_final):
            assert np.array_equal(bh, h) and np.array_equal(bc, c)
