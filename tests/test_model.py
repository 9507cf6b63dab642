import json
import math
import os
from unittest import mock

import numpy as np
import pytest

from msnmt import data as data_mod
from msnmt import gradcheck as gc
from msnmt import model as M
from msnmt import trainer as T
from msnmt.data import Batch, make_batch
from msnmt.errors import (CompatibilityError, ConfigError, CorpusIOError, NumericError,
                          VocabularyError)


def tiny_config(mode="single", attention="none", layers=2, hidden=6, vocab=10):
    n = 1 if mode == "single" else 2
    return M.ModelConfig(mode=mode, attention=attention, layers=layers,
                         hidden=hidden, src_vocab_sizes=(vocab,) * n,
                         tgt_vocab_size=vocab, window=10)


def tiny_batch(config, seed=0, n=2, slen=4, tlen=3):
    return gc.make_toy_batch(config, slen, seed)


class TestConfig:
    def test_multi_needs_two_vocabs(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(mode="multi-basic", src_vocab_sizes=(8,), tgt_vocab_size=8)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(mode="triple", src_vocab_sizes=(8,), tgt_vocab_size=8)

    def test_round_trips_through_dict(self):
        cfg = tiny_config("multi-childsum", "local-p")
        assert M.ModelConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_only_float64_accepted(self):
        d = tiny_config().to_dict()
        assert d["dtype"] == "float64"
        with pytest.raises(ConfigError, match="float32"):
            M.ModelConfig.from_dict({**d, "dtype": "float32"})


class TestInitParams:
    def test_deterministic(self):
        cfg = tiny_config("multi-basic", "local-p")
        a = M.init_params(cfg, 7, 0.1)
        b = M.init_params(cfg, 7, 0.1)
        for name in a.registry:
            assert np.array_equal(a.registry[name].value, b.registry[name].value)

    def test_range_respected_and_biases_zero(self):
        cfg = tiny_config("single", "local-p", hidden=16, vocab=30)
        p = M.init_params(cfg, 1, 0.1)
        for name, q in p.registry.items():
            if name.endswith(".b"):
                assert np.array_equal(q.value, np.zeros_like(q.value))
            else:
                assert q.value.min() >= -0.1 and q.value.max() <= 0.1
                assert np.abs(q.value).max() > 0.0

    @pytest.mark.parametrize("mode,attention", [
        ("single", "none"), ("single", "local-p"),
        ("multi-basic", "none"), ("multi-basic", "local-p"),
        ("multi-childsum", "local-p")])
    def test_parameter_count_closed_form(self, mode, attention):
        L, d, V = 2, 6, 10
        cfg = tiny_config(mode, attention, L, d, V)
        n_src = cfg.n_sources
        att = cfg.use_attention
        lstm = lambda d_in: 4 * d * d_in + 4 * d * d + 4 * d
        expected = 0
        expected += n_src * V * d + V * d                      # embeddings
        expected += n_src * (lstm(d) + (L - 1) * lstm(d))      # encoders
        dec0 = 2 * d if att else d
        expected += lstm(dec0) + (L - 1) * lstm(d)             # decoder
        if mode == "multi-basic":
            expected += L * d * 2 * d
        elif mode == "multi-childsum":
            expected += L * 8 * d * d
        if att:
            expected += n_src * (d * d + d + d * d)            # w_p, v_p, w_a
            expected += d * (1 + n_src) * d                    # output projection
        expected += V * d + V                                  # softmax
        assert M.ModelParams(cfg).value.size == expected

    def test_every_parameter_registered_once(self):
        cfg = tiny_config("multi-childsum", "local-p")
        p = M.ModelParams(cfg)
        names = [q.name for q in p.all()]
        assert len(names) == len(set(names))


class TestForwardLoss:
    def test_uniform_logits_give_log_vocab(self):
        cfg = tiny_config()
        params = M.ModelParams(cfg)  # all zeros: logits uniform
        batch = tiny_batch(cfg)
        nll, ntok, _ = M.forward_loss(batch, params, cfg)
        assert nll / ntok == pytest.approx(math.log(cfg.tgt_vocab_size), abs=1e-12)

    def test_masked_positions_excluded(self):
        cfg = tiny_config()
        params = M.ModelParams(cfg)
        batch = Batch(src1=np.array([[4, 5]]), src1_mask=np.ones((1, 2)),
                      src1_len=np.array([2]),
                      tgt_in=np.array([[1, 5, 0]]), tgt_out=np.array([[5, 0, 0]]),
                      tgt_mask=np.array([[1.0, 0, 0]]), tgt_len=np.array([1]))
        nll, ntok, _ = M.forward_loss(batch, params, cfg)
        assert ntok == 1
        assert nll == pytest.approx(math.log(cfg.tgt_vocab_size), abs=1e-12)

    def test_padding_invariance(self):
        cfg = tiny_config("multi-basic", "local-p")
        params = M.init_params(cfg, 3, 0.4)
        tuples = [([4, 5, 6], [5, 6], [7, 8]), ([6, 4], [4, 4, 5], [9])]
        batch = make_batch(tuples)
        nll_a, ntok_a, _ = M.forward_loss(batch, params, cfg)
        padded = Batch(
            src1=np.pad(batch.src1, ((0, 0), (0, 2))),
            src1_mask=np.pad(batch.src1_mask, ((0, 0), (0, 2))),
            src1_len=batch.src1_len,
            src2=np.pad(batch.src2, ((0, 0), (0, 1))),
            src2_mask=np.pad(batch.src2_mask, ((0, 0), (0, 1))),
            src2_len=batch.src2_len,
            tgt_in=np.pad(batch.tgt_in, ((0, 0), (0, 2))),
            tgt_out=np.pad(batch.tgt_out, ((0, 0), (0, 2))),
            tgt_mask=np.pad(batch.tgt_mask, ((0, 0), (0, 2))),
            tgt_len=batch.tgt_len)
        nll_b, ntok_b, _ = M.forward_loss(padded, params, cfg)
        assert ntok_a == ntok_b
        assert nll_a == pytest.approx(nll_b, abs=1e-10)

    @pytest.mark.parametrize("mode,attention", [
        ("single", "none"), ("single", "local-p"), ("multi-childsum", "local-p")])
    def test_batched_equals_sum_of_unbatched(self, mode, attention):
        cfg = tiny_config(mode, attention)
        params = M.init_params(cfg, 5, 0.4)
        n_src = cfg.n_sources
        tuples = [([4, 5, 6], [7, 8]), ([6, 4], [9]), ([5], [8, 9, 4])]
        if n_src == 2:
            tuples = [(a, a[::-1] + [4], t) for a, t in tuples]
        nll_b, ntok_b, _ = M.forward_loss(make_batch(tuples), params, cfg)
        total = 0.0
        for tup in tuples:
            nll_1, _, _ = M.forward_loss(make_batch([tup]), params, cfg)
            total += nll_1
        assert nll_b == pytest.approx(total, abs=1e-8)

    def test_matches_stepwise_trace_oracle(self):
        # re-compute one example token by token through the decode session
        cfg = tiny_config("multi-basic", "local-p", hidden=5)
        params = M.init_params(cfg, 9, 0.4)
        src1, src2, tgt = [4, 5, 6], [7, 8], [5, 6, 7]
        nll, ntok, _ = M.forward_loss(make_batch([(src1, src2, tgt)]), params, cfg)
        sess = M.DecodeSession(params, cfg, [(src1, src2)])
        states, htilde = sess.initial()
        total = 0.0
        prev = data_mod.BOS
        for gold in tgt + [data_mod.EOS]:
            states, htilde, logp, _ = sess.step(states, htilde, np.array([prev]))
            total += -logp[0][gold]
            prev = gold
        assert nll == pytest.approx(total, abs=1e-10)

    def test_dropout_zero_train_equals_eval(self):
        cfg = tiny_config("single", "local-p")
        params = M.init_params(cfg, 2, 0.4)
        batch = tiny_batch(cfg)
        rng = np.random.default_rng(0)
        a, _, _ = M.forward_loss(batch, params, cfg, train_mode=True, rng=rng)
        b, _, _ = M.forward_loss(batch, params, cfg, train_mode=False)
        assert a == b

    @pytest.mark.parametrize("mode,attention", [
        ("single", "none"), ("multi-basic", "local-p"), ("multi-childsum", "local-p")])
    def test_without_tape_same_bits_and_no_tape(self, mode, attention):
        cfg = tiny_config(mode, attention)
        params = M.init_params(cfg, 8, 0.4)
        batch = gc.make_toy_batch(cfg, 6, 1)
        nll, ntok, tape = M.forward_loss(batch, params, cfg)
        nll_bare, ntok_bare, none = M.forward_loss(batch, params, cfg, tape=False)
        assert tape is not None and none is None
        assert (nll_bare, ntok_bare) == (nll, ntok)

    def test_out_of_vocab_target(self):
        cfg = tiny_config()
        params = M.ModelParams(cfg)
        batch = tiny_batch(cfg)
        batch.tgt_in[0, 0] = 99
        with pytest.raises(VocabularyError):
            M.forward_loss(batch, params, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts_with_step(self):
        cfg = tiny_config()
        params = M.ModelParams(cfg)
        params.softmax_b.value[0] = np.inf
        with pytest.raises(NumericError, match="step"):
            M.forward_loss(tiny_batch(cfg), params, cfg)

    def test_missing_second_source(self):
        cfg = tiny_config("multi-basic")
        params = M.ModelParams(cfg)
        single_cfg = tiny_config("single")
        batch = gc.make_toy_batch(single_cfg, 3, 0)
        with pytest.raises(ConfigError):
            M.forward_loss(batch, params, cfg)


class TestBackward:
    def test_duplicated_example_doubles_grads(self):
        cfg = tiny_config("single", "local-p")
        params = M.init_params(cfg, 4, 0.4)
        tup = ([4, 5, 6], [7, 8])
        _, _, tape = M.forward_loss(make_batch([tup]), params, cfg)
        M.backward(tape, params)
        single = {p.name: p.grad.copy() for p in params.all()}
        params.zero_grads()
        _, _, tape = M.forward_loss(make_batch([tup, tup]), params, cfg)
        M.backward(tape, params)
        for p in params.all():
            assert np.allclose(p.grad, 2 * single[p.name], atol=1e-12), p.name

    def test_constant_loss_zero_grads(self):
        # vocab has only reserved tokens and one content token; with zero
        # weights every logit is 0 regardless of parameters upstream of the
        # softmax, but the softmax weights themselves still see gradient --
        # so use a direct check: gradients of a duplicated batch stay finite
        # and the degenerate all-zero model yields uniform probabilities.
        cfg = tiny_config()
        params = M.ModelParams(cfg)
        batch = tiny_batch(cfg)
        nll, ntok, tape = M.forward_loss(batch, params, cfg)
        M.backward(tape, params)
        for p in params.all():
            assert np.all(np.isfinite(p.grad))

    @pytest.mark.parametrize("mode,attention", [
        ("multi-basic", "none"), ("multi-childsum", "none")])
    def test_gradcheck_small_dims(self, mode, attention):
        _, name, worst, ok = gc.run_gradcheck(mode, attention, layers=1,
                                              hidden=4, vocab=8, time_steps=3)
        assert ok, f"{name}: {worst}"


class TestPerplexity:
    def test_uniform(self):
        assert M.perplexity(math.log(100) * 17, 17) == pytest.approx(100, abs=1e-6)

    def test_perfect(self):
        assert M.perplexity(0.0, 5) == 1.0

    def test_two(self):
        assert M.perplexity(math.log(2) * 9, 9) == pytest.approx(2.0, abs=1e-12)

    def test_zero_tokens(self):
        with pytest.raises(ConfigError):
            M.perplexity(1.0, 0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = tiny_config("multi-childsum", "local-p")
        params = M.init_params(cfg, 11, 0.1)
        path = str(tmp_path / "ck")
        meta = {"src": [["<pad>", "<s>", "</s>", "<unk>", "a"]] * 2,
                "tgt": ["<pad>", "<s>", "</s>", "<unk>", "b"]}
        M.save_checkpoint(path, cfg, params, meta)
        cfg2, params2, meta2 = M.load_checkpoint(path)
        assert cfg2.to_dict() == cfg.to_dict()
        assert meta2 == meta
        for name, p in params.registry.items():
            got = params2.registry[name].value
            assert got.dtype == p.value.dtype
            assert np.array_equal(got, p.value)

    def test_load_holds_no_gradient_until_add_grads(self, tmp_path):
        cfg = tiny_config("multi-basic", "local-p")
        path = str(tmp_path / "ck")
        M.save_checkpoint(path, cfg, M.init_params(cfg, 3, 0.1))
        # a Parameter given no gradient would make its own with zeros_like
        with mock.patch.object(np, "zeros_like", side_effect=AssertionError):
            _, params, _ = M.load_checkpoint(path)
        assert params.grad is None
        assert all(p.grad is None for p in params.all())
        # it still translates
        sess = M.DecodeSession(params, cfg, [([4, 5, 6], [7, 8])])
        states, htilde = sess.initial()
        _, _, logp, _ = sess.step(states, htilde, np.array([data_mod.BOS]))
        assert np.isfinite(logp).all()
        # training's add_grads makes one zero vector, laid out like value
        params.add_grads()
        assert params.grad.shape == params.value.shape and not params.grad.any()
        off = 0
        for p in params.all():
            assert p.grad.ctypes.data == params.grad[off:].ctypes.data
            off += p.grad.size
        before = params.grad
        params.add_grads()
        assert params.grad is before

    def test_new_params_stay_zero_after_a_load(self, tmp_path):
        # a ModelParams built after a load starts at zero, also where the
        # loaded buffers have been freed and their memory is reused
        cfg = tiny_config("multi-childsum", "local-p")
        path = str(tmp_path / "ck")
        M.save_checkpoint(path, cfg, M.init_params(cfg, 4, 0.5))
        for _ in range(3):
            _, loaded, _ = M.load_checkpoint(path)
            del loaded
            fresh = M.ModelParams(cfg)
            assert all(not p.value.any() for p in fresh.all())

    def test_save_is_deterministic(self, tmp_path):
        cfg = tiny_config()
        params = M.init_params(cfg, 1, 0.1)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        M.save_checkpoint(a, cfg, params)
        M.save_checkpoint(b, cfg, params)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "ck"
        M.save_checkpoint(str(path), cfg, M.init_params(cfg, 1, 0.1))
        before = path.read_bytes()
        with mock.patch.object(os, "replace", side_effect=OSError("disk gone")):
            with pytest.raises(CorpusIOError) as e:
                M.save_checkpoint(str(path), cfg, M.init_params(cfg, 2, 0.1))
        assert e.value.exit_code == 2
        assert os.listdir(tmp_path) == ["ck"]
        assert path.read_bytes() == before

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CompatibilityError):
            M.load_checkpoint(str(path))

    def test_fixture_load_save_is_byte_identical(self, tmp_path):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "decode", "model.ckpt")
        cfg, params, meta = M.load_checkpoint(fixture)
        path = str(tmp_path / "again")
        M.save_checkpoint(path, cfg, params, meta)
        assert open(path, "rb").read() == open(fixture, "rb").read()

    @staticmethod
    def _rewrite_header(path, edit):
        raw = path.read_bytes()
        start = len(M.CKPT_MAGIC) + 8
        hlen = int.from_bytes(raw[len(M.CKPT_MAGIC):start], "little")
        header = json.loads(raw[start:start + hlen])
        edit(header)
        new = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(M.CKPT_MAGIC + len(new).to_bytes(8, "little") + new
                         + raw[start + hlen:])

    def test_header_offsets_off_the_layout_refused(self, tmp_path):
        cfg = tiny_config("multi-basic", "local-p")
        path = tmp_path / "ck"
        M.save_checkpoint(str(path), cfg, M.init_params(cfg, 2, 0.1))

        def swap_first_two(header):
            a, b = header["params"][:2]
            a["offset"], b["offset"] = b["offset"], a["offset"]

        self._rewrite_header(path, swap_first_two)
        with pytest.raises(CompatibilityError, match="src0.embed") as e:
            M.load_checkpoint(str(path))
        assert e.value.exit_code == 4

    def test_float32_header_refused(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "ck"
        M.save_checkpoint(str(path), cfg, M.init_params(cfg, 2, 0.1))
        self._rewrite_header(path, lambda h: h["config"].update(dtype="float32"))
        with pytest.raises(CompatibilityError, match="float64") as e:
            M.load_checkpoint(str(path))
        assert e.value.exit_code == 4

    def test_absurd_hidden_refused_before_allocating(self, tmp_path):
        # hidden 200000 in the decode fixture's header implies an 18.3 TiB
        # body; the file's body is checked against that size, not allocated
        path = tmp_path / "ck"
        path.write_bytes(open(os.path.join(os.path.dirname(__file__), "fixtures", "decode",
                                           "model.ckpt"), "rb").read())
        self._rewrite_header(path, lambda h: h["config"].update(hidden=200000))
        with pytest.raises(CompatibilityError, match="truncated body") as e:
            M.load_checkpoint(str(path))
        assert e.value.exit_code == 4

    def test_trailing_bytes_refused(self, tmp_path):
        cfg = tiny_config("multi-basic", "local-p")
        path = tmp_path / "ck"
        M.save_checkpoint(str(path), cfg, M.init_params(cfg, 2, 0.1))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CompatibilityError, match="8 trailing bytes") as e:
            M.load_checkpoint(str(path))
        assert e.value.exit_code == 4

    def test_load_fills_nothing_it_then_reads_over(self, tmp_path):
        cfg = tiny_config("multi-childsum", "local-p")
        params = M.init_params(cfg, 5, 0.1)
        path = str(tmp_path / "ck")
        M.save_checkpoint(path, cfg, params)
        with mock.patch.object(np, "zeros", side_effect=AssertionError("zero-filled")):
            _, loaded, _ = M.load_checkpoint(path)
        assert np.array_equal(loaded.value, params.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weights_refused(self, tmp_path, bad):
        cfg = tiny_config("multi-basic", "local-p")
        params = M.init_params(cfg, 2, 0.1)
        params.attn[1].v_p.value[3] = bad
        path = str(tmp_path / "ck")
        M.save_checkpoint(path, cfg, params)
        with pytest.raises(CompatibilityError, match="non-finite weights in attn1.v_p") as e:
            M.load_checkpoint(path)
        assert e.value.exit_code == 4


ALL_COMBINATIONS = [("single", "none"), ("single", "local-p"), ("multi-basic", "none"),
                    ("multi-basic", "local-p"), ("multi-childsum", "none"),
                    ("multi-childsum", "local-p")]


class TestFlatBuffer:
    @pytest.mark.parametrize("mode,attention", ALL_COMBINATIONS)
    def test_views_sit_at_registry_offsets(self, mode, attention):
        params = M.ModelParams(tiny_config(mode, attention))
        off = 0
        for p in params.all():
            n = p.value.size
            for view, flat in ((p.value, params.value), (p.grad, params.grad)):
                assert view.flags.c_contiguous
                assert view.ctypes.data == flat[off:].ctypes.data
            off += n
        assert off == params.value.size == params.grad.size
        assert not np.shares_memory(params.value, params.grad)
        params.value[:] = np.arange(off)
        params.grad[:] = -np.arange(off)
        assert params.softmax_b.value[-1] == off - 1 and params.softmax_b.grad[-1] == 1 - off

    @pytest.mark.parametrize("mode,attention", ALL_COMBINATIONS[1::2])
    def test_training_step_shows_through_the_views(self, mode, attention):
        cfg = tiny_config(mode, attention)
        params = M.init_params(cfg, 6, 0.3)
        _, _, tape = M.forward_loss(tiny_batch(cfg), params, cfg)
        M.backward(tape, params)
        assert np.array_equal(params.grad,
                              np.concatenate([p.grad.ravel() for p in params.all()]))
        before, grad = params.value.copy(), params.grad.copy()
        T.sgd_step(params, 0.5)
        assert np.array_equal(params.value, before - 0.5 * grad)
        assert not params.grad.any()
        off = 0
        for p in params.all():
            n = p.value.size
            assert np.array_equal(p.value.ravel(), before[off:off + n] - 0.5 * grad[off:off + n])
            assert not p.grad.any()
            off += n

    def test_nonfinite_gradient_names_its_parameter(self):
        cfg = tiny_config()
        params = M.init_params(cfg, 1, 0.1)
        _, _, tape = M.forward_loss(tiny_batch(cfg), params, cfg)
        params.dec_layers[1].w_h.grad[0, 0] = np.nan
        with pytest.raises(NumericError, match="dec.l1.w_h"):
            M.backward(tape, params)
