import gc
import math
import os
import weakref
from unittest import mock

import numpy as np
import pytest

from msnmt import model as M
from msnmt import trainer as T
from msnmt.data import make_batch
from msnmt.errors import ConfigError, CorpusIOError, NumericError
from msnmt.model import ModelConfig, init_params
from msnmt.trainer import (TrainConfig, clip_rescale, global_grad_norm, lr_at,
                           sgd_step, train)
from recipe import train_config


def small_model_cfg(mode="single", attention="none"):
    n = 1 if mode == "single" else 2
    return ModelConfig(mode=mode, attention=attention, layers=2, hidden=8,
                       src_vocab_sizes=(12,) * n, tgt_vocab_size=12)


def copy_tuples(n, n_src, seed=0, vmax=12):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(2, 6))
        toks = list(rng.integers(4, vmax, length))
        srcs = tuple(toks[::-1] for _ in range(n_src))
        out.append(srcs + (toks,))
    return out


class TestSchedule:
    def test_full_sequence(self):
        cfg = train_config(epochs=14, lr0=1.0, halve_after_epoch=10)
        lrs = [lr_at(e, cfg) for e in range(1, 15)]
        assert lrs == [1.0] * 10 + [0.5, 0.25, 0.125, 0.0625]

    def test_out_of_range_epoch(self):
        cfg = train_config(epochs=3)
        with pytest.raises(ConfigError):
            lr_at(4, cfg)
        with pytest.raises(ConfigError):
            lr_at(0, cfg)

    def test_validate_collects_errors(self):
        cfg = train_config(epochs=0, lr0=-1, dropout=1.5)
        with pytest.raises(ConfigError) as e:
            cfg.validate()
        msg = str(e.value)
        assert "epochs" in msg and "lr0" in msg and "dropout" in msg


class TestClipAndStep:
    def _params(self):
        return init_params(small_model_cfg(), seed=0, init_range=0.1)

    def test_norm_matches_explicit_sum(self):
        params = self._params()
        rng = np.random.default_rng(1)
        total = 0.0
        for p in params.all():
            p.grad[...] = rng.uniform(-1, 1, p.grad.shape)
            total += float(np.sum(p.grad ** 2))
        assert global_grad_norm(params) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_below_threshold_untouched(self):
        params = self._params()
        for p in params.all():
            p.grad[...] = 1e-4
        before = {p.name: p.grad.copy() for p in params.all()}
        scale, norm = clip_rescale(params, 5.0)
        assert scale == 1.0
        for p in params.all():
            assert np.array_equal(p.grad, before[p.name])

    def test_rescales_to_threshold(self):
        params = self._params()
        rng = np.random.default_rng(2)
        for p in params.all():
            p.grad[...] = rng.uniform(-3, 3, p.grad.shape)
        scale, norm = clip_rescale(params, 5.0)
        assert norm > 5.0 and scale < 1.0
        assert global_grad_norm(params) == pytest.approx(5.0, rel=1e-10)

    def test_nonfinite_norm_raises(self):
        params = self._params()
        params.softmax_b.grad[0] = np.inf
        with pytest.raises(NumericError):
            clip_rescale(params, 5.0)

    def test_sgd_step_update_and_zero(self):
        params = self._params()
        p = params.softmax_w
        p.grad[...] = 2.0
        before = p.value.copy()
        sgd_step(params, 0.25)
        assert np.allclose(p.value, before - 0.5, atol=1e-15)
        assert np.array_equal(p.grad, np.zeros_like(p.grad))


class TestTrainLoop:
    def test_one_sgd_call_per_batch(self, tmp_path):
        model_cfg = small_model_cfg()
        train_cfg = train_config(epochs=1, batch_size=4, dropout=0.0,
                                 init_range=0.3, seed=2)
        tuples = copy_tuples(14, 1)
        with mock.patch.object(T, "sgd_step", wraps=T.sgd_step) as spy:
            train(model_cfg, train_cfg, tuples, tuples[:4], str(tmp_path / "r"))
        assert spy.call_count == math.ceil(14 / 4)

    @pytest.mark.parametrize("mode,attention", [
        ("single", "none"), ("single", "local-p"),
        ("multi-basic", "local-p"), ("multi-childsum", "local-p")])
    def test_loss_decreases(self, tmp_path, mode, attention):
        model_cfg = small_model_cfg(mode, attention)
        train_cfg = train_config(epochs=5, lr0=0.5, halve_after_epoch=5,
                                 batch_size=8, dropout=0.0, init_range=0.4, seed=3)
        n_src = model_cfg.n_sources
        tuples = copy_tuples(24, n_src, seed=4)
        report, _ = train(model_cfg, train_cfg, tuples, tuples[:8],
                          str(tmp_path / mode))
        nlls = [r.train_nll for r in report.epochs]
        assert nlls[-1] < nlls[0] * 0.95

    def test_artifacts_written(self, tmp_path):
        model_cfg = small_model_cfg()
        train_cfg = train_config(epochs=2, batch_size=8, dropout=0.0,
                                 init_range=0.3, seed=5)
        tuples = copy_tuples(10, 1, seed=6)
        out = tmp_path / "run"
        report, _ = train(model_cfg, train_cfg, tuples, tuples[:4], str(out))
        assert (out / "checkpoint-epoch1").exists()
        assert (out / "checkpoint-epoch2").exists()
        best = (out / "best").read_text().strip()
        best_epoch = min(report.epochs, key=lambda e: e.dev_ppl).epoch
        assert best == f"checkpoint-epoch{best_epoch}"
        lines = (out / "report.tsv").read_text().splitlines()
        assert lines[0] == "epoch\tlr\ttrain-nll\tdev-ppl\tgrad-scale-rate\tseconds"
        assert len(lines) == 3

    @pytest.mark.parametrize("name", ["checkpoint-epoch1", "best", "report.tsv"])
    def test_best_marker_survives_a_failed_rename(self, tmp_path, name):
        """Every file train writes is replaced whole or left as it was."""
        cfg = small_model_cfg()
        path = str(tmp_path / name)
        rec = T.EpochRecord(epoch=1, lr=1.0, train_nll=2.0, dev_ppl=3.0,
                            grad_scale_rate=0.0, grad_norm_mean=1.0, seconds=0.5)
        write = {"checkpoint-epoch1": lambda k: M.save_checkpoint(path, cfg,
                                                                  init_params(cfg, k, 0.1)),
                 "best": lambda k: T.write_best(str(tmp_path), k),
                 "report.tsv": lambda k: T.write_report(path, T.TrainReport([rec] * k))}[name]
        write(1)
        before = (tmp_path / name).read_bytes()
        with mock.patch.object(T.os, "replace", side_effect=OSError("disk full")):
            with pytest.raises(CorpusIOError, match="disk full"):
                write(2)
        assert (tmp_path / name).read_bytes() == before
        assert os.listdir(tmp_path) == [name]

    def test_resume_is_bit_exact(self, tmp_path):
        """Epochs 1-4 straight through == epochs 1-2, reload, epochs 3-4."""
        model_cfg = small_model_cfg("single", "local-p")
        train_cfg = train_config(epochs=4, lr0=0.4, halve_after_epoch=2,
                                 batch_size=8, dropout=0.2, init_range=0.3, seed=7)
        tuples = copy_tuples(16, 1, seed=8)
        dev = tuples[:4]

        _, params_full = train(model_cfg, train_cfg, tuples, dev,
                               str(tmp_path / "full"))

        part_cfg = TrainConfig(**{**train_cfg.__dict__, "epochs": 2})
        train(model_cfg, part_cfg, tuples, dev, str(tmp_path / "part"))
        _, params2, _ = M.load_checkpoint(str(tmp_path / "part" / "checkpoint-epoch2"))
        _, params_resumed = train(model_cfg, train_cfg, tuples, dev,
                                  str(tmp_path / "part"), start_epoch=3,
                                  params=params2)

        for name, p in params_full.registry.items():
            assert np.array_equal(p.value, params_resumed.registry[name].value), name

    def test_one_tape_alive_at_a_time(self, tmp_path):
        """When a forward pass starts, no earlier batch's tape is reachable
        (training or dev), without help from the cycle collector."""
        class Marker:
            pass

        real = M.forward_loss
        alive, calls = [], []

        def spy(batch, params, config, train_mode=False, rng=None, tape=True):
            assert all(ref() is None for ref in alive), "an earlier tape is still reachable"
            nll, ntok, got = real(batch, params, config, train_mode, rng, tape)
            calls.append((train_mode, got is None))
            if got is not None:
                got["marker"] = marker = Marker()
                alive.append(weakref.ref(marker))
            return nll, ntok, got

        model_cfg = small_model_cfg("multi-basic", "local-p")
        train_cfg = train_config(epochs=2, batch_size=4, init_range=0.3, seed=11)
        tuples = copy_tuples(10, 2, seed=12)
        gc.disable()
        try:
            with mock.patch.object(T.model_mod, "forward_loss", spy):
                train(model_cfg, train_cfg, tuples, tuples[:6], str(tmp_path))
        finally:
            gc.enable()
        # per epoch 3 training batches with a tape, then 2 dev batches without
        assert calls == 2 * ([(True, False)] * 3 + [(False, True)] * 2)

    def test_resumed_params_get_gradients(self, tmp_path):
        model_cfg = small_model_cfg()
        train_cfg = train_config(epochs=1, batch_size=4, init_range=0.3, seed=13)
        tuples = copy_tuples(8, 1, seed=14)
        params = M.init_params(model_cfg, 1, 0.3)
        M.save_checkpoint(str(tmp_path / "ck"), model_cfg, params)
        _, loaded, _ = M.load_checkpoint(str(tmp_path / "ck"))
        assert loaded.grad is None
        _, trained = train(model_cfg, train_cfg, tuples, tuples[:4], str(tmp_path / "r"),
                           params=loaded)
        assert trained is loaded and loaded.grad is not None
        assert not np.array_equal(loaded.value, params.value)

    def test_overfits_single_batch(self, tmp_path):
        model_cfg = small_model_cfg("single", "local-p")
        train_cfg = train_config(epochs=150, lr0=1.0, halve_after_epoch=120,
                                 batch_size=4, dropout=0.0, init_range=0.5, seed=9)
        tuples = copy_tuples(4, 1, seed=10)
        report, params = train(model_cfg, train_cfg, tuples, tuples,
                               str(tmp_path / "over"))
        nll, ntok, _ = M.forward_loss(make_batch(tuples), params, model_cfg)
        assert nll / ntok < 0.2
