import os
from unittest import mock

import numpy as np
import pytest

from msnmt import blas, decoding
from msnmt import model as M
from msnmt import trainer as T
from msnmt.data import Vocabulary
from msnmt.errors import WorkerError
from msnmt.model import ModelConfig
from msnmt.trainer import TrainConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "decode")

needs_openblas = pytest.mark.skipif(blas.openblas_threads() is None,
                                    reason="numpy is not linked against OpenBLAS")


def _threads():
    get, _put = blas.openblas_threads()
    return get()


@needs_openblas
class TestOneThread:
    def test_sets_one_and_restores(self):
        before = _threads()
        with blas.one_thread():
            assert _threads() == 1
        assert _threads() == before

    def test_restores_after_an_exception(self):
        before = _threads()
        with pytest.raises(RuntimeError):
            with blas.one_thread():
                raise RuntimeError("boom")
        assert _threads() == before

    def test_product_bits_do_not_depend_on_the_pool(self):
        # the decoder-gate product of the desk-scale recipe, large enough for
        # OpenBLAS to split it across threads when it has more than one
        rng = np.random.default_rng(0)
        x, w = rng.standard_normal((16, 128)), rng.standard_normal((256, 128))
        pooled = x @ w.T
        with blas.one_thread():
            single = x @ w.T
        assert np.array_equal(pooled, single)

    def test_train_runs_on_one_thread(self, tmp_path):
        seen = []
        backward = T.model_mod.backward

        def spy(tape, params):
            seen.append(_threads())
            return backward(tape, params)

        before = _threads()
        cfg = ModelConfig(mode="single", attention="none", layers=1, hidden=8,
                          src_vocab_sizes=(12,), tgt_vocab_size=12)
        tuples = [([5, 4], [4, 5]), ([6, 7, 8], [8, 7, 6])]
        with mock.patch.object(T.model_mod, "backward", spy):
            T.train(cfg, TrainConfig(epochs=1, batch_size=2), tuples, tuples, str(tmp_path))
        assert seen == [1]
        assert _threads() == before

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "workers"])
    def test_translate_runs_on_one_thread(self, tmp_path, monkeypatch, cpus):
        # the fixture's 12 decoded lines are 3 chunks of 4 at beam 1; with two
        # usable CPUs they are decoded in forked workers, which must inherit
        # the one-thread pool and keep it
        config, params, meta = M.load_checkpoint(os.path.join(FIXTURE, "model.ckpt"))
        vocabs = ([Vocabulary(t) for t in meta["src"]], Vocabulary(meta["tgt"]))
        files = [os.path.join(FIXTURE, "src1.txt"), os.path.join(FIXTURE, "src2.txt")]
        seen = tmp_path / "threads"
        decode_chunk = decoding._decode_chunk

        def recording(job, chunk):
            entry = _threads()
            result = decode_chunk(job, chunk)
            with open(seen, "a", encoding="utf-8") as f:
                f.write(f"{entry} {_threads()}\n")
            return result

        def failing(job, chunk):
            if cpus == 1:
                raise RuntimeError("chunk failed")
            os._exit(9)

        monkeypatch.setattr(decoding, "ROWS", 4)
        monkeypatch.setattr(decoding, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(decoding, "_decode_chunk", recording)
        before = _threads()
        decoding.translate_file(params, config, files, str(tmp_path / "hyp.txt"), vocabs,
                                beam=1)
        assert seen.read_text(encoding="utf-8").splitlines() == ["1 1"] * 3
        assert _threads() == before
        monkeypatch.setattr(decoding, "_decode_chunk", failing)
        with pytest.raises(RuntimeError if cpus == 1 else WorkerError):
            decoding.translate_file(params, config, files, str(tmp_path / "dead.txt"),
                                    vocabs, beam=1)
        assert _threads() == before
