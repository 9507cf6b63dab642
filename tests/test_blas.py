from unittest import mock

import numpy as np
import pytest

from msnmt import blas
from msnmt import trainer as T
from msnmt.model import ModelConfig
from msnmt.trainer import TrainConfig

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
