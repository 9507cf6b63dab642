from unittest import mock

from msnmt import heap
from msnmt import trainer as T
from msnmt.model import ModelConfig
from recipe import train_config


def test_sets_trim_then_mmap_threshold():
    mallopt = mock.Mock(return_value=1)
    with mock.patch.object(heap, "glibc_mallopt", return_value=mallopt):
        heap.keep_freed_heap()
    assert mallopt.call_args_list == [mock.call(-1, 64 << 20), mock.call(-3, 32 << 20)]


def test_does_nothing_without_mallopt():
    with mock.patch.object(heap, "glibc_mallopt", return_value=None):
        heap.keep_freed_heap()   # no C library call, no error


def test_training_without_mallopt(tmp_path):
    cfg = ModelConfig(mode="single", attention="none", layers=1, hidden=8,
                      src_vocab_sizes=(12,), tgt_vocab_size=12)
    tuples = [([5, 4], [4, 5]), ([6, 7, 8], [8, 7, 6])]
    with mock.patch.object(heap, "glibc_mallopt", return_value=None) as found:
        report, _ = T.train(cfg, train_config(epochs=1, batch_size=2), tuples, tuples,
                            str(tmp_path))
    found.assert_called_once_with()
    assert len(report.epochs) == 1


def test_glibc_mallopt_is_callable_or_none():
    fn = heap.glibc_mallopt()
    assert fn is None or callable(fn)
