"""Correctness checks and failure accounting of one run."""

import dataclasses

import pytest

from msnmt import data
from perfbench import bench, workloads as wl

W = dataclasses.replace(wl.WORKLOADS["multi-localp-short"], train_lines=20, dev_lines=6,
                        epochs=2, halve_after=1, test_lines=5)
BATCHES = bench.batches_per_epoch(W) * W.epochs


def test_clean_run_fails_nothing(tmp_path):
    out = bench.run(W, 1, str(tmp_path), min_passes=2)
    assert out.problems == [] and out.failed == 0
    assert out.attempted == BATCHES + 2 * W.test_lines
    assert len(out.translate_s) == 2 and len(out.hyp_sha256) == 64


def test_train_that_raises_fails_every_remaining_operation(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(bench.trainer, "train", boom)
    out = bench.run(W, 1, str(tmp_path), setups=1, min_passes=1)
    assert out.attempted == out.failed == BATCHES + W.test_lines
    assert "train raised" in out.problems


def test_translate_that_raises_midway_counts_the_rest(tmp_path, monkeypatch):
    def one_line_then_boom(params, config, src_paths, out_path, *args, **kwargs):
        with open(out_path, "w", encoding="utf-8") as f:
            f.write("t1_0\n")
        raise ValueError("injected")

    monkeypatch.setattr(bench.decoding, "translate_file", one_line_then_boom)
    out = bench.run(W, 1, str(tmp_path), setups=1, min_passes=1)
    assert out.attempted == BATCHES + W.test_lines
    assert out.failed == W.test_lines - 1
    assert out.problems == ["translate raised"]


@pytest.mark.parametrize("text, failed", [
    ("t1_0 t2_1\nt3_0\n", 0),
    ("t1_0 t2_1\n", 1),                  # a line missing
    ("t1_0 zz\nt3_0\n", 1),              # a token outside the vocabulary
    ("t1_0 </s>\nt3_0\n", 1),            # a reserved token
])
def test_hypothesis_checks(tmp_path, text, failed):
    vocab = data.Vocabulary(data.RESERVED + ["t1_0", "t2_1", "t3_0"])
    path = tmp_path / "hyp.txt"
    path.write_text(text, encoding="utf-8")
    out = bench.Outcome()
    digest = bench.check_hypotheses(str(path), 2, vocab, out)
    assert out.failed == failed and len(out.problems) == (failed > 0)
    assert len(digest) == 64
