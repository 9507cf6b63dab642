"""SGD training loop: per-batch gradient normalization, global-norm
rescaling, learning-rate halving after a fixed epoch, per-epoch dev
perplexity and checkpointing.

Every epoch draws its shuffle and dropout streams from the run seed and the
epoch number, so resuming from a checkpoint reproduces an uninterrupted run
bit-for-bit.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import blas
from . import data as data_mod
from . import heap
from . import model as model_mod
from .errors import ConfigError, CorpusIOError, NumericError
from .rngs import rng_stream


@dataclass
class TrainConfig:
    """Every setting but clip_threshold is passed; their defaults are the
    train command's (cli.TRAIN_SETTINGS)."""

    epochs: int
    lr0: float
    halve_after_epoch: int
    batch_size: int
    dropout: float
    init_range: float
    seed: int
    max_len: int
    vocab_size: int
    clip_threshold: float = 5.0

    def validate(self):
        errs = []
        if self.epochs < 1:
            errs.append("epochs must be >= 1")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            errs.append("lr0 must be finite and positive")
        if self.halve_after_epoch < 1:
            errs.append("halve_after_epoch must be >= 1")
        if not (math.isfinite(self.clip_threshold) and self.clip_threshold > 0):
            errs.append("clip_threshold must be finite and positive")
        if self.batch_size < 1:
            errs.append("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            errs.append("dropout must be in [0,1)")
        if not (math.isfinite(self.init_range) and self.init_range > 0):
            errs.append("init_range must be finite and positive")
        if errs:
            raise ConfigError("; ".join(errs))


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_nll: float        # mean per predicted token
    dev_ppl: float
    grad_scale_rate: float  # fraction of steps where rescaling triggered
    grad_norm_mean: float
    seconds: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)


def lr_at(epoch, cfg: TrainConfig):
    """lr0 through halve_after_epoch, then halved every epoch after."""
    if not 1 <= epoch <= cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [1, {cfg.epochs}]")
    if epoch <= cfg.halve_after_epoch:
        return cfg.lr0
    return cfg.lr0 / (2.0 ** (epoch - cfg.halve_after_epoch))


def global_grad_norm(params):
    # one sum per parameter, in registry order: a single sum over params.grad
    # would round differently
    total = 0.0
    for p in params.all():
        total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


def clip_rescale(params, threshold):
    """Rescale all grads so the global L2 norm is at most threshold.

    Grads must already be normalized by batch size.  Returns the scale used
    (1.0 when no rescaling was needed)."""
    g = global_grad_norm(params)
    if not math.isfinite(g):
        raise NumericError("non-finite gradient norm")
    if g <= threshold:
        return 1.0, g
    scale = threshold / g
    params.grad *= scale
    return scale, g


def sgd_step(params, lr):
    """value <- value - lr * grad, then zero the grads."""
    params.grad *= lr  # in place: no temporary the size of the model
    params.value -= params.grad
    params.zero_grads()


def _eval_nll(batches, params, config):
    total, ntok = 0.0, 0
    for b in batches:
        nll, n, _ = model_mod.forward_loss(b, params, config, train_mode=False, tape=False)
        total += nll
        ntok += n
    return total, ntok


def checkpoint_path(out_dir, epoch):
    return os.path.join(out_dir, f"checkpoint-epoch{epoch}")


def train(model_cfg: model_mod.ModelConfig, train_cfg: TrainConfig,
          train_tuples, dev_tuples, out_dir, vocab_meta=None,
          start_epoch=1, params=None, log=None):
    """Run the full schedule over pre-encoded id tuples.

    train_tuples / dev_tuples: lists of (src1_ids, [src2_ids,] tgt_ids) with
    sources already reversed.  Writes checkpoint-epochN, a `best` marker and
    report.tsv into out_dir; returns (report, params).

    One backward tape is alive at a time: each batch's is dropped once its
    backward pass returns, and dev evaluation keeps none.  The heap that
    frees is kept for the next batch (heap.keep_freed_heap, which holds for
    the rest of the process).
    """
    train_cfg.validate()
    if params is None:
        params = model_mod.init_params(model_cfg, train_cfg.seed, train_cfg.init_range)
    params.add_grads()  # a loaded checkpoint (--resume) has none
    heap.keep_freed_heap()
    report = TrainReport()
    report_path = os.path.join(out_dir, "report.tsv")
    dev_batches = data_mod.batchify(dev_tuples, train_cfg.batch_size,
                                    rng_stream(train_cfg.seed, "devbatch"))
    # made once rng_stream has refused a negative seed
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise CorpusIOError(f"cannot create {out_dir}: {e}") from e

    best_ppl = math.inf
    # the products are too small for a second BLAS thread to pay (blas.py)
    with blas.one_thread():
        for epoch in range(start_epoch, train_cfg.epochs + 1):
            t0 = time.monotonic()
            lr = lr_at(epoch, train_cfg)
            shuffle_rng = rng_stream(train_cfg.seed, f"shuffle-epoch{epoch}")
            drop_rng = rng_stream(train_cfg.seed, f"dropout-epoch{epoch}")
            batches = data_mod.batchify(train_tuples, train_cfg.batch_size, shuffle_rng)

            total_nll, total_tok = 0.0, 0
            n_clipped = 0
            norm_sum = 0.0
            for batch in batches:
                nll, ntok, tape = model_mod.forward_loss(
                    batch, params, model_cfg, train_mode=True, rng=drop_rng)
                model_mod.backward(tape, params)
                del tape
                params.grad /= batch.size
                scale, gnorm = clip_rescale(params, train_cfg.clip_threshold)
                if scale < 1.0:
                    n_clipped += 1
                norm_sum += gnorm
                sgd_step(params, lr)
                total_nll += nll
                total_tok += ntok

            dev_nll, dev_tok = _eval_nll(dev_batches, params, model_cfg)
            dev_ppl = model_mod.perplexity(dev_nll, dev_tok)
            model_mod.save_checkpoint(checkpoint_path(out_dir, epoch), model_cfg,
                                      params, vocab_meta)
            if dev_ppl < best_ppl:
                best_ppl = dev_ppl
                write_best(out_dir, epoch)

            rec = EpochRecord(epoch=epoch, lr=lr, train_nll=total_nll / max(1, total_tok),
                              dev_ppl=dev_ppl,
                              grad_scale_rate=n_clipped / max(1, len(batches)),
                              grad_norm_mean=norm_sum / max(1, len(batches)),
                              seconds=time.monotonic() - t0)
            report.epochs.append(rec)
            write_report(report_path, report)
            if log:
                log(f"epoch {epoch}: lr={lr:g} train_nll={rec.train_nll:.4f} "
                    f"dev_ppl={dev_ppl:.3f} clip_rate={rec.grad_scale_rate:.2f} "
                    f"({rec.seconds:.1f}s)")
    return report, params


def write_best(out_dir, epoch):
    """Point the `best` marker at an epoch's checkpoint, replaced whole."""
    model_mod.replace_file(os.path.join(out_dir, "best"), [b"checkpoint-epoch%d\n" % epoch])


def write_report(path, report: TrainReport):
    lines = ["epoch\tlr\ttrain-nll\tdev-ppl\tgrad-scale-rate\tseconds\n"]
    lines += [f"{r.epoch}\t{r.lr:.10g}\t{r.train_nll:.10g}\t{r.dev_ppl:.10g}\t"
              f"{r.grad_scale_rate:.10g}\t{r.seconds:.3f}\n" for r in report.epochs]
    model_mod.replace_file(path, [line.encode("utf-8") for line in lines])
