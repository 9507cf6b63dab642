"""One workload, run in-process through the calls `msnmt train` and
`msnmt translate` make: data.load_parallel / build_vocab / encode_tuples,
trainer.train, model.load_checkpoint, decoding.translate_file, and
evaluation.score_files after the timed phases.

Operations are training batches and translated sentences.  A phase that
raises counts its remaining operations as failed; the run still reports.
"""

import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from msnmt import data, decoding, evaluation, model, trainer

from . import workloads as wl

SETUP_REPEATS = 15     # setup_s is the median of this many set-ups
MIN_PASSES = 3         # translate passes per untraced run, at least


@dataclass
class Prepared:
    enc_train: list
    enc_dev: list
    src_vocabs: list
    tgt_vocab: object
    vocab_meta: dict


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    load_s: list = field(default_factory=list)
    train_s: float = None
    train_tokens: int = 0
    dev_ppl: float = None
    clip_rate: float = None
    ckpt_bytes: int = 0
    translate_s: list = field(default_factory=list)
    hyp_sha256: str = None
    out_tokens: int = 0
    bleu: float = None
    reference: dict = None   # untraced walls a traced run is compared with

    def fail(self, n, problem):
        self.failed += n
        self.problems.append(problem)


def setup(paths):
    """What `msnmt train` does before training: read, build vocabularies, encode."""
    train_tuples, _ = data.load_parallel(paths["train"], wl.MAX_LEN)
    dev_tuples, _ = data.load_parallel(paths["dev"], wl.MAX_LEN)
    n_src = len(paths["train"]) - 1
    src_vocabs = [data.build_vocab((t[k] for t in train_tuples), wl.VOCAB_CAP)
                  for k in range(n_src)]
    tgt_vocab = data.build_vocab((t[-1] for t in train_tuples), wl.VOCAB_CAP)
    vocab_meta = {"src": [v.tokens for v in src_vocabs], "tgt": tgt_vocab.tokens,
                  "hashes": {"src": [v.content_hash() for v in src_vocabs],
                             "tgt": tgt_vocab.content_hash()}}
    return Prepared(enc_train=data.encode_tuples(train_tuples, src_vocabs, tgt_vocab),
                    enc_dev=data.encode_tuples(dev_tuples, src_vocabs, tgt_vocab),
                    src_vocabs=src_vocabs, tgt_vocab=tgt_vocab, vocab_meta=vocab_meta)


def configs(w: wl.Workload, prep: Prepared):
    # Dropout reaches the model only through ModelConfig.dropout;
    # TrainConfig.dropout is not read by trainer.train.
    model_cfg = model.ModelConfig(
        mode=w.mode, attention=w.attention, layers=wl.LAYERS, hidden=wl.HIDDEN,
        src_vocab_sizes=tuple(len(v) for v in prep.src_vocabs),
        tgt_vocab_size=len(prep.tgt_vocab), window=wl.WINDOW, dropout=w.dropout)
    train_cfg = trainer.TrainConfig(
        epochs=w.epochs, lr0=wl.LR, halve_after_epoch=w.halve_after,
        batch_size=wl.BATCH, dropout=w.dropout, init_range=wl.INIT_RANGE,
        seed=wl.TRAIN_SEED, max_len=wl.MAX_LEN, vocab_size=wl.VOCAB_CAP)
    return model_cfg, train_cfg


def batches_per_epoch(w: wl.Workload):
    # every generated line is within wl.MAX_LEN, so load_parallel keeps them all
    return math.ceil(w.train_lines / wl.BATCH)


def _count_lines(path):
    try:
        with open(path, encoding="utf-8") as f:
            return sum(1 for _ in f)
    except OSError:
        return 0


def _report_rows(out_dir):
    try:
        with open(os.path.join(out_dir, "report.tsv"), encoding="utf-8") as f:
            header = f.readline().rstrip("\n").split("\t")
            return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in f]
    except OSError:
        return []


def _raised(out, n, what):
    traceback.print_exc(file=sys.stderr)
    out.fail(n, f"{what} raised")


def run_train(w, prep, out_dir, out: Outcome):
    """trainer.train once; returns the final checkpoint path or None."""
    model_cfg, train_cfg = configs(w, prep)
    per_epoch = batches_per_epoch(w)
    out.attempted += per_epoch * w.epochs
    t0 = time.perf_counter()
    try:
        report, _params = trainer.train(model_cfg, train_cfg, prep.enc_train, prep.enc_dev,
                                        out_dir, vocab_meta=prep.vocab_meta)
    except Exception:
        _raised(out, per_epoch * (w.epochs - len(_report_rows(out_dir))), "train")
        return None
    out.train_s = time.perf_counter() - t0
    out.train_tokens = sum(len(t[-1]) + 1 for t in prep.enc_train) * w.epochs
    out.dev_ppl = report.epochs[-1].dev_ppl
    out.clip_rate = statistics.fmean(float(r["grad-scale-rate"]) for r in _report_rows(out_dir))
    if not math.isfinite(out.dev_ppl):
        out.fail(per_epoch * w.epochs, f"dev_ppl is not finite: {out.dev_ppl}")
        return None
    ckpt = trainer.checkpoint_path(out_dir, w.epochs)
    out.ckpt_bytes = os.path.getsize(ckpt)
    return ckpt


def load(ckpt):
    """What `msnmt translate` does before decoding."""
    config, params, meta = model.load_checkpoint(ckpt)
    vocabs = ([data.Vocabulary(t) for t in meta["src"]], data.Vocabulary(meta["tgt"]))
    return config, params, vocabs


def check_hypotheses(hyp_path, n_lines, tgt_vocab, out: Outcome):
    """Line count and target-vocabulary membership; returns the file digest."""
    with open(hyp_path, "rb") as f:
        raw = f.read()
    lines = raw.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n_lines:
        out.fail(abs(n_lines - len(lines)), f"{len(lines)} hypothesis lines for {n_lines} inputs")
    allowed = set(tgt_vocab.tokens) - {"<pad>", "<s>", "</s>"}
    bad = [i for i, line in enumerate(lines) if any(t not in allowed for t in line.split())]
    if bad:
        out.fail(len(bad), f"{len(bad)} hypotheses hold tokens outside the target vocabulary")
    out.out_tokens = sum(len(line.split()) for line in lines)
    return hashlib.sha256(raw).hexdigest()


def run_translate(w, loaded, test_paths, hyp_path, out: Outcome):
    """decoding.translate_file once; returns its wall time or None."""
    config, params, vocabs = loaded
    out.attempted += w.test_lines
    t0 = time.perf_counter()
    try:
        decoding.translate_file(params, config, test_paths[:-1], hyp_path, vocabs,
                                beam=w.beam, max_len=w.decode_max_len)
    except Exception:
        _raised(out, w.test_lines - _count_lines(hyp_path), "translate")
        return None
    seconds = time.perf_counter() - t0
    digest = check_hypotheses(hyp_path, w.test_lines, vocabs[1], out)
    if out.hyp_sha256 is None:
        out.hyp_sha256 = digest
    elif digest != out.hyp_sha256:
        out.fail(w.test_lines, "a repeated translation pass gave different output")
    return seconds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(w: wl.Workload, seed, work_dir, seconds=0.0, setups=SETUP_REPEATS,
        min_passes=MIN_PASSES, tracer=None):
    """Run workload w once: set up `setups` times, train once, load the final
    checkpoint `setups` times, then translate at least `min_passes` times and
    until `seconds` have passed since the start.  With a tracer, its stage
    names the phase in progress."""
    start = time.perf_counter()
    out = Outcome()
    paths = wl.write_corpus(w, seed, os.path.join(work_dir, "corpus"))

    def stage(name):
        if tracer is not None:
            tracer.stage = name

    stage("setup")
    try:
        for _ in range(setups):
            t0 = time.perf_counter()
            prep = setup(paths)
            out.setup_s.append(time.perf_counter() - t0)
    except Exception:
        out.attempted += batches_per_epoch(w) * w.epochs + w.test_lines
        _raised(out, batches_per_epoch(w) * w.epochs + w.test_lines, "setup")
        return out

    stage("train")
    ckpt = run_train(w, prep, os.path.join(work_dir, "run"), out)

    stage("translate")
    if ckpt is None:
        out.attempted += w.test_lines
        out.fail(w.test_lines, "no checkpoint to translate with")
        return out
    try:
        for _ in range(setups):
            t0 = time.perf_counter()
            loaded = load(ckpt)
            out.load_s.append(time.perf_counter() - t0)
    except Exception:
        out.attempted += w.test_lines
        _raised(out, w.test_lines, "load")
        return out
    hyp_path = os.path.join(work_dir, "hyp.txt")
    while True:
        took = run_translate(w, loaded, paths["test"], hyp_path, out)
        if took is None:
            break
        out.translate_s.append(took)
        if len(out.translate_s) >= min_passes and \
                time.perf_counter() + took > start + seconds:
            break
    stage("other")
    if out.translate_s:
        out.bleu = evaluation.score_files(hyp_path, paths["test"][-1]).bleu
    return out


def end_to_end(w, out: Outcome):
    """The metrics a user sees, by BENCHMARK.json name."""
    metrics = {
        "setup_s": statistics.median(out.setup_s) + statistics.median(out.load_s or [0.0]),
        "peak_rss_mb": peak_rss_mb(),
    }
    if out.train_s:
        metrics["train_tok_s"] = out.train_tokens / out.train_s
        metrics["dev_ppl"] = out.dev_ppl
    if out.translate_s:
        # over the whole translate window: the host's speed drifts over tens of
        # seconds, and a mean over the window varies less between runs than
        # the median pass, which settles on one fast or slow stretch
        metrics["translate_sent_s"] = w.test_lines * len(out.translate_s) / sum(out.translate_s)
    return metrics
