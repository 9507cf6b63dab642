"""Single `msnmt` executable: train / translate / score / gradcheck / synth.

Config values come from a flat `key = value` file (--config) overridden by
command-line flags.  All logs go to stderr; data goes to files or stdout.
Exit codes: 0 success, 1 validation, 2 I/O (or a decoding worker process that
died), 3 numeric, 4 compatibility.
"""

import argparse
import os
import re
import sys
import time

from . import data as data_mod
from . import decoding as dec_mod
from . import evaluation as eval_mod
from . import gradcheck as gc_mod
from . import model as model_mod
from . import synth as synth_mod
from . import trainer as trainer_mod
from .data import Vocabulary
from .errors import (CompatibilityError, ConfigError, CorpusIOError, MsnmtError,
                     VocabularyError)


def log(msg):
    print(msg, file=sys.stderr)


# keys accepted in a --config file, with the flag they override
CONFIG_KEYS = {
    "mode", "attention", "layers", "hidden", "window", "epochs", "lr",
    "halve_after", "clip", "batch_size", "dropout", "init_range", "seed",
    "vocab_size", "max_len",
}


def load_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = val
    except OSError as e:
        raise CorpusIOError(f"cannot read config {path}: {e}") from e
    return values


def build_parser():
    p = argparse.ArgumentParser(prog="msnmt",
                                description="Desk-scale multi-source neural MT")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model on parallel text")
    t.add_argument("--config", help="flat key = value config file")
    t.add_argument("--src1", help="source-1 training file")
    t.add_argument("--src2", help="source-2 training file (multi modes)")
    t.add_argument("--tgt", help="target training file")
    t.add_argument("--dev-src1")
    t.add_argument("--dev-src2")
    t.add_argument("--dev-tgt")
    t.add_argument("--out", help="output directory")
    t.add_argument("--mode", choices=model_mod.MODES)
    t.add_argument("--attention", choices=model_mod.ATTENTIONS)
    t.add_argument("--layers", type=int)
    t.add_argument("--hidden", type=int)
    t.add_argument("--window", type=int, help="attention radius D (default 10)")
    t.add_argument("--epochs", type=int, help="default 15")
    t.add_argument("--lr", type=float, help="default 1.0 (0.7 with attention)")
    t.add_argument("--halve-after", type=int, help="halve lr each epoch after this one (default 10)")
    t.add_argument("--clip", type=float, help="gradient norm threshold (default 5.0)")
    t.add_argument("--batch-size", type=int, help="default 128")
    t.add_argument("--dropout", type=float, help="default 0.2 (0.3 with attention)")
    t.add_argument("--init-range", type=float, help="default 0.1 (0.08 with attention)")
    t.add_argument("--seed", type=int, help="default 1")
    t.add_argument("--vocab-size", type=int, help="per-side vocabulary cap (default 10000)")
    t.add_argument("--max-len", type=int, help="drop tuples longer than this (default 50)")
    t.add_argument("--resume", help="checkpoint to resume from")

    tr = sub.add_parser("translate", help="decode a file with a trained checkpoint")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--src1", required=True)
    tr.add_argument("--src2")
    tr.add_argument("--out", required=True)
    tr.add_argument("--beam", type=int, default=8)
    tr.add_argument("--max-len", type=int, help="default 2*source length + 5 per line")
    tr.add_argument("--dump-attention", help="write alignment weights to this TSV")
    tr.add_argument("--no-length-norm", action="store_true")

    s = sub.add_parser("score", help="corpus BLEU of a hypothesis file vs a reference")
    s.add_argument("--hyp", required=True)
    s.add_argument("--ref", required=True)

    g = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    g.add_argument("--mode", choices=model_mod.MODES, default="single")
    g.add_argument("--attention", choices=model_mod.ATTENTIONS, default="local-p")
    g.add_argument("--layers", type=int, default=2)
    g.add_argument("--hidden", type=int, default=8)
    g.add_argument("--vocab", type=int, default=20)
    g.add_argument("--time-steps", type=int, default=5)
    g.add_argument("--epsilon", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)

    y = sub.add_parser("synth", help="write synthetic aligned corpora")
    y.add_argument("--task", choices=["copy", "triangulate"], required=True)
    y.add_argument("--lines", type=int, required=True)
    y.add_argument("--out-dir", required=True)
    y.add_argument("--prefix", default="")
    y.add_argument("--vocab", type=int, default=50, help="copy-task vocabulary size")
    y.add_argument("--bases", type=int, default=10, help="triangulate ambiguous token count")
    y.add_argument("--min-len", type=int, default=3)
    y.add_argument("--max-len", type=int, default=None)
    y.add_argument("--seed", type=int, default=1)
    return p


def _resolve(args, file_vals, key, cast, default):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in file_vals:
        try:
            return cast(file_vals[key])
        except ValueError:
            raise ConfigError(f"{args.config}: cannot read {key} = {file_vals[key]!r} "
                              f"as {cast.__name__}") from None
    return default


def cmd_train(args):
    file_vals = load_config_file(args.config) if args.config else {}
    mode = _resolve(args, file_vals, "mode", str, "single")
    attention = _resolve(args, file_vals, "attention", str, "none")
    use_att = attention == "local-p"
    resolved = {
        "mode": mode,
        "attention": attention,
        "layers": _resolve(args, file_vals, "layers", int, 4),
        "hidden": _resolve(args, file_vals, "hidden", int, 64),
        "window": _resolve(args, file_vals, "window", int, 10),
        "epochs": _resolve(args, file_vals, "epochs", int, 15),
        "lr": _resolve(args, file_vals, "lr", float, 0.7 if use_att else 1.0),
        "halve_after": _resolve(args, file_vals, "halve_after", int, 10),
        "clip": _resolve(args, file_vals, "clip", float, 5.0),
        "batch_size": _resolve(args, file_vals, "batch_size", int, 128),
        "dropout": _resolve(args, file_vals, "dropout", float, 0.3 if use_att else 0.2),
        "init_range": _resolve(args, file_vals, "init_range", float, 0.08 if use_att else 0.1),
        "seed": _resolve(args, file_vals, "seed", int, 1),
        "vocab_size": _resolve(args, file_vals, "vocab_size", int, 10000),
        "max_len": _resolve(args, file_vals, "max_len", int, 50),
    }

    errs = []
    multi = mode != "single"
    for key in ("src1", "tgt", "dev_src1", "dev_tgt", "out"):
        if getattr(args, key) is None:
            errs.append(f"missing required path --{key.replace('_', '-')}")
    if multi and args.src2 is None:
        errs.append(f"--mode {mode} requires --src2")
    if multi and args.dev_src2 is None:
        errs.append(f"--mode {mode} requires --dev-src2")
    if not multi and args.src2 is not None:
        errs.append("--mode single does not accept --src2")
    for key in ("src1", "src2", "tgt", "dev_src1", "dev_src2", "dev_tgt"):
        path = getattr(args, key)
        if path is not None and not os.path.exists(path):
            errs.append(f"--{key.replace('_', '-')}: no such file: {path}")
    if errs:
        raise ConfigError("; ".join(errs))

    for k, v in sorted(resolved.items()):
        log(f"config: {k} = {v}")

    train_paths = [args.src1] + ([args.src2] if multi else []) + [args.tgt]
    dev_paths = [args.dev_src1] + ([args.dev_src2] if multi else []) + [args.dev_tgt]
    train_tuples, dropped = data_mod.load_parallel(train_paths, resolved["max_len"])
    dev_tuples, dev_dropped = data_mod.load_parallel(dev_paths, resolved["max_len"])
    log(f"loaded {len(train_tuples)} training tuples ({dropped} dropped), "
        f"{len(dev_tuples)} dev tuples ({dev_dropped} dropped)")
    if not train_tuples or not dev_tuples:
        raise ConfigError("no usable tuples after length/empty filtering")

    n_src = 2 if multi else 1
    src_vocabs = [data_mod.build_vocab((t[k] for t in train_tuples), resolved["vocab_size"])
                  for k in range(n_src)]
    tgt_vocab = data_mod.build_vocab((t[-1] for t in train_tuples), resolved["vocab_size"])
    vocab_meta = {"src": [v.tokens for v in src_vocabs], "tgt": tgt_vocab.tokens,
                  "hashes": {"src": [v.content_hash() for v in src_vocabs],
                             "tgt": tgt_vocab.content_hash()}}

    model_cfg = model_mod.ModelConfig(
        mode=mode, attention=attention, layers=resolved["layers"],
        hidden=resolved["hidden"],
        src_vocab_sizes=tuple(len(v) for v in src_vocabs),
        tgt_vocab_size=len(tgt_vocab), window=resolved["window"],
        dropout=resolved["dropout"])
    train_cfg = trainer_mod.TrainConfig(
        epochs=resolved["epochs"], lr0=resolved["lr"],
        halve_after_epoch=resolved["halve_after"], clip_threshold=resolved["clip"],
        batch_size=resolved["batch_size"], dropout=resolved["dropout"],
        init_range=resolved["init_range"], seed=resolved["seed"],
        max_len=resolved["max_len"], vocab_size=resolved["vocab_size"])

    enc_train = data_mod.encode_tuples(train_tuples, src_vocabs, tgt_vocab)
    enc_dev = data_mod.encode_tuples(dev_tuples, src_vocabs, tgt_vocab)

    params = None
    start_epoch = 1
    if args.resume:
        ck_cfg, params, ck_meta = model_mod.load_checkpoint(args.resume)
        if ck_cfg.to_dict() != model_cfg.to_dict():
            raise CompatibilityError("resume checkpoint config does not match this run")
        if ck_meta.get("hashes") != vocab_meta["hashes"]:
            raise CompatibilityError(f"--resume {args.resume}: its vocabularies differ from "
                                     "the ones built from these training files")
        base = os.path.basename(args.resume)
        epoch = re.fullmatch(r"checkpoint-epoch([0-9]+)", base)
        if epoch:
            start_epoch = int(epoch[1]) + 1
        elif base.startswith("checkpoint-epoch"):
            raise ConfigError(f"--resume {args.resume}: no epoch number in {base!r}; "
                              "expected checkpoint-epoch<N>")
        if start_epoch > resolved["epochs"]:
            raise ConfigError(f"--resume {args.resume} has trained {start_epoch - 1} epoch(s) "
                              f"and --epochs is {resolved['epochs']}: nothing left to train")
        log(f"resuming from {args.resume} at epoch {start_epoch}")

    trainer_mod.train(model_cfg, train_cfg, enc_train, enc_dev, args.out,
                      vocab_meta=vocab_meta, start_epoch=start_epoch,
                      params=params, log=log)
    return 0


def _token_list(tokens, size):
    return (isinstance(tokens, list) and len(tokens) == size
            and all(isinstance(t, str) for t in tokens))


def _vocabs_from_meta(meta, config):
    """The checkpoint's source and target vocabularies: one list of strings
    per side, each as long as its config says."""
    if not isinstance(meta, dict) or "src" not in meta:
        raise CompatibilityError("checkpoint carries no vocabulary")
    src, tgt = meta["src"], meta.get("tgt")
    sizes = config.src_vocab_sizes
    if not (isinstance(src, list) and len(src) == len(sizes)
            and all(map(_token_list, src, sizes))
            and _token_list(tgt, config.tgt_vocab_size)):
        raise CompatibilityError(
            "checkpoint vocabulary is not one token list per side of the sizes its "
            f"config gives (source {list(sizes)}, target {config.tgt_vocab_size})")
    try:
        return [Vocabulary(t) for t in src], Vocabulary(tgt)
    except VocabularyError as e:
        raise CompatibilityError(f"checkpoint vocabulary: {e}") from e


def cmd_translate(args):
    config, params, meta = model_mod.load_checkpoint(args.checkpoint)
    src_paths = [args.src1] + ([args.src2] if args.src2 else [])
    if len(src_paths) != config.n_sources:
        raise CompatibilityError(
            f"checkpoint is {config.mode} ({config.n_sources} source(s)) but "
            f"{len(src_paths)} source file(s) were given")
    src_vocabs, tgt_vocab = _vocabs_from_meta(meta, config)
    t0 = time.perf_counter()
    stats = dec_mod.translate_file(params, config, src_paths, args.out,
                                   (src_vocabs, tgt_vocab), beam=args.beam,
                                   max_len=args.max_len,
                                   dump_attention=args.dump_attention,
                                   length_norm=not args.no_length_norm)
    seconds = time.perf_counter() - t0
    steps = stats["steps"]
    log(f"translated {stats['sentences']} sentences in {seconds:.3f} s "
        f"({stats['sentences'] / seconds:.1f} sent/s); {steps} decoder steps, "
        f"{stats['rows'] / steps if steps else 0.0:.1f} rows per step")
    return 0


def cmd_score(args):
    report = eval_mod.score_files(args.hyp, args.ref)
    print(report.format())
    return 0


def cmd_gradcheck(args):
    errors, worst_name, worst, passed = gc_mod.run_gradcheck(
        mode=args.mode, attention=args.attention, layers=args.layers,
        hidden=args.hidden, vocab=args.vocab, time_steps=args.time_steps,
        seed=args.seed, epsilon=args.epsilon)
    groups = {}
    for name, err in errors.items():
        group = name.rsplit(".", 1)[0]
        groups[group] = max(groups.get(group, 0.0), err)
    for group in sorted(groups):
        print(f"{group}\t{groups[group]:.3e}")
    if passed:
        print(f"PASS: worst relative error {worst:.3e} ({worst_name})")
        return 0
    failing = sorted(n for n, e in errors.items() if e >= gc_mod.DEFAULT_TOLERANCE)
    print(f"FAIL: worst relative error {worst:.3e}; offending parameters: "
          + ", ".join(failing), file=sys.stderr)
    return 3


def cmd_synth(args):
    max_len = args.max_len
    if args.task == "copy":
        paths = synth_mod.write_copy_corpus(
            args.out_dir, args.lines, args.vocab, args.seed,
            min_len=args.min_len, max_len=max_len or 8, prefix=args.prefix)
    else:
        paths = synth_mod.write_triangulate_corpus(
            args.out_dir, args.lines, args.bases, args.seed,
            min_len=args.min_len, max_len=max_len or 6, prefix=args.prefix)
    for side, path in paths.items():
        log(f"wrote {side}: {path}")
    return 0


COMMANDS = {"train": cmd_train, "translate": cmd_translate, "score": cmd_score,
            "gradcheck": cmd_gradcheck, "synth": cmd_synth}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except MsnmtError as e:
        log(f"error: {e}")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
