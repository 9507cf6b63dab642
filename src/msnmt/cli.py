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

try:
    import resource
except ImportError:     # as on Windows; translate then logs no CPU time
    resource = None


def log(msg):
    print(msg, file=sys.stderr)


# train's settings, each a flag and a --config key: key -> (type, or a string
# setting's choices; default; help phrase).  A default that depends on
# attention is a pair (without, with local-p), resolved after attention.
# Luong et al. 2015's recipe, but with 64 hidden units instead of 1000.
TRAIN_SETTINGS = {
    "mode": (model_mod.MODES, "single", None),
    "attention": (model_mod.ATTENTIONS, "none", None),
    "layers": (int, 4, None),
    "hidden": (int, 64, None),
    "window": (int, 10, "attention radius D"),
    "epochs": (int, 15, None),
    "lr": (float, (1.0, 0.7), None),
    "halve_after": (int, 10, "halve lr each epoch after this one"),
    "clip": (float, trainer_mod.TrainConfig.clip_threshold, "gradient norm threshold"),
    "batch_size": (int, 128, None),
    "dropout": (float, (0.2, 0.3), None),
    "init_range": (float, (0.1, 0.08), None),
    "seed": (int, 1, None),
    "vocab_size": (int, 10000, "per-side vocabulary cap"),
    "max_len": (int, 50, "drop tuples longer than this"),
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
                if key not in TRAIN_SETTINGS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = val
    except (OSError, UnicodeDecodeError) as e:
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
    t.add_argument("--resume", help="checkpoint to resume from")
    for key, (kind, default, phrase) in TRAIN_SETTINGS.items():
        if isinstance(default, tuple):
            default = f"{default[0]} ({default[1]} with attention)"
        choices = kind if isinstance(kind, tuple) else None
        note = f"default {default}"
        t.add_argument("--" + key.replace("_", "-"), type=str if choices else kind,
                       choices=choices, help=f"{phrase} ({note})" if phrase else note)

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


def train_settings(args):
    """Each train setting: its flag, else its --config value, else its default."""
    file_vals = load_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (kind, default, _) in TRAIN_SETTINGS.items():
        value = getattr(args, key)
        if value is None and key in file_vals:
            cast = str if isinstance(kind, tuple) else kind
            try:
                value = cast(file_vals[key])
            except ValueError:
                raise ConfigError(f"{args.config}: cannot read {key} = {file_vals[key]!r} "
                                  f"as {cast.__name__}") from None
        elif value is None:
            value = (default[resolved["attention"] == "local-p"]
                     if isinstance(default, tuple) else default)
        resolved[key] = value
    return resolved


def cmd_train(args):
    resolved = train_settings(args)
    mode, attention = resolved["mode"], resolved["attention"]

    errs = []
    multi = mode != "single"
    for key in ("src1", "tgt", "dev_src1", "dev_tgt", "out"):
        if getattr(args, key) is None:
            errs.append(f"missing required path --{key.replace('_', '-')}")
    for flag, path in (("--src2", args.src2), ("--dev-src2", args.dev_src2)):
        if multi and path is None:
            errs.append(f"--mode {mode} requires {flag}")
        if not multi and path is not None:
            errs.append(f"--mode single does not accept {flag}")
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
                  "hashes": _vocab_hashes(src_vocabs, tgt_vocab)}

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
        base = os.path.basename(args.resume)
        epoch = re.fullmatch(r"checkpoint-epoch([0-9]+)", base)
        if not epoch:
            raise ConfigError(f"--resume {args.resume}: no epoch number in {base!r}; "
                              "expected checkpoint-epoch<N>")
        start_epoch = int(epoch[1]) + 1
        ck_cfg, params, ck_meta = model_mod.load_checkpoint(args.resume)
        if ck_cfg.to_dict() != model_cfg.to_dict():
            raise CompatibilityError("resume checkpoint config does not match this run")
        if ck_meta.get("hashes") != vocab_meta["hashes"]:
            raise CompatibilityError(f"--resume {args.resume}: its vocabularies differ from "
                                     "the ones built from these training files")
        if start_epoch > resolved["epochs"]:
            raise ConfigError(f"--resume {args.resume} has trained {start_epoch - 1} epoch(s) "
                              f"and --epochs is {resolved['epochs']}: nothing left to train")
        log(f"resuming from {args.resume} at epoch {start_epoch}")

    trainer_mod.train(model_cfg, train_cfg, enc_train, enc_dev, args.out,
                      vocab_meta=vocab_meta, start_epoch=start_epoch,
                      params=params, log=log)
    return 0


def _vocab_hashes(src_vocabs, tgt_vocab):
    """What a checkpoint header stores under vocab.hashes."""
    return {"src": [v.content_hash() for v in src_vocabs], "tgt": tgt_vocab.content_hash()}


def _token_list(tokens, size):
    return (isinstance(tokens, list) and len(tokens) == size
            and all(isinstance(t, str) for t in tokens))


def _vocabs_from_meta(meta, config):
    """The checkpoint's source and target vocabularies: one list of strings
    per side, each as long as its config says, and matching the hashes the
    header stores beside them."""
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
        src_vocabs, tgt_vocab = [Vocabulary(t) for t in src], Vocabulary(tgt)
    except VocabularyError as e:
        raise CompatibilityError(f"checkpoint vocabulary: {e}") from e
    if "hashes" not in meta:
        raise CompatibilityError("checkpoint vocabulary has no hashes to check it against")
    if meta["hashes"] != _vocab_hashes(src_vocabs, tgt_vocab):
        raise CompatibilityError("checkpoint vocabulary does not match its stored hashes")
    return src_vocabs, tgt_vocab


def cmd_translate(args):
    config, params, meta = model_mod.load_checkpoint(args.checkpoint)
    src_paths = [args.src1] + ([args.src2] if args.src2 else [])
    src_vocabs, tgt_vocab = _vocabs_from_meta(meta, config)
    cpu0 = _cpu_seconds()
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
    if cpu0 is not None:
        own, workers = (b - a for a, b in zip(cpu0, _cpu_seconds()))
        log(f"cpu time {own:.3f} s in this process, {workers:.3f} s in worker processes")
    return 0


def _cpu_seconds():
    """User plus system CPU seconds of this process and of its reaped
    children, or None without the resource module.  translate_file joins
    its decoding workers before it returns, so their time is in the second
    figure by then."""
    if resource is None:
        return None
    return tuple(u.ru_utime + u.ru_stime for u in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


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
            min_len=args.min_len, max_len=8 if max_len is None else max_len,
            prefix=args.prefix)
    else:
        paths = synth_mod.write_triangulate_corpus(
            args.out_dir, args.lines, args.bases, args.seed,
            min_len=args.min_len, max_len=6 if max_len is None else max_len,
            prefix=args.prefix)
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
