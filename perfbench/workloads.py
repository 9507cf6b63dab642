"""Workload definitions and the benchmark's own seeded corpus generators.

The generators live here, not in ``msnmt.synth``, so that an edit to the
program under test cannot change what a workload feeds it.

The training file of a workload is drawn from a fixed seed, and the held-out
dev and test files from the run seed, each split from its own stream.  How
fast beam search runs depends on how sharp the trained model is: with the
training text varying by seed, 100 beam-8 sentences took from 1.0 to 1.9 s on
a 2-vCPU x86 host, depending only on which model came out.  A fixed training file gives every
run the same model and the same training work, so the spread across seeds
measures the program, while the held-out text still varies with the seed.
"""

import os
from dataclasses import dataclass

import numpy as np

# All workloads share the desk-scale recipe: hidden 64, 2 layers, batch 16,
# attention radius D=10, lr 0.5, init +-0.5.
HIDDEN = 64
LAYERS = 2
BATCH = 16
WINDOW = 10
LR = 0.5
INIT_RANGE = 0.5
VOCAB_CAP = 10000
MAX_LEN = 50
# The program's own default seed for initialisation, shuffling and dropout.
TRAIN_SEED = 1
# Seed of every workload's training file (see the module docstring).
TRAIN_CORPUS_SEED = 0

SPLITS = {"train": 0, "dev": 1, "test": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str            # "copy" or "triangulate"
    min_len: int
    max_len: int
    mode: str
    attention: str
    dropout: float
    train_lines: int
    dev_lines: int
    epochs: int
    halve_after: int
    test_lines: int
    beam: int
    decode_max_len: int = None   # None: the program's per-line cap, 2 * length + 5


WORKLOADS = {w.name: w for w in (
    # Attention is about half of the self time, with the window covering the
    # whole sentence; beam 8 with two-source attention is the heaviest decode
    # path.  Batched attention and batched beam search should move it.
    Workload(
        name="multi-localp-short", task="triangulate", min_len=3, max_len=6,
        mode="multi-childsum", attention="local-p", dropout=0.0,
        train_lines=800, dev_lines=100, epochs=10, halve_after=7,
        test_lines=200, beam=8),
    # No attention and no combiner: recurrence and gate kernels dominate.
    # Attention, combiner and beam-search changes should not move it; greedy
    # decoding shows any cost batched beam search adds at beam 1.  The only
    # workload that draws dropout masks.
    Workload(
        name="single-none", task="copy", min_len=3, max_len=12,
        mode="single", attention="none", dropout=0.2,
        train_lines=3000, dev_lines=200, epochs=6, halve_after=4,
        test_lines=2000, beam=1),
    # Sentences longer than the 21-position window, so windows clamp and
    # slide; the longest encoder recurrences, the largest tape, and the only
    # basic combiner.  The model does not converge in a run, so with the
    # program's default cap of 2 * length + 5 it would decode up to 105 steps
    # a sentence, however long it happened to ramble.  The translate phase is
    # greedy with a fixed cap of 12 steps, which bounds that work while still
    # covering decoding over long sources.
    Workload(
        name="multi-localp-long", task="triangulate", min_len=20, max_len=50,
        mode="multi-basic", attention="local-p", dropout=0.0,
        train_lines=300, dev_lines=40, epochs=3, halve_after=10,
        test_lines=120, beam=1, decode_max_len=12),
)}


def split_rng(seed, split):
    return np.random.default_rng(np.random.SeedSequence([int(seed), SPLITS[split], 7919]))


def copy_lines(n_lines, rng, min_len, max_len, vocab_size=50):
    """Copy task: the target is the source token for token."""
    lines = []
    for _ in range(n_lines):
        n = int(rng.integers(min_len, max_len + 1))
        lines.append(" ".join(f"w{int(k)}" for k in rng.integers(0, vocab_size, size=n)))
    return [lines], lines


def triangulate_lines(n_lines, rng, min_len, max_len, n_bases=10, n_disamb=2):
    """Source 1 holds ambiguous bases a<k>, source 2 one disambiguator d<j> per
    position; the target t<k>_<j> needs both."""
    src1, src2, tgt = [], [], []
    for _ in range(n_lines):
        n = int(rng.integers(min_len, max_len + 1))
        ks = rng.integers(0, n_bases, size=n)
        js = rng.integers(0, n_disamb, size=n)
        src1.append(" ".join(f"a{int(k)}" for k in ks))
        src2.append(" ".join(f"d{int(j)}" for j in js))
        tgt.append(" ".join(f"t{int(k)}_{int(j)}" for k, j in zip(ks, js)))
    return [src1, src2], tgt


def generate(w: Workload, seed, split, n_lines):
    """(source sides, target lines) of one split drawn from seed."""
    gen = copy_lines if w.task == "copy" else triangulate_lines
    return gen(n_lines, split_rng(seed, split), w.min_len, w.max_len)


def write_corpus(w: Workload, seed, out_dir):
    """Write the training file and the held-out files of run seed `seed`;
    returns {split: [source paths..., target path]}."""
    os.makedirs(out_dir, exist_ok=True)
    sizes = {"train": w.train_lines, "dev": w.dev_lines, "test": w.test_lines}
    paths = {}
    for split, n in sizes.items():
        srcs, tgt = generate(w, TRAIN_CORPUS_SEED if split == "train" else seed, split, n)
        names = [f"{split}.src{k + 1}" for k in range(len(srcs))] + [f"{split}.tgt"]
        paths[split] = [os.path.join(out_dir, nm) for nm in names]
        for path, lines in zip(paths[split], srcs + [tgt]):
            with open(path, "w", encoding="utf-8") as f:
                f.write("".join(line + "\n" for line in lines))
    return paths
