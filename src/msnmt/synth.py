"""Synthetic aligned corpora for desk-scale controls.

copy: target equals source-1 token for token.

triangulate: every source-1 token is ambiguous between two target tokens;
source-2 carries the per-position disambiguator.  The target is a
deterministic function of (src1, src2) jointly but not of src1 alone, which
is exactly the property multi-source translation can exploit and
single-source translation cannot.
"""

import os

from .errors import ConfigError, CorpusIOError
from .model import replace_file
from .rngs import rng_stream


def _check_lengths(min_len, max_len):
    if not 1 <= min_len <= max_len:
        raise ConfigError(f"sentence lengths need 1 <= min_len <= max_len, "
                          f"got min_len {min_len} and max_len {max_len}")


def generate_copy(n_lines, vocab_size, seed, min_len=3, max_len=8):
    if vocab_size < 1 or n_lines < 1:
        raise ConfigError("copy task needs n_lines >= 1 and vocab_size >= 1")
    _check_lengths(min_len, max_len)
    rng = rng_stream(seed, "synth")
    lines = []
    for _ in range(n_lines):
        n = int(rng.integers(min_len, max_len + 1))
        lines.append(" ".join(f"w{int(k)}" for k in rng.integers(0, vocab_size, size=n)))
    return lines


def triangulate_target(src1_tok, src2_tok):
    """The ground-truth mapping: a<k> + d<j> -> t<k>_<j>."""
    k = src1_tok[1:]
    j = src2_tok[1:]
    return f"t{k}_{j}"


def generate_triangulate(n_lines, n_bases, seed, min_len=3, max_len=6):
    if n_bases < 2 or n_lines < 1:
        raise ConfigError("triangulate task needs n_lines >= 1 and n_bases >= 2")
    _check_lengths(min_len, max_len)
    rng = rng_stream(seed, "synth")
    src1, src2, tgt = [], [], []
    for _ in range(n_lines):
        n = int(rng.integers(min_len, max_len + 1))
        ks = rng.integers(0, n_bases, size=n)
        js = rng.integers(0, 2, size=n)
        s1 = [f"a{int(k)}" for k in ks]
        s2 = [f"d{int(j)}" for j in js]
        src1.append(" ".join(s1))
        src2.append(" ".join(s2))
        tgt.append(" ".join(triangulate_target(a, b) for a, b in zip(s1, s2)))
    return src1, src2, tgt


def _write(out_dir, prefix, sides):
    """Writes each side's lines to {out_dir}/{prefix}{side}.txt; returns the
    paths by side."""
    paths = {side: os.path.join(out_dir, f"{prefix}{side}.txt") for side in sides}
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise CorpusIOError(f"cannot write corpus to {out_dir}: {e}") from e
    for side, lines in sides.items():
        replace_file(paths[side], (f"{line}\n".encode("utf-8") for line in lines))
    return paths


def write_copy_corpus(out_dir, n_lines, vocab_size, seed, min_len=3, max_len=8,
                      prefix=""):
    """Writes {prefix}src1.txt and a byte-equal {prefix}tgt.txt."""
    lines = generate_copy(n_lines, vocab_size, seed, min_len, max_len)
    return _write(out_dir, prefix, {"src1": lines, "tgt": lines})


def write_triangulate_corpus(out_dir, n_lines, n_bases, seed, min_len=3,
                             max_len=6, prefix=""):
    src1, src2, tgt = generate_triangulate(n_lines, n_bases, seed, min_len, max_len)
    return _write(out_dir, prefix, {"src1": src1, "src2": src2, "tgt": tgt})
