"""Corpus ingestion, vocabularies, and length-bucketed batching.

Tokenization is whitespace-only and case is preserved.  Sources are reversed
at id-encoding time; targets are not.  Reserved ids: 0 <pad>, 1 <s>, 2 </s>,
3 <unk>.
"""

import hashlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import AlignmentError, ConfigError, CorpusIOError, VocabularyError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ["<pad>", "<s>", "</s>", "<unk>"]


class Vocabulary:
    def __init__(self, tokens):
        if tokens[:4] != RESERVED:
            raise VocabularyError("vocabulary must start with the four reserved tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise VocabularyError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def token_of(self, tid):
        if not 0 <= tid < len(self.tokens):
            raise VocabularyError(f"id {tid} outside vocabulary of size {len(self.tokens)}")
        return self.tokens[tid]

    def content_hash(self):
        h = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return h.hexdigest()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            # ids start at 4; line number in this file = id - 4
            f.write("# msnmt vocabulary: line N holds the token with id N+4; "
                    "ids 0-3 are <pad>,<s>,</s>,<unk>\n")
            for t in self.tokens[4:]:
                f.write(t + "\n")

    @classmethod
    def load(cls, path):
        tokens = list(RESERVED)
        try:
            with open(path, encoding="utf-8") as f:
                first = True
                for line in f:
                    line = line.rstrip("\n")
                    if first and line.startswith("#"):
                        first = False
                        continue
                    first = False
                    tokens.append(line)
        except OSError as e:
            raise CorpusIOError(f"cannot read vocabulary {path}: {e}") from e
        return cls(tokens)


def build_vocab(lines, max_size):
    """Top (max_size - 4) tokens by frequency, ties broken lexicographically."""
    if max_size <= 4:
        raise ConfigError(f"vocabulary size must exceed 4, got {max_size}")
    counts = Counter(chain.from_iterable(map(str.split, lines)))
    if not counts:
        raise ConfigError("empty corpus: no tokens to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [t for t, _ in ranked[:max_size - 4]]
    return Vocabulary(RESERVED + keep)


def encode_line(line, vocab: Vocabulary, reverse):
    """Whitespace split, OOV -> <unk>, reversed iff reverse (sources only).
    No <s>/</s> framing here."""
    toks = line.split()
    if reverse:
        toks.reverse()
    return list(map(vocab.index.get, toks, repeat(UNK)))


def decode_ids(ids, vocab: Vocabulary):
    return [vocab.token_of(i) for i in ids]


def read_lines(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise CorpusIOError(f"cannot read {path}: {e}") from e
    if lines[-1] == "":
        lines.pop()   # the newline that ends the last line
    return lines


def read_aligned(paths):
    """The lines of line-aligned files: one tuple per line, one string per
    file.  Files whose line counts differ raise AlignmentError."""
    sides = [read_lines(p) for p in paths]
    if len(set(map(len, sides))) != 1:
        raise AlignmentError("line counts differ: "
                             + ", ".join(f"{p}={len(s)}" for p, s in zip(paths, sides)))
    return list(zip(*sides))


def load_parallel(paths, max_len=50):
    """Line-align 2 or 3 files into tuples of token lines; drop tuples with
    an empty side or any side longer than max_len tokens.

    Returns (tuples, dropped_count)."""
    tuples = []
    dropped = 0
    for rows in read_aligned(paths):
        n_toks = list(map(len, map(str.split, rows)))
        if min(n_toks) == 0 or max(n_toks) > max_len:
            dropped += 1
            continue
        tuples.append(rows)
    return tuples, dropped


@dataclass
class Batch:
    """Padded id matrices with exact masks; every row is one aligned tuple.

    Sources are already reversed.  tgt_in is <s> t1..tn padded, tgt_out is
    t1..tn </s> padded; tgt_mask is 1.0 exactly on real tgt_out positions.
    """

    src1: np.ndarray        # [B, T1] int64
    src1_mask: np.ndarray   # [B, T1] float
    src1_len: np.ndarray    # [B] int
    tgt_in: np.ndarray      # [B, Tt] int64
    tgt_out: np.ndarray     # [B, Tt] int64
    tgt_mask: np.ndarray    # [B, Tt] float
    tgt_len: np.ndarray     # [B] int
    src2: np.ndarray = None
    src2_mask: np.ndarray = None
    src2_len: np.ndarray = None

    @property
    def size(self):
        return self.src1.shape[0]

    @property
    def n_predicted(self):
        return int(self.tgt_mask.sum())


def pad_ids(seqs, dtype=np.int64):
    """Right-pad id lists with <pad>: returns (ids [B, T], mask [B, T] of
    1.0 on real positions, lengths [B])."""
    B = len(seqs)
    T = max(len(s) for s in seqs)
    ids = np.full((B, T), PAD, dtype=dtype)
    mask = np.zeros((B, T), dtype=np.float64)
    lens = np.zeros(B, dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[b, :len(s)] = s
        mask[b, :len(s)] = 1.0
        lens[b] = len(s)
    return ids, mask, lens


def make_batch(id_tuples):
    """id_tuples: list of (src1_ids, [src2_ids,] tgt_ids); sources reversed,
    targets unframed."""
    n_sides = len(id_tuples[0])
    src1, m1, l1 = pad_ids([t[0] for t in id_tuples])
    tgt = [t[-1] for t in id_tuples]
    tin, _, _ = pad_ids([[BOS] + list(s) for s in tgt])
    tout, tmask, tlen = pad_ids([list(s) + [EOS] for s in tgt])
    batch = Batch(src1=src1, src1_mask=m1, src1_len=l1,
                  tgt_in=tin, tgt_out=tout, tgt_mask=tmask, tgt_len=tlen)
    if n_sides == 3:
        src2, m2, l2 = pad_ids([t[1] for t in id_tuples])
        batch.src2, batch.src2_mask, batch.src2_len = src2, m2, l2
    return batch


def encode_tuples(tuples, src_vocabs, tgt_vocab):
    """Token tuples -> id tuples (sources reversed)."""
    for tup in tuples:
        if len(tup) - 1 != len(src_vocabs):
            raise ConfigError(f"{len(tup) - 1} source sides but {len(src_vocabs)} source vocabularies")
    # one side at a time, so each side looks its tokens up in one vocabulary
    sides = [[encode_line(tup[k], v, reverse=True) for tup in tuples]
             for k, v in enumerate(src_vocabs)]
    sides.append([encode_line(tup[-1], tgt_vocab, reverse=False) for tup in tuples])
    return list(zip(*sides))


def batchify(id_tuples, batch_size, rng):
    """Sort by target length, shuffle bucket-internally and across batches
    with the given seeded generator, group into batches of <= batch_size."""
    order = np.arange(len(id_tuples))
    rng.shuffle(order)  # randomize ties before the stable length sort
    order = order[np.argsort([len(id_tuples[i][-1]) for i in order], kind="stable")]
    groups = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(groups)
    return [make_batch([id_tuples[i] for i in g]) for g in groups]
