"""Corpus BLEU matching multi-bleu.perl semantics: corpus-level modified
n-gram precisions (n=1..4), geometric mean, brevity penalty, single
reference, case sensitive, no smoothing (any zero precision gives 0)."""

import math
from collections import Counter
from dataclasses import dataclass

from .data import read_aligned
from .errors import ConfigError


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple       # p1..p4 as fractions in [0,1]
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def format(self):
        ps = "/".join(f"{100 * p:.1f}" for p in self.precisions)
        ratio = self.hyp_len / self.ref_len if self.ref_len else 0.0
        return (f"BLEU = {self.bleu:.2f}, {ps} "
                f"(BP={self.brevity_penalty:.3f}, ratio={ratio:.3f}, "
                f"hyp_len={self.hyp_len}, ref_len={self.ref_len})")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(hyps, refs, n):
    """Corpus-level clipped n-gram matches and totals."""
    matches, total = 0, 0
    for h, r in zip(hyps, refs):
        hc = _ngrams(h, n)
        rc = _ngrams(r, n)
        total += sum(hc.values())
        matches += sum(min(c, rc[g]) for g, c in hc.items())
    return matches, total


def bleu(hyps, refs):
    """hyps/refs: lists of token lists, compared byte-exactly; as many of
    each, as score_files reads them (read_aligned)."""
    if not hyps or all(len(h) == 0 for h in hyps):
        raise ConfigError("empty hypothesis corpus")
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    precisions = []
    for n in range(1, 5):
        m, t = modified_precision(hyps, refs, n)
        precisions.append(m / t if t > 0 else 0.0)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) > 0.0:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0) * 100.0
    else:
        score = 0.0
    return BleuReport(bleu=score, precisions=tuple(precisions),
                      brevity_penalty=bp, hyp_len=hyp_len, ref_len=ref_len)


def score_files(hyp_path, ref_path):
    """Whitespace tokenization, no recasing; returns a BleuReport."""
    pairs = read_aligned([hyp_path, ref_path])
    if not pairs:
        raise ConfigError("cannot score empty files")
    return bleu([h.split() for h, _ in pairs], [r.split() for _, r in pairs])
