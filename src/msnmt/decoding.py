"""Beam-search translation (beam 1 == greedy) with attention-trace dumping."""

from dataclasses import dataclass, field

import numpy as np

from .data import BOS, EOS, PAD, decode_ids, encode_line, read_lines
from .errors import AlignmentError, ConfigError, CorpusIOError
from .model import DecodeSession


@dataclass
class Hypothesis:
    tokens: list                 # emitted ids, excluding <s>, including </s> when finished
    logprob: float
    states: list                 # decoder StateStack
    htilde: np.ndarray           # previous attentional hidden (feed input)
    finished: bool = False
    traces: list = field(default_factory=list)  # per emitted token: traces per source

    def score(self):
        """Average per-token log-probability (length normalized)."""
        return self.logprob / max(1, len(self.tokens))


def default_max_len(src_lengths):
    return 2 * max(src_lengths) + 5


def beam_decode(params, config, src1_ids, src2_ids=None, beam=8, max_len=None,
                length_norm=True):
    """Length-capped beam search.

    Returns (token ids without <s>/</s>, score, traces) for the best finished
    hypothesis by average per-token log-probability (best unfinished if none
    finished within max_len).
    """
    if beam < 1:
        raise ConfigError(f"beam must be >= 1, got {beam}")
    if len(src1_ids) == 0 or (src2_ids is not None and len(src2_ids) == 0):
        raise ConfigError("beam_decode: empty source sentence")
    sess = DecodeSession(params, config, src1_ids, src2_ids)
    if max_len is None:
        max_len = default_max_len(sess.src_lengths)

    states, htilde = sess.initial()
    live = [Hypothesis(tokens=[], logprob=0.0, states=states, htilde=htilde)]
    done = []

    for _step in range(max_len):
        candidates = []
        for hyp in live:
            last = hyp.tokens[-1] if hyp.tokens else BOS
            new_states, new_htilde, logp, traces = sess.step(hyp.states, hyp.htilde, last)
            logp[PAD] = -np.inf   # step returns a fresh array
            logp[BOS] = -np.inf
            top = np.argsort(logp)[::-1][:beam]
            candidates.extend((lp, tok, hyp, new_states, new_htilde, traces) for lp, tok in
                              zip((hyp.logprob + logp[top]).tolist(), top.tolist()))
        candidates.sort(key=lambda c: c[0], reverse=True)
        live = []
        for lp, tok, parent, st, ht, traces in candidates[:beam]:
            child = Hypothesis(tokens=parent.tokens + [tok], logprob=lp,
                               states=st, htilde=ht,
                               traces=parent.traces + [traces])
            if tok == EOS:
                child.finished = True
                done.append(child)
            else:
                live.append(child)
        if not live:
            break

    rank = (lambda h: h.score()) if length_norm else (lambda h: h.logprob)
    pool = done if done else live
    best = max(pool, key=rank)
    tokens = [t for t in best.tokens if t != EOS]
    return tokens, rank(best), best.traces


def translate_file(params, config, src_paths, out_path, vocabs, beam=8,
                   max_len=None, dump_attention=None, length_norm=True):
    """One output line per input line; optional alignment TSV
    (sentence, target_pos, encoder_id, source_pos, weight)."""
    src_vocabs, tgt_vocab = vocabs
    lines = [read_lines(p) for p in src_paths]
    if len(set(len(l) for l in lines)) != 1:
        raise AlignmentError("source files have differing line counts: "
                             + ", ".join(f"{p}={len(l)}" for p, l in zip(src_paths, lines)))

    tsv = None
    try:
        out = open(out_path, "w", encoding="utf-8")
    except OSError as e:
        raise CorpusIOError(f"cannot write {out_path}: {e}") from e
    try:
        if dump_attention:
            try:
                tsv = open(dump_attention, "w", encoding="utf-8")
            except OSError as e:
                raise CorpusIOError(f"cannot write {dump_attention}: {e}") from e
            tsv.write("sentence\ttarget_pos\tencoder_id\tsource_pos\tweight\n")
        for i, row in enumerate(zip(*lines)):
            if any(not r.strip() for r in row):
                out.write("\n")
                continue
            ids = [encode_line(r, v, reverse=True) for r, v in zip(row, src_vocabs)]
            src2 = ids[1] if len(ids) == 2 else None
            toks, _score, traces = beam_decode(params, config, ids[0], src2,
                                               beam=beam, max_len=max_len,
                                               length_norm=length_norm)
            out.write(" ".join(decode_ids(toks, tgt_vocab)) + "\n")
            if tsv is not None:
                for tpos, per_source in enumerate(traces):
                    for k, trace in enumerate(per_source):
                        for s, w in zip(trace.window[trace.valid], trace.weights[trace.valid]):
                            tsv.write(f"{i}\t{tpos}\t{k}\t{int(s)}\t{w:.6f}\n")
    finally:
        out.close()
        if tsv is not None:
            tsv.close()
