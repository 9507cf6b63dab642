"""Beam search (beam 1 == greedy) over chunks of sentences, with
attention-trace dumping.

Every sentence of a chunk owns ``beam`` fixed slots, and each step runs all
sentences x beam slots through one decoder step.  A slot whose score is -inf
is dead.  Each step keeps, per sentence, the ``beam`` best extensions of its
slots and records a backpointer (parent slot, token, traces); the best
hypothesis is rebuilt from them at the end.
"""

import numpy as np

from .attention import AttentionTrace
from .data import BOS, EOS, PAD, decode_ids, encode_line, read_lines
from .errors import AlignmentError, ConfigError, CorpusIOError
from .model import DecodeSession

# Sentences decoded together.  A larger chunk fills the per-step products
# better, but encode_batch keeps a backward tape for the whole chunk: at 128
# sentences of 20-50 tokens, peak memory rose from 96 to 151 MB.
CHUNK = 16


def default_max_len(src_lengths):
    return 2 * max(src_lengths) + 5


def normalised_score(logprob, length):
    """Average per-token log-probability of a hypothesis of ``length`` tokens."""
    return logprob / max(1, length)


def _trace_row(trace, row):
    """Row ``row`` of a batched attention trace, as a batch of one."""
    part = slice(row, row + 1)
    return AttentionTrace(p_t=trace.p_t[part], window=trace.window[part],
                          align=trace.align[part], weights=trace.weights[part],
                          context=trace.context[part], valid=trace.valid[part])


def _backtrack(history, step, row):
    """Tokens (and traces, where kept) of the hypothesis in slot ``row``
    after ``step``."""
    tokens, traces = [], []
    for parents, toks, step_traces in reversed(history[:step + 1]):
        tokens.append(int(toks[row]))
        row = int(parents[row])          # the row that was stepped
        if step_traces is not None:
            traces.append([_trace_row(tr, row) for tr in step_traces])
    return tokens[::-1], traces[::-1]


def beam_search(params, config, sentences, beam=8, max_len=None, length_norm=True,
                keep_traces=False):
    """Length-capped beam search for a batch of sentences at once.

    sentences: list of tuples, one reversed source id list per source.  Each
    sentence stops after its own cap, ``max_len`` or else
    default_max_len(its source lengths), or once none of its slots is live.
    A finished hypothesis uses up its slot.  The best finished hypothesis wins
    (by average per-token log-probability, or by log-probability without
    ``length_norm``); the best live one if none finished within the cap.

    Returns (results, steps): per sentence (token ids without <s>/</s>,
    score, traces), and the number of decoder steps run.  With
    ``keep_traces``, traces holds per emitted token, </s> included, one
    batch-of-one attention trace per source (none without attention);
    otherwise it is empty.
    """
    if beam < 1:
        raise ConfigError(f"beam must be >= 1, got {beam}")
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    sess = DecodeSession(params, config, sentences, beam)
    n, V = len(sentences), config.tgt_vocab_size
    caps = np.array([max_len if max_len is not None else default_max_len(list(map(len, srcs)))
                     for srcs in sentences])
    first_row = np.arange(n)[:, None] * beam
    score = np.full((n, beam), -np.inf)
    score[:, 0] = 0.0
    tokens = np.full(n * beam, BOS)
    states, htilde = sess.initial()
    history = []
    best = [None] * n            # (rank, step, row) of the best finished hypothesis
    searching = np.ones(n, dtype=bool)
    t = 0
    while searching.any():
        states, htilde, logp, traces = sess.step(states, htilde, tokens)
        logp[:, PAD] = -np.inf
        logp[:, BOS] = -np.inf
        cand = (score.reshape(-1, 1) + logp).reshape(n, beam * V)
        top = np.argpartition(-cand, beam - 1, axis=1)[:, :beam]
        top_score = np.take_along_axis(cand, top, axis=1)
        order = np.argsort(-top_score, axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        score = np.take_along_axis(top_score, order, axis=1)
        parents = (first_row + top // V).ravel()
        tokens = (top % V).ravel()
        history.append((parents, tokens, traces if keep_traces else None))
        states = [(h[parents], c[parents]) for h, c in states]
        htilde = htilde[parents]

        length = t + 1
        ranks = normalised_score(score, length) if length_norm else score.copy()
        ended = (tokens.reshape(n, beam) == EOS) & (score > -np.inf)
        for i, j in zip(*np.nonzero(ended)):
            if best[i] is None or ranks[i, j] > best[i][0]:
                best[i] = (ranks[i, j], t, i * beam + j)
        score[ended] = -np.inf
        for i in np.nonzero(searching & (caps == length))[0]:
            if best[i] is None:          # nothing finished: the best live one
                j = int(np.argmax(np.where(score[i] > -np.inf, ranks[i], -np.inf)))
                best[i] = (ranks[i, j], t, i * beam + j)
            score[i] = -np.inf
        searching &= (score > -np.inf).any(axis=1)
        t += 1

    results = []
    for rank, step, row in best:
        toks, traces = _backtrack(history, step, row)
        if toks[-1] == EOS:
            toks.pop()
        results.append((toks, float(rank), traces))
    return results, t


def beam_decode(params, config, src1_ids, src2_ids=None, beam=8, max_len=None,
                length_norm=True):
    """beam_search for one sentence; returns its (tokens, score, traces)."""
    srcs = (src1_ids,) if src2_ids is None else (src1_ids, src2_ids)
    results, _steps = beam_search(params, config, [srcs], beam, max_len, length_norm,
                                  keep_traces=True)
    return results[0]


def translate_file(params, config, src_paths, out_path, vocabs, beam=8,
                   max_len=None, dump_attention=None, length_norm=True):
    """One output line per input line; optional alignment TSV
    (sentence, target_pos, encoder_id, source_pos, weight).  Non-blank lines
    are decoded CHUNK sentences at a time; a line blank in any source stays
    blank.  Returns {"sentences", "steps", "rows"}: sentences decoded,
    decoder steps run and rows stepped over all of them."""
    src_vocabs, tgt_vocab = vocabs
    lines = [read_lines(p) for p in src_paths]
    if len(set(len(l) for l in lines)) != 1:
        raise AlignmentError("source files have differing line counts: "
                             + ", ".join(f"{p}={len(l)}" for p, l in zip(src_paths, lines)))
    rows = list(zip(*lines))
    todo = [i for i, row in enumerate(rows) if all(r.strip() for r in row)]
    hyps = [""] * len(rows)
    stats = {"sentences": len(todo), "steps": 0, "rows": 0}

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
        for start in range(0, len(todo), CHUNK):
            chunk = todo[start:start + CHUNK]
            sentences = [tuple(encode_line(r, v, reverse=True)
                               for r, v in zip(rows[i], src_vocabs)) for i in chunk]
            results, steps = beam_search(params, config, sentences, beam, max_len,
                                         length_norm, keep_traces=tsv is not None)
            stats["steps"] += steps
            stats["rows"] += steps * len(chunk) * beam
            for i, (toks, _score, traces) in zip(chunk, results):
                hyps[i] = " ".join(decode_ids(toks, tgt_vocab))
                if tsv is not None:
                    for tpos, per_source in enumerate(traces):
                        for k, trace in enumerate(per_source):
                            for s, w in zip(trace.window[trace.valid],
                                            trace.weights[trace.valid]):
                                tsv.write(f"{i}\t{tpos}\t{k}\t{int(s)}\t{w:.6f}\n")
        out.writelines(h + "\n" for h in hyps)
    finally:
        out.close()
        if tsv is not None:
            tsv.close()
    return stats
